"""Golden CSVs: the bytes ``nupolar simulate`` writes for each configuration
CI runs at several worker counts.  They live under ``tests/golden/``, one
``<name>.csv`` per entry of ``RUNS``; ``test_golden.py`` compares them byte
for byte with one worker, and CI compares the CSV of every run that
``--list`` prints with them.

After a declared output change, regenerate them with

    PYTHONPATH=src python3 tests/golden_csv.py

which rewrites every file and prints the CSV rows that moved.

    PYTHONPATH=src python3 tests/golden_csv.py --list

prints CI's runs, one ``<name> <workers> <arguments>`` line each: every
configuration at 1 and 2 workers, and ``ODD_WORKERS`` at 3 as well."""

import argparse
import contextlib
import difflib
import io
import sys
from pathlib import Path

from nupolar import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# The ``nupolar simulate`` arguments of each configuration.  SC units hold 4
# batches of 256 frames at N <= 256 and 2 at N = 512; list units hold the
# most batches with frames * L * N <= 2^18, at most 4.
RUNS = {
    # Extended SC: 2 dB stops on its error target inside the first unit,
    # 4 dB at the frame cap.
    "ext64-sc": "--N 64 --M 80 --K 40 --method NUPGA_extended --ebno-sweep 2,4 --max-frames 2048",
    # 2 dB meets its error target inside the second 4-batch unit (frame
    # 1280), so the workers' later batches must be dropped; 3 dB at the end
    # of the third.
    "ext64-sc-unit-stop": "--N 64 --M 80 --K 40 --method NUPGA_extended --ebno-sweep 2,3 "
                          "--min-frame-errors 300 --max-frames 100000",
    # CA-SCL with a 36-bit payload, not a whole number of bytes.
    "cascl128-l4": "--N 128 --K 60 --decoder CASCL --list-size 4 --crc-len 24 --ebno-sweep 1,3 --max-frames 1024",
    # SCL with pruning: 1 dB stops on its error target, 3 dB at the frame cap.
    "scl64-pruned": "--N 64 --K 32 --decoder SCL --list-size 4 --scl-threshold 0.01 --ebno-sweep 1,3 "
                    "--max-frames 1024",
    # SCL with the exact check-node rule: the walk keeps the metric, so it has no fast node.
    "scl64-exact": "--N 64 --K 32 --decoder SCL --list-size 4 --rule exact --ebno-sweep 1,3 --max-frames 1024",
    # Shortened SC: the decoder meets known-zero (+inf) LLRs.
    "short512-sc": "--N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD --ebno-sweep 2,3 "
                   "--max-frames 1024",
    # Shortened SC in 2-batch units: 2 dB meets its error target inside
    # the fourth (frame 1792), 1.5 dB at the end of the second.
    "short512-sc-unit-stop": "--N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD "
                             "--ebno-sweep 1.5,2 --min-frame-errors 300 --max-frames 8192",
    # The same shortened code with SCL at L = 1, SC with its path metric:
    # test_golden.py checks that the metric-free SC walk writes these bytes too.
    "short512-scl1": "--N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD "
                     "--ebno-sweep 1.5,2,3 --max-frames 2048 --decoder SCL --list-size 1",
    # The same shortened SC code with the exact check-node rule.
    "short512-sc-exact": "--N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD "
                         "--ebno-sweep 2,3 --rule exact --max-frames 1024",
    # Shortened CA-SCL at L = 16: the list decoder meets known-zero (+inf) LLRs.
    "short512-cascl16": "--N 512 --M 280 --K 128 --method NUPGA_shortened --pattern-method NAT_PD --decoder CASCL "
                        "--list-size 16 --crc-len 24 --ebno-sweep 1.5 --max-frames 512",
    # Shortened SCL on the live columns: 75 of them at a 128-wide node pad to its full width.
    "short256-scl-exact": "--N 256 --M 150 --K 64 --method NUPGA_shortened --pattern-method NAT_PD --decoder SCL "
                          "--list-size 4 --rule exact --ebno-sweep 1,3 --max-frames 1024",
    # RQUP-shortened SC: the positions never sent are scattered, and dematch
    # refills them in the point's reused buffers.  2 dB stops on its error
    # target; 3 dB runs a 4-batch unit and a short last one (976 frames).
    "rqup256-sc": "--N 256 --M 200 --K 100 --method NUPGA_shortened --pattern-method RQUP --ebno-sweep 2,3 "
                  "--max-frames 2000",
    # CW-shortened SCL, also with scattered positions never sent: 1 dB stops
    # on its error target; 3 dB runs a 2-batch unit and a short last one
    # (488 frames).
    "cw128-scl": "--N 128 --M 100 --K 50 --method NUPGA_shortened --pattern-method CW --decoder SCL "
                 "--list-size 4 --ebno-sweep 1,3 --max-frames 1000",
    # The same CW-shortened code with SC: its dead channel positions are
    # scattered, so the full-width walk runs, through 14 [information,
    # frozen] pairs.  1 dB stops on its error target, 3 dB at the frame cap.
    "cw128-sc": "--N 128 --M 100 --K 50 --method NUPGA_shortened --pattern-method CW --ebno-sweep 1,3 "
                "--max-frames 1000",
}

# Configurations CI also runs at 3 workers, an odd worker count.
ODD_WORKERS = ("ext64-sc-unit-stop",)


def ci_runs():
    """The ``(name, workers, arguments)`` of each run CI compares with the
    golden CSV of ``name``."""
    for name, args in RUNS.items():
        for workers in (1, 2, 3) if name in ODD_WORKERS else (1, 2):
            yield name, workers, args


def simulate_csv(args: str) -> str:
    """The CSV text ``nupolar simulate <args>`` writes at one worker."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["simulate", *args.split(), "--workers", "1"])
    if status:
        raise RuntimeError(f"nupolar simulate {args} exited with status {status}")
    return out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden CSVs, or list CI's runs.")
    parser.add_argument("--list", action="store_true", help="print CI's runs, one per line, and exit")
    if parser.parse_args(argv).list:
        for run in ci_runs():
            print(*run)
        return 0
    GOLDEN.mkdir(exist_ok=True)
    for name, args in RUNS.items():
        path = GOLDEN / f"{name}.csv"
        old = path.read_text() if path.exists() else ""
        new = simulate_csv(args)
        sys.stdout.writelines(difflib.unified_diff(old.splitlines(True), new.splitlines(True),
                                                   f"old/{path.name}", f"new/{path.name}"))
        path.write_text(new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
