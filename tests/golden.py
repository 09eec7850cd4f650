"""Golden files: the bytes ``nupolar`` writes for the codes it builds and
for the BER/FER its decoders measure.  ``tests/golden/`` holds one file per
entry of ``RUNS``: ``<name>.json``, the spec ``nupolar construct`` writes,
and ``<name>.csv``, the CSV ``nupolar simulate`` writes at one worker.
``test_golden.py`` compares the output of every run ``comparisons`` yields
with its file: every construction once, every simulation at 1 and 2
workers, and ``ODD_WORKERS`` at 3 as well.  CI runs it with the rest of
the suite.

After a declared output change, regenerate them with

    PYTHONPATH=src python3 tests/golden.py

which takes no arguments, rewrites every file and prints a unified diff
of what moved: a spec holds one mask entry a line, so the diff names the
positions."""

import contextlib
import difflib
import io
import sys
from pathlib import Path

from nupolar import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# The ``nupolar`` arguments of each golden file.  The comments count frames
# in the work units of ``harness._work_units``.
RUNS = {
    # One code per named rule: each shortening pattern, re-polarized and
    # baseline, each repetition rule, the mother code and the BEC oracle.
    "natpd512.json": "construct --N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD",
    "natpd512-baseline.json": "construct --N 512 --M 320 --K 160 --method GA_uniform --pattern-method NAT_PD",
    "rqup512.json": "construct --N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method RQUP",
    "rqup512-baseline.json": "construct --N 512 --M 320 --K 160 --method GA_uniform --pattern-method RQUP",
    "cw512.json": "construct --N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method CW",
    "cw512-baseline.json": "construct --N 512 --M 320 --K 160 --method GA_uniform --pattern-method CW",
    "ext64-tail.json": "construct --N 64 --M 80 --K 40 --method NUPGA_extended --repeat tail",
    "ext64-weak-info.json": "construct --N 64 --M 80 --K 40 --method NUPGA_extended --repeat weak_info "
                            "--design-snr-db 1 --g-mode product",
    "mother64.json": "construct --N 64 --K 32",
    "bec64.json": "construct --N 64 --K 32 --method BEC_oracle --design-snr-db 2",
    # Extended SC: 2 dB stops on its error target inside the first unit,
    # 4 dB at the frame cap.
    "ext64-sc.csv": "simulate --N 64 --M 80 --K 40 --method NUPGA_extended --ebno-sweep 2,4 --max-frames 2048",
    # 2 dB meets its error target inside the second 4-batch unit (frame
    # 1280), so the workers' later batches must be dropped; 3 dB at the end
    # of the third.
    "ext64-sc-unit-stop.csv": "simulate --N 64 --M 80 --K 40 --method NUPGA_extended --ebno-sweep 2,3 "
                              "--min-frame-errors 300 --max-frames 100000",
    # CA-SCL with a 36-bit payload, not a whole number of bytes.
    "cascl128-l4.csv": "simulate --N 128 --K 60 --decoder CASCL --list-size 4 --crc-len 24 --ebno-sweep 1,3 "
                       "--max-frames 1024",
    # SCL with pruning: 1 dB stops on its error target, 3 dB at the frame cap.
    "scl64-pruned.csv": "simulate --N 64 --K 32 --decoder SCL --list-size 4 --scl-threshold 0.01 --ebno-sweep 1,3 "
                        "--max-frames 1024",
    # SCL with the exact check-node rule: the walk keeps the metric, so it has no fast node.
    "scl64-exact.csv": "simulate --N 64 --K 32 --decoder SCL --list-size 4 --rule exact --ebno-sweep 1,3 "
                       "--max-frames 1024",
    # Shortened SC: the decoder meets known-zero (+inf) LLRs.
    "short512-sc.csv": "simulate --N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD "
                       "--ebno-sweep 2,3 --max-frames 1024",
    # Shortened SC in 2-batch units: 2 dB meets its error target inside
    # the fourth (frame 1792), 1.5 dB at the end of the second.
    "short512-sc-unit-stop.csv": "simulate --N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD "
                                 "--ebno-sweep 1.5,2 --min-frame-errors 300 --max-frames 8192",
    # The same shortened code with SCL at L = 1, SC with its path metric:
    # test_golden.py checks that the metric-free SC walk writes these bytes too.
    "short512-scl1.csv": "simulate --N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD "
                         "--ebno-sweep 1.5,2,3 --max-frames 2048 --decoder SCL --list-size 1",
    # The same shortened SC code with the exact check-node rule.
    "short512-sc-exact.csv": "simulate --N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD "
                             "--ebno-sweep 2,3 --rule exact --max-frames 1024",
    # Shortened CA-SCL at L = 16: the list decoder meets known-zero (+inf) LLRs.
    "short512-cascl16.csv": "simulate --N 512 --M 280 --K 128 --method NUPGA_shortened --pattern-method NAT_PD "
                            "--decoder CASCL --list-size 16 --crc-len 24 --ebno-sweep 1.5 --max-frames 512",
    # Shortened SCL on the live columns: 75 of them at a 128-wide node pad to its full width.
    "short256-scl-exact.csv": "simulate --N 256 --M 150 --K 64 --method NUPGA_shortened --pattern-method NAT_PD "
                              "--decoder SCL --list-size 4 --rule exact --ebno-sweep 1,3 --max-frames 1024",
    # RQUP-shortened SC: the positions never sent are scattered, and dematch
    # refills them in the point's reused buffers.  2 dB stops on its error
    # target; 3 dB runs a 4-batch unit and a short last one (976 frames).
    "rqup256-sc.csv": "simulate --N 256 --M 200 --K 100 --method NUPGA_shortened --pattern-method RQUP "
                      "--ebno-sweep 2,3 --max-frames 2000",
    # CW-shortened SCL, also with scattered positions never sent: 1 dB stops
    # on its error target; 3 dB runs a 2-batch unit and a short last one
    # (488 frames).
    "cw128-scl.csv": "simulate --N 128 --M 100 --K 50 --method NUPGA_shortened --pattern-method CW --decoder SCL "
                     "--list-size 4 --ebno-sweep 1,3 --max-frames 1000",
    # The same CW-shortened code with SC: its dead channel positions are
    # scattered, so the full-width walk runs, through 14 [information,
    # frozen] pairs.  1 dB stops on its error target, 3 dB at the frame cap.
    "cw128-sc.csv": "simulate --N 128 --M 100 --K 50 --method NUPGA_shortened --pattern-method CW "
                    "--ebno-sweep 1,3 --max-frames 1000",
}

# Simulations also compared at 3 workers, an odd worker count.
ODD_WORKERS = ("ext64-sc-unit-stop.csv",)


def comparisons():
    """The ``(file, arguments)`` of each run whose output ``test_golden.py``
    compares with ``tests/golden/<file>``."""
    for name, args in RUNS.items():
        if args.startswith("construct"):
            yield name, args
            continue
        for workers in (1, 2, 3) if name in ODD_WORKERS else (1, 2):
            yield name, f"{args} --workers {workers}"


def output(args: str) -> str:
    """The text ``nupolar <args>`` writes to stdout; a simulation runs at one
    worker unless ``args`` give ``--workers``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(args.split())
    if status:
        raise RuntimeError(f"nupolar {args} exited with status {status}")
    return out.getvalue()


def main(argv=None) -> int:
    # Any argument is a mistake, and rewrites nothing.
    extra = sys.argv[1:] if argv is None else argv
    if extra:
        print(f"golden.py takes no arguments, got {' '.join(extra)}", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for name, args in RUNS.items():
        path = GOLDEN / name
        old = path.read_text() if path.exists() else ""
        new = output(args)
        sys.stdout.writelines(difflib.unified_diff(old.splitlines(True), new.splitlines(True),
                                                   f"old/{name}", f"new/{name}"))
        path.write_text(new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
