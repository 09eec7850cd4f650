"""Golden CSVs: the bytes ``nupolar simulate`` writes at one worker for each
configuration CI runs at several worker counts.  They live under
``tests/golden/``, one ``<name>.csv`` per entry of ``RUNS``, and
``test_golden.py`` compares them byte for byte.

After a declared output change, regenerate them with

    PYTHONPATH=src python3 tests/golden_csv.py

which rewrites every file and prints the CSV rows that moved."""

import contextlib
import difflib
import io
import sys
from pathlib import Path

from nupolar import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# The arguments of each CI configuration, as .github/workflows/tests.yml gives them.
RUNS = {
    "ext64-sc": "--N 64 --M 80 --K 40 --method NUPGA_extended --ebno-sweep 2,4 --max-frames 2048",
    "ext64-sc-unit-stop": "--N 64 --M 80 --K 40 --method NUPGA_extended --ebno-sweep 2,3 "
                          "--min-frame-errors 300 --max-frames 100000",
    "cascl128-l4": "--N 128 --K 60 --decoder CASCL --list-size 4 --crc-len 24 --ebno-sweep 1,3 --max-frames 1024",
    "scl64-pruned": "--N 64 --K 32 --decoder SCL --list-size 4 --scl-threshold 0.01 --ebno-sweep 1,3 "
                    "--max-frames 1024",
    "scl64-exact": "--N 64 --K 32 --decoder SCL --list-size 4 --rule exact --ebno-sweep 1,3 --max-frames 1024",
    "short512-sc": "--N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD --ebno-sweep 2,3 "
                   "--max-frames 1024",
    "short512-sc-unit-stop": "--N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD "
                             "--ebno-sweep 1.5,2 --min-frame-errors 300 --max-frames 8192",
    "short512-sc-exact": "--N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD "
                         "--ebno-sweep 2,3 --rule exact --max-frames 1024",
    "short512-cascl16": "--N 512 --M 280 --K 128 --method NUPGA_shortened --pattern-method NAT_PD --decoder CASCL "
                        "--list-size 16 --crc-len 24 --ebno-sweep 1.5 --max-frames 512",
    "short256-scl-exact": "--N 256 --M 150 --K 64 --method NUPGA_shortened --pattern-method NAT_PD --decoder SCL "
                          "--list-size 4 --rule exact --ebno-sweep 1,3 --max-frames 1024",
    "rqup256-sc": "--N 256 --M 200 --K 100 --method NUPGA_shortened --pattern-method RQUP --ebno-sweep 2,3 "
                  "--max-frames 2000",
    "cw128-scl": "--N 128 --M 100 --K 50 --method NUPGA_shortened --pattern-method CW --decoder SCL "
                 "--list-size 4 --ebno-sweep 1,3 --max-frames 1000",
}


def simulate_csv(args: str) -> str:
    """The CSV text ``nupolar simulate <args>`` writes at one worker."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["simulate", *args.split(), "--workers", "1"])
    if status:
        raise RuntimeError(f"nupolar simulate {args} exited with status {status}")
    return out.getvalue()


def main() -> int:
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
