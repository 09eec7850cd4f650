"""Pinned outputs: the bytes ``nupolar`` writes for the codes it builds and
for the BER/FER its decoders measure, and the frozen-mask digests of the
builder grid.  This module defines them all; ``test_golden.py`` checks them.

``tests/golden/`` holds one file per entry of ``RUNS``: ``<name>.json``,
the spec ``nupolar construct`` writes, and ``<name>.csv``, the CSV
``nupolar simulate`` writes at one worker.  ``test_golden.py`` compares the
output of every run ``comparisons`` yields with its file: every
construction once, every simulation at 1 and 2 workers, and
``ODD_WORKERS``, whose points stop after their work units shrank, at 3 as
well.  The CSV bytes cannot depend on the worker count or on the sizes of
the work units: counters are committed per batch, in batch order.

``tests/digest_grid.txt`` holds one line per code of the grid: the call
that builds it and a digest of what it gives.  The grid calls the four
public builders at every N in {64, 512, 1024, 4096}, design SNR in
{-2, 0, 2, 5} dB, both g-modes and K in {N/4, N/2}:

* ``build_shortened_code`` for each pattern at M in {N/2 + 1, 5N/8, 7N/8, N},
  with and without re-polarization (M = N gives the mother code);
* ``build_extended_code`` with ``tail`` and ``weak_info`` at
  delta_M in {1, N/8, N/2 - 1};
* ``build_mother_code`` and ``build_bec_code``.

That is 2048 codes, of which 211 raise ``ConstructionError``.  A line's
digest is the first 16 hex digits of the SHA-256 of the spec's
``to_json()`` (mask, pattern, tx length and every other field) or of the
error's text, after ``spec`` or ``ConstructionError``.

After a declared output change, regenerate every pinned file with

    PYTHONPATH=src python3 tests/golden.py

which takes no arguments, rewrites the files and prints a unified diff of
what moved: a spec holds one mask entry a line and the digest listing one
code a line, so the diff names the positions and the codes."""

import contextlib
import difflib
import hashlib
import io
import sys
from pathlib import Path

from nupolar import cli
from nupolar.construction import (
    PATTERN_METHODS,
    REPEAT_RULES,
    ConstructionError,
    build_bec_code,
    build_extended_code,
    build_mother_code,
    build_shortened_code,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = Path(__file__).resolve().parent / "digest_grid.txt"

# The ``nupolar`` arguments of each golden file.  The comments count frames
# in the work units ``run_point`` draws at one worker (``harness._unit_size``
# sizes them: full units while the error target is far, fewer batches as it
# nears).
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
    # 2 dB runs one 4-batch unit, then a unit shrunk to the one batch its
    # running FER predicts, and meets its error target there (frame 1280);
    # 3 dB at the end of the third 4-batch unit.  With more workers, the
    # units still in flight at the stop must be dropped.
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
    # Shortened SC in 4-batch units: 1.5 dB meets its error target at the
    # end of the first (frame 1024); 2 dB runs one, then a unit shrunk to 3
    # batches, and meets its target there (frame 1792).
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
    # on its error target; 3 dB runs all 1000 frames in one unit.
    "cw128-scl.csv": "simulate --N 128 --M 100 --K 50 --method NUPGA_shortened --pattern-method CW --decoder SCL "
                     "--list-size 4 --ebno-sweep 1,3 --max-frames 1000",
    # The same CW-shortened code with SC: its dead channel positions are
    # scattered, so the full-width walk runs, through 14 [information,
    # frozen] pairs.  1 dB stops on its error target, 3 dB at the frame cap.
    "cw128-sc.csv": "simulate --N 128 --M 100 --K 50 --method NUPGA_shortened --pattern-method CW "
                    "--ebno-sweep 1,3 --max-frames 1000",
}

# Simulations also compared at 3 workers, an odd worker count.
ODD_WORKERS = ("ext64-sc-unit-stop.csv", "short512-sc-unit-stop.csv")


def comparisons():
    """The ``(file, arguments)`` of each run whose output ``test_golden.py``
    compares with ``tests/golden/<file>``."""
    for name, args in RUNS.items():
        if args.startswith("construct"):
            yield name, args
            continue
        for workers in (1, 2, 3) if name in ODD_WORKERS else (1, 2):
            yield name, f"{args} --workers {workers}"


# The builder grid of ``tests/digest_grid.txt``.
LENGTHS = (64, 512, 1024, 4096)
DESIGN_SNRS_DB = (-2.0, 0.0, 2.0, 5.0)
G_MODES = ("sum", "product")


def codes(N: int):
    """The grid's builder calls at mother length ``N``, as ``(builder, args)``."""
    for snr in DESIGN_SNRS_DB:
        for g_mode in G_MODES:
            for K in (N // 4, N // 2):
                for pattern in PATTERN_METHODS:
                    for M in (N // 2 + 1, 5 * N // 8, 7 * N // 8, N):
                        for repolarize in (True, False):
                            yield build_shortened_code, (N, M, K, pattern, snr, g_mode, repolarize)
                for repeat in REPEAT_RULES:
                    for delta_M in (1, N // 8, N // 2 - 1):
                        yield build_extended_code, (N, delta_M, K, snr, g_mode, repeat)
                yield build_mother_code, (N, K, snr, g_mode)
                yield build_bec_code, (N, K, snr, g_mode)


def call(builder, args) -> str:
    """The builder call as source text."""
    return f"{builder.__name__}({', '.join(map(repr, args))})"


def line(builder, args) -> str:
    """The call and the digest of what it builds, or of the error it raises."""
    try:
        text, kind = builder(*args).to_json(), "spec"
    except ConstructionError as err:
        text, kind = str(err), "ConstructionError"
    return f"{call(builder, args)}: {kind} {hashlib.sha256(text.encode()).hexdigest()[:16]}\n"


def lines(N: int) -> list:
    """The listing's lines for mother length ``N``, in grid order."""
    return [line(*code) for code in codes(N)]


def output(args: str) -> str:
    """The text ``nupolar <args>`` writes to stdout; a simulation runs at one
    worker unless ``args`` give ``--workers``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(args.split())
    if status:
        raise RuntimeError(f"nupolar {args} exited with status {status}")
    return out.getvalue()


def moved(old: str, new: str, name: str) -> str:
    """A unified diff, without context, of a pinned file's old and new text."""
    return "".join(difflib.unified_diff(old.splitlines(True), new.splitlines(True),
                                        f"old/{name}", f"new/{name}", n=0))


def main(argv=None) -> int:
    # Any argument is a mistake, and rewrites nothing.
    extra = sys.argv[1:] if argv is None else argv
    if extra:
        print(f"golden.py takes no arguments, got {' '.join(extra)}", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    pinned = {GOLDEN / name: output(args) for name, args in RUNS.items()}
    pinned[DIGESTS] = "".join(entry for N in LENGTHS for entry in lines(N))
    for path, new in pinned.items():
        sys.stdout.write(moved(path.read_text() if path.exists() else "", new, path.name))
        path.write_text(new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
