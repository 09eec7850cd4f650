"""Frozen-mask digests over the builder grid: one line per code, the call
that builds it and a digest of what it gives, in ``tests/digest_grid.txt``.

The grid calls the four public builders at every
N in {64, 512, 1024, 4096}, design SNR in {-2, 0, 2, 5} dB, both g-modes
and K in {N/4, N/2}:

* ``build_shortened_code`` for each pattern at M in {N/2 + 1, 5N/8, 7N/8, N},
  with and without re-polarization (M = N gives the mother code);
* ``build_extended_code`` with ``tail`` and ``weak_info`` at
  delta_M in {1, N/8, N/2 - 1};
* ``build_mother_code`` and ``build_bec_code``.

That is 2048 codes, of which 211 raise ``ConstructionError``.  A line's
digest is the first 16 hex digits of the SHA-256 of the spec's
``to_json()`` (mask, pattern, tx length and every other field) or of the
error's text, after ``spec`` or ``ConstructionError``.
``test_digest_grid.py`` rebuilds the grid, one N at a time, and compares.
``tests/golden.py`` writes the file with the golden files: each line names
one code, so its diff lists the codes that moved."""

import hashlib

from nupolar.construction import (
    PATTERN_METHODS,
    REPEAT_RULES,
    ConstructionError,
    build_bec_code,
    build_extended_code,
    build_mother_code,
    build_shortened_code,
)

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
