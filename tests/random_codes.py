"""Random codes and salted frames for the decoders' differential tests.

The frozen masks are ones no construction gives, so that every mix of node
kinds occurs, a Rate-0 right child beside a walked left one too.  The
codes are mother codes; shortened codes (every pattern method), whose mask
freezes the pattern (closed upward, so that is every position covering a
shortened one), with frames known-zero on the shortened positions and, in
a second batch, a finite LLR in the dead suffix, which keeps the full
width; and extended codes (the ``tail`` and ``weak_info`` rules and a
random ``RateMatchPattern``).  A tenth of the received values are replaced by
``EXTREME_LLRS``.
"""

import numpy as np

from nupolar.construction import (
    PATTERN_METHODS,
    CodeSpec,
    RateMatchPattern,
    build_extended_code,
    shortening_pattern,
)
from nupolar.ratematch import dematch

# Salt for frames: both certainties, exact zeros, finite magnitudes whose
# sums overflow to inf, and the smallest subnormal.
EXTREME_LLRS = [np.inf, -np.inf, 0.0, 1e308, -1e308, 1.7e308, -1.7e308, 5e-324, -5e-324]


def random_cases(rng, mother_rounds: int = 8, matched_rounds: int = 6, batch: int = 16):
    """``(spec, frames)`` pairs, ``batch`` frames each: ``mother_rounds``
    mother codes at each N in {2, ..., 32}, then ``matched_rounds`` rounds
    at each N in {4, ..., 64} of two batches per shortening method and one
    code per extension rule."""

    def salt(frames):
        return np.where(rng.random(frames.shape) < 0.1, rng.choice(EXTREME_LLRS, frames.shape), frames)

    def random_mask(N, pattern, M):
        frozen = rng.random(N) < rng.random()
        if pattern.kind == "shorten":
            frozen[pattern.indices] = True
        return CodeSpec(N, int(N - frozen.sum()), M, frozen, pattern)

    cases = []
    for N in (2, 4, 8, 16, 32) * mother_rounds:
        cases.append((random_mask(N, RateMatchPattern(), N), salt(rng.normal(1.0, 2.0, (batch, N)))))
    for N in (4, 8, 16, 32, 64) * matched_rounds:
        for method in PATTERN_METHODS:
            M = int(rng.integers(N // 2 + 1, N))
            spec = random_mask(N, shortening_pattern(method, N, M), M)
            frames = dematch(spec, salt(rng.normal(1.0, 2.0, (batch, M))))
            assert np.isposinf(frames[:, -1]).all()
            fallback = frames.copy()
            fallback[:, -1] = rng.normal(0.0, 2.0, batch)
            cases += [(spec, frames), (spec, fallback)]
        delta = int(rng.integers(1, N // 2))
        explicit = RateMatchPattern("extend", np.sort(rng.choice(N, delta, replace=False)))
        for repeat in ("tail", "weak_info", explicit):
            K = int(rng.integers(delta, N + 1))  # drawn for each rule, used by the named ones
            pattern = explicit if repeat is explicit else build_extended_code(N, delta, K, repeat=repeat).pattern
            spec = random_mask(N, pattern, N + delta)
            # Salted after dematch, which would add opposite infinities.
            cases.append((spec, salt(dematch(spec, rng.normal(1.0, 2.0, (batch, N + delta))))))
    return cases
