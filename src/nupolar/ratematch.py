"""Rate matching between mother codewords (length N) and transmitted frames.

One map serves both directions: ``spec.tx_positions`` holds the mother
position of each transmitted symbol, in transmit order (the kept positions
ascending, then the repeated ones).  A shortened position is never sent:
its bit is structurally zero, and the receiver re-inserts it with the
saturated known-zero LLR.  A repeated position is sent twice, and the
receiver adds the two observations.  Both transforms accept a single frame
or a batch with a leading dimension.
"""

from __future__ import annotations

import numpy as np

from .construction import CodeSpec
from .numerics import KNOWN_ZERO_LLR


class InvalidSpecError(ValueError):
    """The frame contradicts the code spec (a construction bug signal)."""


def tx_frame(spec: CodeSpec, codeword) -> np.ndarray:
    """Rate-match a mother codeword to the transmitted length M.

    The shortened bits must all be zero; a nonzero bit means the frozen set
    does not cover the pattern and the spec is invalid.
    """
    cw = np.asarray(codeword, dtype=np.uint8)
    if cw.shape[-1] != spec.mother_len:
        raise ValueError(f"codeword length must be N = {spec.mother_len}")
    if spec.pattern.kind == "shorten" and np.any(cw[..., spec.pattern.indices]):
        raise InvalidSpecError("shortened codeword positions carry nonzero bits")
    return cw[..., spec.tx_positions]


def dematch(spec: CodeSpec, rx_llr) -> np.ndarray:
    """Inverse of :func:`tx_frame` on LLRs.

    Positions never sent get the known-zero LLR; the observations of a
    repeated position are added.
    """
    rx = np.asarray(rx_llr, dtype=np.float64)
    if rx.shape[-1] != spec.tx_len:
        raise ValueError(f"received length must be M = {spec.tx_len}")
    N, pos = spec.mother_len, spec.tx_positions
    out = np.full(rx.shape[:-1] + (N,), KNOWN_ZERO_LLR)
    out[..., pos[:N]] = rx[..., :N]
    out[..., pos[N:]] += rx[..., N:]
    return out
