"""Rate matching between mother codewords (length N) and transmitted frames.

One map serves both directions: ``spec.tx_positions`` holds the mother
position of each transmitted symbol, in transmit order (the kept positions
ascending, then the repeated ones).  A shortened position is never sent:
its bit is structurally zero, and the receiver re-inserts it with the
saturated known-zero LLR.  A repeated position is sent twice, and the
receiver adds the two observations.  Both transforms accept a single frame
or a batch with a leading dimension.  When the kept positions are a
prefix (NAT_PD shortening, extension, mother codes), :func:`dematch`
copies and fills slices instead of gathering columns.  The harness has
:func:`dematch` write into the point's buffers that ``run_point``
allocates, which every work unit of the point overwrites; the decoders
only read those frames.
"""

from __future__ import annotations

import numpy as np

from .codec import cast_llrs
from .construction import CodeSpec
from .numerics import KNOWN_ZERO_LLR


class InvalidSpecError(ValueError):
    """The frame contradicts the code spec (a construction bug signal)."""


def tx_frame(spec: CodeSpec, codeword) -> np.ndarray:
    """Rate-match a mother codeword to the transmitted length M.

    The shortened bits must all be zero.  ``encode`` output always is, since
    :class:`CodeSpec` freezes every source position covering a shortened
    one; the check is for codewords that come from elsewhere.
    """
    cw = np.asarray(codeword, dtype=np.uint8)
    if cw.shape[-1] != spec.mother_len:
        raise ValueError(f"codeword length must be N = {spec.mother_len}")
    if spec.pattern.kind == "shorten" and np.any(cw[..., spec.pattern.indices]):
        raise InvalidSpecError("shortened codeword positions carry nonzero bits")
    return cw[..., spec.tx_positions]


def dematch(spec: CodeSpec, rx_llr, out=None) -> np.ndarray:
    """Inverse of :func:`tx_frame` on LLRs.

    Positions never sent get the known-zero LLR; the observations of a
    repeated position are added, in float64.  The frames are written
    straight into ``out`` when it is given (a float array of the frames'
    shape, as the harness reuses one ``codec.LLR_DTYPE`` array for every
    work unit of a point), else into a new float64 array; either way the
    result is returned.  Into a narrower ``out`` each frame is the float64
    result cast by ``codec.cast_llrs``, bit for bit, so a finite LLR stays
    finite.  When the kept positions are a prefix ``0..n-1``, the first
    ``n`` columns are one slice copy and the rest one fill; otherwise
    (RQUP, CW) each column is gathered from its first observation.
    """
    rx = np.asarray(rx_llr, dtype=np.float64)
    if rx.shape[-1] != spec.tx_len:
        raise ValueError(f"received length must be M = {spec.tx_len}")
    N, pos = spec.mother_len, spec.tx_positions
    first = pos[:N]
    n = len(first)
    if out is None:
        out = np.empty(rx.shape[:-1] + (N,))
    if first[-1] == n - 1:  # ascending, so the kept positions are 0..n-1
        cast_llrs(rx[..., :n], out[..., :n])
        out[..., n:] = KNOWN_ZERO_LLR
        if len(pos) > N:  # an extension: it keeps all N, so position p's first observation is column p
            rep = pos[N:]
            out[..., rep] = cast_llrs(rx[..., rep] + rx[..., N:], np.empty(rx[..., N:].shape, out.dtype))
    else:
        source = np.full(N, -1)
        source[first] = np.arange(n)
        # Gather in out's dtype: np.take into an out of another dtype first
        # casts out's old contents, whose bits may be a signalling NaN.
        if out.dtype != rx.dtype:
            rx = cast_llrs(rx, np.empty(rx.shape, out.dtype))
        # "clip" has the positions never sent (-1) read column 0 until they
        # are overwritten, and unlike the default "raise" it writes into
        # ``out`` without a buffer.
        np.take(rx, source, axis=-1, out=out, mode="clip")
        out[..., source < 0] = KNOWN_ZERO_LLR
    return out
