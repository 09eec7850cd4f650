"""Polar encoding and SC / SCL / CRC-aided SCL decoding in the LLR domain.

Bits are numpy ``uint8`` arrays; LLRs are ``float64`` with the convention
that positive values favour bit 0.  ``numerics.KNOWN_ZERO_LLR`` (+inf)
marks a position whose transmitted bit is known to be zero; both node
update rules absorb it without ever producing NaN.

The decoders are batched: every entry point accepts a single frame
``(N,)`` or a batch ``(B, N)`` and decides each frame independently, which
is what makes large Monte-Carlo runs affordable in pure numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import CodeSpec


@dataclass
class CrcConfig:
    """Cyclic-redundancy-check parameters.

    ``poly`` holds the generator polynomial without its leading term.  With
    ``msb_first`` (default) the payload is divided high-order bit first and
    the checksum is appended high-order bit first; otherwise both are
    reflected.
    """

    poly: int = 0x864CFB
    width: int = 24
    init: int = 0
    msb_first: bool = True


CRC24 = CrcConfig()


@dataclass
class DecodeResult:
    """One decoded candidate.

    ``message`` carries all K information bits (including CRC bits when a
    CRC is in use).  ``path_metric`` is the accumulated LLR-domain penalty;
    smaller is more likely.  ``crc_ok`` is set only by the CRC-aided
    decoder, and ``list_rank`` is the candidate's position in the
    metric-sorted list (0 = best).
    """

    message: np.ndarray
    path_metric: float
    crc_ok: bool | None = None
    list_rank: int | None = None


# ---------------------------------------------------------------------------
# encoding


def encode(spec: CodeSpec, msg) -> np.ndarray:
    """Map K message bits to the length-N mother codeword.

    The source block carries ``msg`` at the information positions in
    ascending index order and zeros elsewhere; the transform is the
    in-place XOR butterfly equivalent to multiplying by the n-fold
    Kronecker power of [[1,0],[1,1]] (no bit reversal).  Accepts a single
    message ``(K,)`` or a batch ``(B, K)``.
    """
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.shape[-1] != spec.payload_len:
        raise ValueError(f"message length {msg.shape[-1]} != K = {spec.payload_len}")
    N = spec.mother_len
    x = np.zeros(msg.shape[:-1] + (N,), dtype=np.uint8)
    x[..., spec.info_positions] = msg
    d = 1
    while d < N:
        pairs = x.reshape(msg.shape[:-1] + (-1, 2, d))
        pairs[..., 0, :] ^= pairs[..., 1, :]
        d *= 2
    return x


# ---------------------------------------------------------------------------
# node updates


def f_minsum(a, b):
    """Check-node update, min-sum rule: sign(a) sign(b) min(|a|, |b|)."""
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def f_exact(a, b):
    """Check-node update, exact rule 2 atanh(tanh(a/2) tanh(b/2)).

    Computed in the log domain (min-sum plus Jacobian correction), which
    stays finite and NaN-free for saturated inputs.
    """
    aa = np.abs(a)
    ab = np.abs(b)
    sign = np.sign(a) * np.sign(b)
    total = aa + ab
    with np.errstate(invalid="ignore"):
        diff = np.where(np.isinf(aa) & np.isinf(ab), np.inf, np.abs(aa - ab))
    corr = np.log1p(np.exp(-total)) - np.log1p(np.exp(-diff))
    return sign * (np.minimum(aa, ab) + corr)


def g_node(a, b, u_sum):
    """Variable-node update b + (-1)^u_sum * a.

    Opposite saturated certainties would meet as inf - inf; that
    contradiction is resolved to an erasure (LLR 0).
    """
    with np.errstate(invalid="ignore"):
        out = b + (1.0 - 2.0 * u_sum.astype(np.float64)) * a
    return np.where(np.isnan(out), 0.0, out)


def _bit_penalty(lam, bits):
    # Exact LLR-domain path-metric increment ln(1 + exp(-(1-2u) lambda)).
    return np.logaddexp(0.0, np.where(bits.astype(bool), lam, -lam))


def _check_frames(spec: CodeSpec, frames) -> tuple[np.ndarray, bool]:
    llr = np.asarray(frames, dtype=np.float64)
    single = llr.ndim == 1
    if single:
        llr = llr[None, :]
    if llr.ndim != 2 or llr.shape[1] != spec.mother_len:
        raise ValueError(f"LLR frame length must be N = {spec.mother_len}")
    if np.isnan(llr).any():
        raise ValueError("LLR frame contains NaN")
    return llr, single


# ---------------------------------------------------------------------------
# successive cancellation


def sc_decode_batch(spec: CodeSpec, frames, rule: str = "minsum"):
    """SC-decode a batch of LLR frames.

    Returns ``(messages, metrics)`` where ``messages`` is ``(B, K)`` and
    ``metrics`` the accumulated path penalties ``(B,)``.
    """
    llr, _ = _check_frames(spec, frames)
    f = {"minsum": f_minsum, "exact": f_exact}[rule]
    frozen = spec.frozen_mask
    B, N = llr.shape
    u = np.zeros((B, N), dtype=np.uint8)
    pm = np.zeros(B)

    # Adjacent channel positions polarize together (the tree dual to the
    # natural-order construction butterfly): the even/odd F combine yields
    # observations of the encoded even-lattice source bits.
    def rec(node_llr, offset, stride):
        if node_llr.shape[1] == 1:
            lam = node_llr[:, 0]
            bits = np.zeros(B, dtype=np.uint8) if frozen[offset] else (lam < 0).astype(np.uint8)
            np.add(pm, _bit_penalty(lam, bits), out=pm)
            u[:, offset] = bits
            return bits[:, None]
        a = node_llr[:, 0::2]
        b = node_llr[:, 1::2]
        x_left = rec(f(a, b), offset, 2 * stride)
        x_right = rec(g_node(a, b, x_left), offset + stride, 2 * stride)
        out = np.empty_like(node_llr, dtype=np.uint8)
        out[:, 0::2] = x_left ^ x_right
        out[:, 1::2] = x_right
        return out

    rec(llr, 0, 1)
    return u[:, spec.info_positions], pm


def sc_decode(spec: CodeSpec, frame, rule: str = "minsum") -> DecodeResult:
    """Successive-cancellation decoding of one LLR frame.

    Frozen positions decode as 0; an LLR of exactly 0 resolves to bit 0.
    ``rule`` selects the check-node update: ``"minsum"`` (default) or
    ``"exact"``.
    """
    llr, single = _check_frames(spec, frame)
    if not single:
        raise ValueError("sc_decode takes a single frame; use sc_decode_batch")
    msgs, pm = sc_decode_batch(spec, llr, rule)
    return DecodeResult(message=msgs[0], path_metric=float(pm[0]))


# ---------------------------------------------------------------------------
# successive cancellation list


class _ListDecoder:
    """Path-managed SCL over a batch of frames.

    Keeps ``L`` path slots per frame; dead slots carry an infinite metric.
    Paths are copied lazily (Tal & Vardy): each information leaf records
    its decided bits and ``src``, the slot each surviving path forked from,
    and the messages are rebuilt once at the end by tracing these
    backpointers from the final metric order.  ``origin`` maps the current
    path slots to the slot order at the entry of the innermost active tree
    node, so ancestors can re-align the arrays they captured before their
    children duplicated and re-ranked the paths.  Frozen leaves keep the
    slot order; ``origin`` is then the shared ``identity`` array, and
    re-alignment against it is skipped.
    """

    def __init__(self, spec: CodeSpec, L: int, threshold: float, rule: str):
        if L < 1:
            raise ValueError("list size must be at least 1")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("pruning threshold must lie in [0, 1]")
        self.frozen = spec.frozen_mask
        # Message column of each information position (ascending order).
        self.column = np.cumsum(~self.frozen) - 1
        self.L = int(L)
        self.log_thr = None if threshold == 0.0 else -float(np.log(threshold))
        self.f = {"minsum": f_minsum, "exact": f_exact}[rule]

    def decode(self, llr):
        B, N = llr.shape
        L = self.L
        self.rows = np.arange(B)[:, None]
        self.identity = np.broadcast_to(np.arange(L), (B, L))
        self.origin = self.identity
        self.pm = np.full((B, L), np.inf)
        self.pm[:, 0] = 0.0
        self.trail = []
        self._rec(np.broadcast_to(llr[:, None, :], (B, L, N)), 0, 1)
        order = np.argsort(self.pm, axis=1, kind="stable")
        msgs = np.empty((B, L, len(self.trail)), dtype=np.uint8)
        slot = order
        for column, bits, src in reversed(self.trail):
            msgs[:, :, column] = bits[self.rows, slot]
            slot = src[self.rows, slot]
        return msgs, self.pm[self.rows, order]

    def _align(self, x, to):
        return x if to is self.identity else x[self.rows, to]

    def _rec(self, llr, offset, stride):
        if llr.shape[2] == 1:
            return self._leaf(llr[:, :, 0], offset)[:, :, None]
        a = llr[..., 0::2]
        b = llr[..., 1::2]
        x_left = self._rec(self.f(a, b), offset, 2 * stride)
        left_to_entry = self.origin
        a_cur = self._align(a, left_to_entry)
        b_cur = self._align(b, left_to_entry)
        x_right = self._rec(g_node(a_cur, b_cur, x_left), offset + stride, 2 * stride)
        right_to_left = self.origin
        x_left = self._align(x_left, right_to_left)
        if left_to_entry is not self.identity:
            self.origin = self._align(left_to_entry, right_to_left)
        out = np.empty(x_left.shape[:2] + (2 * x_left.shape[2],), dtype=np.uint8)
        out[:, :, 0::2] = x_left ^ x_right
        out[:, :, 1::2] = x_right
        return out

    def _leaf(self, lam, pos):
        """Decide position ``pos`` on every path; returns the bits ``(B, L)``."""
        L = self.L
        if self.frozen[pos]:
            self.pm = self.pm + np.logaddexp(0.0, -lam)
            self.origin = self.identity
            bits = np.zeros(lam.shape, dtype=np.uint8)
        else:
            cand = np.concatenate(
                [self.pm + np.logaddexp(0.0, -lam), self.pm + np.logaddexp(0.0, lam)], axis=1
            )
            keep = np.argsort(cand, axis=1, kind="stable")[:, :L]
            src = keep % L
            bits = (keep >= L).astype(np.uint8)
            self.pm = cand[self.rows, keep]
            self.trail.append((self.column[pos], bits, src))
            self.origin = src
        if self.log_thr is not None:
            best = self.pm.min(axis=1, keepdims=True)
            self.pm = np.where(self.pm > best + self.log_thr, np.inf, self.pm)
        return bits


def scl_decode_batch(spec: CodeSpec, frames, L: int, threshold: float = 0.0, rule: str = "minsum"):
    """List-decode a batch of frames.

    Returns ``(messages, metrics)`` with shapes ``(B, L, K)`` and
    ``(B, L)``, sorted best metric first within each frame; never-used or
    pruned path slots carry an infinite metric.
    """
    llr, _ = _check_frames(spec, frames)
    return _ListDecoder(spec, L, threshold, rule).decode(llr)


def scl_decode(spec: CodeSpec, frame, L: int, threshold: float = 0.0, rule: str = "minsum"):
    """Successive-cancellation list decoding of one frame.

    At every information bit each path forks on both hypotheses and the L
    best metrics survive; ``threshold`` in (0, 1] additionally drops paths
    whose probability falls below ``threshold`` times the list maximum
    (0 disables).  Returns the surviving candidates as a list of
    :class:`DecodeResult`, best metric first.
    """
    llr, single = _check_frames(spec, frame)
    if not single:
        raise ValueError("scl_decode takes a single frame; use scl_decode_batch")
    msgs, pm = scl_decode_batch(spec, llr, L, threshold, rule)
    finite = np.isfinite(pm[0])
    if not finite.any():
        finite[0] = True
    return [
        DecodeResult(message=msgs[0, k], path_metric=float(pm[0, k]), list_rank=rank)
        for rank, k in enumerate(np.flatnonzero(finite))
    ]


# ---------------------------------------------------------------------------
# CRC plumbing


def _crc_remainder(bits, crc: CrcConfig):
    """Bit-serial polynomial division; ``bits`` may carry leading batch dims."""
    bits = np.asarray(bits, dtype=np.int64)
    if not crc.msb_first:
        bits = bits[..., ::-1]
    mask = (1 << crc.width) - 1
    reg = np.full(bits.shape[:-1], crc.init & mask, dtype=np.int64)
    for j in range(bits.shape[-1]):
        feedback = ((reg >> (crc.width - 1)) & 1) ^ bits[..., j]
        reg = ((reg << 1) & mask) ^ (feedback * crc.poly)
    return reg


def _int_to_bits(value, width: int, msb_first: bool) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1) if msb_first else np.arange(width)
    return ((np.asarray(value)[..., None] >> shifts) & 1).astype(np.uint8)


def crc_append(payload, crc: CrcConfig = CRC24) -> np.ndarray:
    """Append the checksum of ``payload``, high-order bit first."""
    payload = np.asarray(payload, dtype=np.uint8)
    rem = _crc_remainder(payload, crc)
    return np.concatenate([payload, _int_to_bits(rem, crc.width, crc.msb_first)], axis=-1)


def crc_check(msg, crc: CrcConfig = CRC24):
    """True when the trailing checksum bits match the leading payload."""
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.shape[-1] <= crc.width:
        raise ValueError("message shorter than the checksum")
    rem = _crc_remainder(msg[..., : -crc.width], crc)
    expect = _int_to_bits(rem, crc.width, crc.msb_first)
    ok = np.all(msg[..., -crc.width :] == expect, axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


def crc24_append(payload) -> np.ndarray:
    return crc_append(payload, CRC24)


def crc24_check(msg):
    return crc_check(msg, CRC24)


# ---------------------------------------------------------------------------
# CRC-aided list decoding


def _crc_select(msgs, pm, crc: CrcConfig):
    """Per frame, the list rank of the best-metric candidate that passes
    the CRC (0 when none does) and whether it passes: ``(rank, crc_ok)``."""
    passes = crc_check(msgs, crc) & np.isfinite(pm)
    first_pass = np.argmax(passes, axis=1)
    crc_ok = passes[np.arange(len(passes)), first_pass]
    return np.where(crc_ok, first_pass, 0), crc_ok


def ca_scl_decode_batch(
    spec: CodeSpec,
    frames,
    L: int,
    crc: CrcConfig = CRC24,
    threshold: float = 0.0,
    rule: str = "minsum",
):
    """CRC-aided list decoding of a batch of frames.

    Returns ``(messages, crc_ok, list_rank)``: per frame the best-metric
    candidate that passes the CRC, or the overall best-metric candidate
    with ``crc_ok = False`` when none does.
    """
    msgs, pm = scl_decode_batch(spec, frames, L, threshold, rule)
    rank, crc_ok = _crc_select(msgs, pm, crc)
    return msgs[np.arange(len(rank)), rank], crc_ok, rank


def ca_scl_decode(
    spec: CodeSpec,
    frame,
    L: int,
    crc: CrcConfig = CRC24,
    threshold: float = 0.0,
    rule: str = "minsum",
) -> DecodeResult:
    """List decoding returning the best candidate that passes the CRC.

    Falls back to the best-metric candidate with ``crc_ok = False`` when
    no list entry passes.  ``message`` still includes the CRC bits.
    """
    llr, single = _check_frames(spec, frame)
    if not single:
        raise ValueError("ca_scl_decode takes a single frame; use ca_scl_decode_batch")
    msgs, pm = scl_decode_batch(spec, llr, L, threshold, rule)
    rank, crc_ok = _crc_select(msgs, pm, crc)
    k = int(rank[0])
    return DecodeResult(
        message=msgs[0, k], path_metric=float(pm[0, k]), crc_ok=bool(crc_ok[0]), list_rank=k
    )
