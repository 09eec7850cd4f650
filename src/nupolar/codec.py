"""Polar encoding and SC / SCL / CRC-aided SCL decoding in the LLR domain.

Bits are numpy ``uint8`` arrays; LLRs are floats with the convention
that positive values favour bit 0.  ``numerics.KNOWN_ZERO_LLR`` (+inf)
marks a position whose transmitted bit is known to be zero; both node
update rules absorb it without ever producing NaN.  The walk holds its
LLRs as ``LLR_DTYPE`` (float32), half the bytes of float64: min-sum's ``f``
is exact in any float format, so precision enters only through the
rounding of the channel LLRs and of ``g``'s sums.  Path metrics stay
float64.  Frames of another dtype are cast once by :func:`cast_llrs`,
which keeps a finite LLR finite.

There is one decoder API, and it is batched: ``sc_decode_batch``,
``scl_decode_batch`` and ``ca_scl_decode_batch`` take frames ``(B, N)``
and decide each frame independently, which is what makes large
Monte-Carlo runs affordable in pure numpy.  A single frame ``(N,)`` is a
batch of one, and its results are row 0 of each output.  One tree
walk serves SC, SCL and CRC-aided SCL: the list decoder folds its ``L``
path slots into the rows of each node array, and SC is its ``L = 1`` case,
where an information leaf takes the hard decision ``lambda < 0`` and the
arrays are plain ``(B, n)``.  ``sc_decode_batch`` keeps no path metric,
which lets the walk decode Rate-0, REP, Rate-1 and [information, frozen]
pair subtrees without descending; ``scl_decode_batch(spec, frames, 1)``
is SC with its metric.  Each of the three builds its walk per call;
``message_decoder`` builds one for any number of batches and returns the
message each of them picks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import CodeSpec, _butterfly, _integer, _real
from .numerics import KNOWN_ZERO_LLR


@dataclass
class CrcConfig:
    """Cyclic-redundancy-check parameters: the generator polynomial ``poly``
    without its leading term, of degree ``width``.  The register starts at
    0, the payload is divided high-order bit first and the checksum is
    appended high-order bit first.  The default is CRC-24 (0x864CFB), the
    only CRC the harness uses.  Raises ``ValueError`` unless ``width`` is a
    whole number in [1, 63], which the ``int64`` register holds, and
    ``poly`` one in [0, 2^width).
    """

    poly: int = 0x864CFB
    width: int = 24

    def __post_init__(self):
        if not 1 <= _integer(self.width, "CRC width") <= 63:
            raise ValueError(f"CRC width must be a whole number in [1, 63], got {self.width!r}")
        if not 0 <= _integer(self.poly, "CRC polynomial") < 1 << self.width:
            raise ValueError(f"CRC polynomial must be a whole number in [0, 2^{self.width}), got {self.poly!r}")


CRC24 = CrcConfig()

# The dtype of the decoder walk's LLRs.
LLR_DTYPE = np.float32


def cast_llrs(src, out):
    """Write the LLRs ``src`` into the float array ``out`` of their shape, cast
    to its dtype, and return ``out``.  A finite LLR beyond that dtype's range
    becomes its largest finite value of the same sign, never +-inf: +inf is
    the known-zero marker and ``inf - inf`` an erasure.  +-inf and NaN are
    kept, and a magnitude too small for the dtype rounds to a zero of its
    sign."""
    with np.errstate(over="ignore"):  # the overflows are mended below
        np.copyto(out, src, casting="same_kind")
    top = np.finfo(out.dtype).max
    if top < np.finfo(src.dtype).max:  # else no finite value overflows
        over = np.isinf(out)
        if over.any():
            over &= np.isfinite(src)
            out[over] = np.copysign(top, src[over])
    return out


# ---------------------------------------------------------------------------
# encoding


def _xor(a, b):
    # The polar transform's pair, in place on a: the driver's write-back of a
    # onto itself then copies nothing, as numpy skips a same-memory copy.
    return np.bitwise_xor(a, b, out=a), b


def encode(spec: CodeSpec, msg) -> np.ndarray:
    """Map K message bits to the length-N mother codeword.

    The source block carries ``msg`` at the information positions in
    ascending index order and zeros elsewhere; :func:`_butterfly` with the
    :func:`_xor` pair maps it to the codeword, N on axis 0 so that each XOR
    runs over whole frames.  Accepts a single message ``(K,)`` or a batch
    with leading dimensions such as ``(B, K)``.
    """
    msg = np.asarray(msg)
    if not np.all((msg == 0) | (msg == 1)):
        raise ValueError("message bits must each be 0 or 1")
    if msg.shape[-1] != spec.payload_len:
        raise ValueError(f"message length {msg.shape[-1]} != K = {spec.payload_len}")
    x = np.zeros((spec.mother_len,) + msg.shape[:-1], dtype=np.uint8)
    x[spec.info_positions] = np.moveaxis(msg, -1, 0)
    return np.moveaxis(_butterfly(x, _xor), 0, -1)


# ---------------------------------------------------------------------------
# node updates


def f_minsum(a, b):
    """Check-node update, min-sum rule: sign(a) sign(b) min(|a|, |b|).

    The signs scale the minimum in place.  Each product is exact, and the
    minimum is 0 wherever a sign is 0, so the order of the factors does not
    change a bit, the sign of zero included.
    """
    out = np.abs(a)
    try:
        np.minimum(out, np.abs(b), out=out)
    except (TypeError, ValueError):  # numpy scalars from 0-d inputs, or b broadcast wider than a
        out = np.minimum(out, np.abs(b))
    out *= np.sign(a)
    out *= np.sign(b)
    return out


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


# Check-node update of each decoding ``rule``.
RULES = {"minsum": f_minsum, "exact": f_exact}


def _g(a, b, u_sum):
    """Variable-node update ``b + (-1)^u_sum * a``, in place on the sign
    ``1 - 2 u_sum``.  Opposite saturated certainties would meet as
    ``inf - inf``; that contradiction resolves to an erasure (LLR 0).

    The output has the shape of the array ``u_sum``, and ``a`` and ``b``
    broadcast to it: the walk passes a frame's one row, ``(B, 1, n/2)``,
    against the ``(B, L, n/2)`` partial codewords of its ``L`` paths.
    ``u_sum=None`` stands for all zeros, where the update is ``b + a`` on
    arrays of one shape.  The output takes ``a``'s dtype.  The caller
    ignores invalid and overflowing floating-point operations, as the
    walk's ``np.errstate`` does."""
    if u_sum is None:
        out = b + a
    else:
        out = u_sum.astype(a.dtype)
        out *= -2.0
        out += 1.0
        out *= a
        out += b
    out[np.isnan(out)] = 0.0
    return out


def _penalties(lam):
    """Metric penalties ``logaddexp(0, -lam)`` and ``logaddexp(0, lam)`` of
    bits 0 and 1, bit for bit, from one ``logaddexp``.

    numpy's ``logaddexp(x, y)`` is ``x + log(2)`` when ``x == y`` and else
    ``max(x, y) + log1p(exp(-|x - y|))``.  So with ``t = logaddexp(0, -|lam|)``
    the decision that ``lam`` favours costs ``t`` and the other one
    ``|lam| + t``; at ``lam = 0`` both are ``log(2)``.
    """
    mag = np.abs(lam)
    t = np.logaddexp(0.0, -mag)
    other = mag + t
    neg = lam < 0
    return np.where(neg, other, t), np.where(neg, t, other)


def _check_frames(spec: CodeSpec, frames) -> np.ndarray:
    """``frames`` as an ``LLR_DTYPE`` ``(B, N)`` batch; a single ``(N,)`` frame
    is a batch of one.  ``LLR_DTYPE`` frames pass through uncopied, since the
    walk only reads them; any other input is cast once, through float64,
    by :func:`cast_llrs`."""
    llr = np.atleast_2d(np.asarray(frames))
    if llr.dtype != LLR_DTYPE:
        llr = cast_llrs(np.asarray(llr, dtype=np.float64), np.empty(llr.shape, LLR_DTYPE))
    if llr.ndim != 2 or llr.shape[1] != spec.mother_len:
        raise ValueError(f"LLR frame length must be N = {spec.mother_len}")
    if np.isnan(llr).any():
        raise ValueError("LLR frame contains NaN")
    return llr


# ---------------------------------------------------------------------------
# successive cancellation list; SC is the single-path case


def _combine(x_left, x_right) -> np.ndarray:
    """A node's codeword from its children's ``(rows, n)`` codewords, ``None``
    for an all-zero one: ``x_left ^ x_right`` at the even positions and
    ``x_right`` at the odd ones.  Each pair of bits is built as one
    little-endian ``uint16``, so that no step writes a strided view."""
    if x_right is None:
        return x_left.astype("<u2", order="C").view(np.uint8)
    out = x_right.astype("<u2", order="C")
    out *= 257  # the bit in both bytes
    if x_left is not None:
        out ^= x_left
    return out.view(np.uint8)


# Node kinds of the decoder walk (see :class:`_ListDecoder`).
RATE0, REP, RATE1, PAIR, OTHER = range(5)


def _node_kinds(frozen, rule: str, metric: bool) -> dict:
    """Per stride ``s``, the kind of the node at each offset, the subtree of
    positions ``offset::s``: all ``OTHER`` with the metric, else a leaf is Rate-0 or REP."""
    N = len(frozen)
    kinds = {}
    for s in (1 << k for k in range(N.bit_length())):
        sub = frozen.reshape(N // s, s)
        kind = np.full(s, OTHER)
        if not metric:
            if rule == "minsum":
                kind[~sub.any(axis=0)] = RATE1
            if len(sub) == 2:
                kind[~sub[0] & sub[1]] = PAIR
            kind[sub[:-1].all(axis=0)] = REP
            kind[sub.all(axis=0)] = RATE0
        kinds[s] = kind.tolist()
    return kinds


class _ListDecoder:
    """Path-managed SCL over a batch of B frames; SC is the case ``L = 1``.

    Keeps ``L`` path slots per frame; dead slots carry an infinite metric.
    Node arrays fold the slots into the rows: row ``L*i + s`` is slot ``s``
    of frame ``i``, so an array has ``B*L`` rows.  Above the first
    information leaf all slots of a frame hold the same values, and the
    arrays there keep one row per frame (``B`` rows) until a re-alignment
    spreads them over the slots; a ``g`` update against a ``B*L``-row left
    codeword broadcasts such rows over a ``(B, L, n/2)`` view instead.

    Memory: a node receives its input in a one-element list that it
    empties, so it alone holds the input, and releases it, with both
    halves, before its right child runs.  So while a node is walked, only
    the ancestors it descends from on their left side hold their inputs, at
    most one per level.  The peak is the root's right child re-aligning its
    ``B*L x N/2`` input (``B*L x live/2`` on the live-column walk below),
    which holds that input and its gathered copy.

    Live columns: when a shortened code's channel positions ``[live, N)``
    are all shortened (NAT_PD's, with ``live = M``) and every frame holds
    +inf there, :meth:`decode` walks the first ``live`` columns only.  A
    node's column ``j`` at stride ``s`` observes channel positions
    ``[j*s, (j+1)*s)``, so its arrays then hold ``ceil(live/s)`` columns.
    This is exact: :class:`CodeSpec` freezes every source position covering
    a shortened one, so a dead column's codeword is 0 on every path, and
    ``f(+inf, +inf)`` and ``g(+inf, +inf, 0)`` are +inf.  REP and Rate-1
    nodes hold no dead column, since the dead columns are a suffix and such
    a node's last codeword bit is an information bit.  A node with an odd
    live width pads once with +inf to its full width; an odd ``live`` keeps
    the full frame.  A node returns its codeword at the width it received,
    and :meth:`decode` fills the dead columns with 0.

    ``origin`` is the one record of the paths: it maps the current rows to
    the rows at the entry of the innermost active tree node, so ancestors
    can re-align the LLRs and partial sums they captured before their
    children duplicated and re-ranked the paths.  Frozen leaves keep the
    slot order; ``origin`` is then the shared ``identity`` array, and
    re-alignment against it is skipped.  Otherwise a node re-aligns its
    LLRs with one gather of whole rows and reads both halves off that.
    With one path an information leaf takes SC's hard decision, an LLR
    below 0 giving bit 1, and also keeps the slot order, so SC never
    re-aligns.  With more, it keeps the ``L`` best of its ``2L`` candidates
    in stable-sort order, ties going to the lower column: the stable sort
    where dead slots give ``inf`` candidates, else an unstable sort and a
    stable re-sort of just the rows where it meets a tie (:meth:`_top`).
    A frozen leaf whose LLR is known-zero (+inf) on every row adds nothing
    to the metric and skips its ``logaddexp``.  The messages are read off
    the root's codewords, in metric order, through the self-inverse polar
    transform of :func:`encode`, :func:`_butterfly` with the :func:`_xor` pair.

    One walk, :meth:`_rec`, serves both modes: each node, the subtree of
    positions ``offset::stride``, reads its kind from :func:`_node_kinds`.
    With ``metric`` every node is ``OTHER``: it splits into ``f`` and ``g``
    children down to the leaves, each decided by :meth:`_leaf`, since the
    metric needs every leaf's LLR.  Without it (SC only: the walk of
    :func:`sc_decode_batch`, which reads the messages alone) the decoder
    keeps no path metric, returns ``None`` for it and never reaches
    :meth:`_leaf` (``origin`` stays ``identity``), and the table marks four
    kinds of node that decode without descending, bit for bit as SC does:

    * Rate-0, all frozen: the codeword is all zeros (Alamdar-Yazdi &
      Kschischang 2011), and the parent does not compute the node's input;
    * REP, all frozen but the last (Sarkis et al. 2014), leaves included:
      every ``g`` is ``b + a``, so the node is a level-wise sum, NaN set to 0
      per level, and its codeword repeats the bit ``sum < 0``;
    * Rate-1, none frozen, min-sum only, with no LLR of 0: each ``f`` keeps
      the sign ``sign(a) sign(b)`` with a nonzero magnitude and each ``g``
      adds two nonzero values of one sign, so the codeword is ``llr < 0``.
      An LLR of 0 meets SC's tie rule on the source bits
      (``test_rate1_tie_is_not_the_hard_decision``), so the node is walked;
      under the exact rule, whose ``f`` can round to 0 or flip its sign on
      tiny inputs, every Rate-1 node is walked;
    * [information, frozen] pairs, width-2 nodes whose right leaf is frozen
      (shortening freezes many): the left leaf is REP, so the codeword is
      ``[u, 0]`` with ``u = f(a, b) < 0``, the walk's own ``f`` and decision
      without the recursion into the leaf and the ``_combine``.  An odd
      live width pads to the full two columns first, as every node does.

    SPC nodes are walked: their Wagner decision is not shown to equal SC's.
    """

    def __init__(self, spec: CodeSpec, L: int, threshold: float, rule: str, metric: bool = True):
        if _integer(L, "list size") < 1:
            raise ValueError(f"list size must be a whole number >= 1, got {L!r}")
        if not 0.0 <= _real(threshold, "pruning threshold") <= 1.0:
            raise ValueError("pruning threshold must lie in [0, 1]")
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}")
        self.frozen = spec.frozen_mask
        self.L = int(L)
        # A single path is never pruned.
        self.log_thr = None if threshold == 0.0 or L == 1 else -float(np.log(threshold))
        self.f = RULES[rule]
        self.metric = metric
        self.kinds = _node_kinds(self.frozen, rule, metric)
        # Channel positions [live, N) are all shortened: the longest dead suffix.
        self.live = int(spec.tx_positions.max()) + 1

    def decode(self, llr):
        B, L = len(llr), self.L
        N = len(self.frozen)
        # The live-column walk, on frames that hold known zeros on the whole
        # dead suffix.  An odd live width would pad straight back at the root.
        if self.live < N and self.live % 2 == 0 and np.isposinf(llr[:, self.live :]).all():
            llr = llr[:, : self.live]
        self.rows = np.arange(B)[:, None]
        self.identity = self.origin = np.arange(B * L)
        self.pm = None
        if self.metric:
            self.pm = np.full((B, L), np.inf)
            self.pm[:, 0] = 0.0
        # One error state for the walk, not one per node: inf - inf and overflow to inf are meant.
        with np.errstate(invalid="ignore", over="ignore"):
            x = self._rec([llr], 0, 1)
        order = self.identity if self.pm is None else (
            np.argsort(self.pm, axis=1, kind="stable") + L * self.rows).ravel()
        x = self._align(x, order)
        n = x.shape[1]
        u = np.empty((N, B, L), dtype=np.uint8)
        u[n:] = 0  # the dead columns' codeword bits
        # 64-row blocks stay in cache: 0.51 ms against 0.64 ms for a plain x.T at B*L x n = 4096 x 280,
        # 0.10 ms against 0.17 ms at 1024 x 320 (median of 30 on one pinned core of an x86-64 VM).
        for i in range(0, B * L, 64):
            u.reshape(N, B * L)[:n, i : i + 64] = x[i : i + 64].T
        msgs = _butterfly(u, _xor)[~self.frozen].transpose(1, 2, 0)
        return msgs, None if self.pm is None else self.pm.ravel()[order].reshape(B, L)

    def _align(self, x, to):
        if to is self.identity:
            return x
        if len(x) < len(to):  # one row per frame: the same for every slot
            return np.repeat(x, self.L, axis=0)
        return np.take(x, to, axis=0)

    def _rec(self, box, offset, stride):
        llr = box.pop()  # emptied, so that this node alone holds its input
        kind = self.kinds[stride][offset]
        if kind == RATE0:  # the root only: parents skip their Rate-0 children
            return np.zeros(llr.shape, dtype=np.uint8)
        if kind == REP:
            n = llr.shape[1]
            while llr.shape[1] > 1:
                llr = _g(llr[:, 0::2], llr[:, 1::2], None)
            return np.repeat(llr < 0, n, axis=1).view(np.uint8)
        if kind == RATE1 and llr.all():
            return (llr < 0).view(np.uint8)
        n = llr.shape[1]
        if n % 2:
            if n == 1:
                return self._leaf(llr[:, 0], offset)[:, None]
            # An odd number of live columns: pad them with known zeros to the
            # full width, once, and hand back the live columns' codeword.
            full = np.full((len(llr), len(self.frozen) // stride), KNOWN_ZERO_LLR, llr.dtype)
            full[:, :n] = llr
            del llr
            return self._rec([full], offset, stride)[:, :n]
        if kind == PAIR:  # each row's [f < 0, 0] as one little-endian uint16
            return (self.f(llr[:, 0::2], llr[:, 1::2]) < 0).astype("<u2").view(np.uint8)
        # Adjacent channel positions polarize together (the tree dual to the
        # natural-order construction butterfly): the even/odd F combine yields
        # observations of the encoded even-lattice source bits.
        child = self.kinds[2 * stride]
        x_left = x_right = None
        if child[offset] != RATE0:
            x_left = self._rec([self.f(llr[:, 0::2], llr[:, 1::2])], offset, 2 * stride)
        left_to_entry = self.origin
        if child[offset + stride] != RATE0:
            half = n // 2
            u = x_left
            if left_to_entry is not self.identity:
                if len(llr) < len(left_to_entry):
                    # One row per frame: g broadcasts it over the frame's slots.
                    llr = llr[:, None]
                    u = x_left.reshape(len(llr), self.L, half)
                else:
                    # One gather of whole rows: gathering the two strided
                    # halves separately is up to 13x slower on narrow nodes.
                    llr = np.take(llr, left_to_entry, axis=0)
            right = [_g(llr[..., 0::2], llr[..., 1::2], u).reshape(-1, half)]
            del llr  # only the right child holds its input while it runs
            x_right = self._rec(right, offset + stride, 2 * stride)
        right_to_left = self.origin
        x_left = self._align(x_left, right_to_left)
        if left_to_entry is not self.identity:
            self.origin = self._align(left_to_entry, right_to_left)
        return _combine(x_left, x_right)

    def _leaf(self, lam, pos):
        """Decide position ``pos`` on every row of ``lam``; returns the bits."""
        self.origin = self.identity
        B, L = self.pm.shape
        # Per frame: one LLR above the first information leaf, else one per
        # slot (sized explicitly, so that an empty batch reshapes too).
        per_frame = lam.reshape(B, L if len(lam) > B else 1)
        if self.frozen[pos]:
            bits = np.zeros(lam.shape, dtype=np.uint8)
            # A known-zero (+inf) LLR costs logaddexp(0, -inf) = 0.0, and
            # pm + 0.0 == pm bit for bit, since pm is never -0.0.
            if not np.isposinf(per_frame).all():
                self.pm += np.logaddexp(0.0, -per_frame)
        elif L == 1:
            # SC: an LLR of exactly 0 resolves to bit 0.  Where pm + |lam| rounds
            # to pm (pm = inf included), a stable top-1 would pick 0; SC does not.
            bits = (lam < 0).astype(np.uint8)
            self.pm += np.logaddexp(0.0, -np.abs(per_frame))
        else:
            zero, one = _penalties(per_frame)
            cand = np.concatenate([self.pm + zero, self.pm + one], axis=1)
            keep, self.pm = self._top(cand)
            is_one = keep >= L
            bits = is_one.astype(np.uint8).ravel()
            self.origin = (keep - L * is_one + L * self.rows).ravel()
        if self.log_thr is not None:
            best = self.pm.min(axis=1, keepdims=True)
            self.pm = np.where(self.pm > best + self.log_thr, np.inf, self.pm)
        return bits

    def _top(self, cand):
        """Per row of ``cand`` ``(B, 2L)``, the columns of the ``L`` smallest
        values and those values, in the order of a stable ``argsort``.

        Candidates of dead slots are ``inf`` and tie with each other.  When
        any candidate is ``inf`` the stable sort runs alone: on such rows it
        is faster than the unstable one.  Otherwise the unstable sort is 3x
        faster and orders the columns the same way unless two of the first
        ``L + 1`` sorted values are equal (signed zeros included); such rows
        are sorted again, stably.
        """
        L = self.L
        row_start = 2 * L * self.rows
        if np.isinf(cand).any():
            order = np.argsort(cand, axis=1, kind="stable")[:, :L]
            return order, np.take(cand, order + row_start)
        order = np.argsort(cand, axis=1)
        top = np.take(cand, order[:, : L + 1] + row_start)
        tied = (top[:, 1:] == top[:, :-1]).any(axis=1)
        if tied.any():
            order[tied] = np.argsort(cand[tied], axis=1, kind="stable")
            top[tied] = np.take(cand, order[tied, : L + 1] + row_start[tied])
        return order[:, :L], top[:, :L]


def sc_decode_batch(spec: CodeSpec, frames, rule: str = "minsum"):
    """SC-decode LLR frames ``(B, N)`` or one frame ``(N,)``.

    Frozen positions decode as 0; an LLR of exactly 0 resolves to bit 0.
    ``rule`` selects the check-node update: ``"minsum"`` (default) or
    ``"exact"``.  Returns ``(messages, None)`` with ``messages`` ``(B, K)``:
    the walk keeps no path metric, so it decodes Rate-0, REP, Rate-1 and
    [information, frozen] pair nodes without descending (see
    :class:`_ListDecoder`).  SC with its path metric, and the same
    messages, is ``scl_decode_batch(spec, frames, 1)``.
    """
    return message_decoder(spec, "SC", 1, 0.0, rule)(frames), None


def scl_decode_batch(spec: CodeSpec, frames, L: int, threshold: float = 0.0, rule: str = "minsum"):
    """List-decode LLR frames ``(B, N)`` or one frame ``(N,)``.

    At every information bit each path forks on both hypotheses and the L
    best metrics survive; ``threshold`` in (0, 1] additionally drops paths
    whose probability falls below ``threshold`` times the list maximum
    (0 disables).  Returns ``(messages, metrics)`` with shapes
    ``(B, L, K)`` and ``(B, L)``, sorted best metric first within each
    frame; never-used or pruned path slots carry an infinite metric.
    ``L = 1`` is SC decoding with its path metric: the messages of
    :func:`sc_decode_batch`, with the hard decision kept even where the
    metric absorbs both candidates' penalties (a stable choice would take 0).
    """
    return _ListDecoder(spec, L, threshold, rule).decode(_check_frames(spec, frames))


# ---------------------------------------------------------------------------
# CRC plumbing


def _crc_remainder(bits, crc: CrcConfig):
    """Bit-serial polynomial division; ``bits`` may carry leading batch dims."""
    bits = np.asarray(bits, dtype=np.int64)
    mask = (1 << crc.width) - 1
    reg = np.zeros(bits.shape[:-1], dtype=np.int64)
    for j in range(bits.shape[-1]):
        feedback = ((reg >> (crc.width - 1)) & 1) ^ bits[..., j]
        reg = ((reg << 1) & mask) ^ (feedback * crc.poly)
    return reg


def crc_append(payload, crc: CrcConfig = CRC24) -> np.ndarray:
    """Append the checksum of ``payload``, high-order bit first."""
    payload = np.asarray(payload, dtype=np.uint8)
    rem = _crc_remainder(payload, crc)
    bits = (rem[..., None] >> np.arange(crc.width - 1, -1, -1)) & 1
    return np.concatenate([payload, bits.astype(np.uint8)], axis=-1)


def crc_check(msg, crc: CrcConfig = CRC24):
    """True when ``msg`` equals :func:`crc_append` of its leading payload."""
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.shape[-1] <= crc.width:
        raise ValueError("message shorter than the checksum")
    ok = np.all(msg == crc_append(msg[..., : -crc.width], crc), axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


# ---------------------------------------------------------------------------
# CRC-aided list decoding


def _crc_select(msgs, pm, crc: CrcConfig):
    """Per frame, the best-metric candidate that passes the CRC, or the
    best-metric one when none does: ``(messages, metrics, crc_ok, rank)``."""
    passes = crc_check(msgs, crc) & np.isfinite(pm)
    first_pass = np.argmax(passes, axis=1)
    frame = np.arange(len(passes))
    crc_ok = passes[frame, first_pass]
    rank = np.where(crc_ok, first_pass, 0)
    return msgs[frame, rank], pm[frame, rank], crc_ok, rank


def ca_scl_decode_batch(
    spec: CodeSpec,
    frames,
    L: int,
    crc: CrcConfig = CRC24,
    threshold: float = 0.0,
    rule: str = "minsum",
):
    """CRC-aided list decoding of LLR frames ``(B, N)`` or one frame ``(N,)``.

    Returns ``(messages, metrics, crc_ok, list_rank)``: per frame the
    best-metric candidate that passes the CRC, or the overall best-metric
    candidate with ``crc_ok = False`` when none does.  The messages still
    include the CRC bits.
    """
    return _crc_select(*scl_decode_batch(spec, frames, L, threshold, rule), crc)


# ---------------------------------------------------------------------------
# one decoder per experiment

# The decoders an experiment names (``ExperimentConfig.decoder``).
DECODERS = ("SC", "SCL", "CASCL")


def message_decoder(spec: CodeSpec, decoder: str, L: int, threshold: float = 0.0, rule: str = "minsum"):
    """A function from LLR frames ``(B, N)``, or one frame ``(N,)``, to each
    frame's decided message ``(B, K)``, for any number of calls.

    ``decoder`` is one of ``DECODERS``: ``"SC"`` is the metric-free walk of
    :func:`sc_decode_batch` (``L`` unused; one path is never pruned),
    ``"SCL"`` the best-metric path of :func:`scl_decode_batch` and
    ``"CASCL"`` the CRC-24 choice of :func:`ca_scl_decode_batch`, bit for
    bit.  The walk's node table and live width are made here, once, so that
    ``run_point`` builds one decoder per point.  Every call checks its
    frames and tests their dead suffix anew, and :meth:`_ListDecoder.decode`
    resets the rest of its state, so no call depends on the ones before it.
    Its ``list_size`` is the number of paths the walk keeps, 1 for SC.
    """
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    walk = _ListDecoder(spec, 1 if decoder == "SC" else L, threshold, rule, metric=decoder != "SC")

    def decode(frames):
        msgs, pm = walk.decode(_check_frames(spec, frames))
        return _crc_select(msgs, pm, CRC24)[0] if decoder == "CASCL" else msgs[:, 0]

    decode.list_size = walk.L
    return decode
