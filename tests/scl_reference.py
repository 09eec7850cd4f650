"""Reference SCL decoder for bit-identity tests of ``nupolar.codec``.

This is the original eager list decoder: it copies the whole ``(B, L, N)``
bit array at every information leaf and re-aligns every captured array
with ``np.take_along_axis``.  It is slow but simple, and the fast decoder
in ``codec`` must reproduce its messages and metrics bit for bit.  The
node updates are copied here too, so that a later change to the ones in
``codec`` is also checked against this arithmetic.
"""

import numpy as np


def f_minsum(a, b):
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def f_exact(a, b):
    aa = np.abs(a)
    ab = np.abs(b)
    sign = np.sign(a) * np.sign(b)
    total = aa + ab
    with np.errstate(invalid="ignore"):
        diff = np.where(np.isinf(aa) & np.isinf(ab), np.inf, np.abs(aa - ab))
    corr = np.log1p(np.exp(-total)) - np.log1p(np.exp(-diff))
    return sign * (np.minimum(aa, ab) + corr)


def g_node(a, b, u_sum):
    with np.errstate(invalid="ignore"):
        out = b + (1.0 - 2.0 * u_sum.astype(np.float64)) * a
    return np.where(np.isnan(out), 0.0, out)


class ReferenceListDecoder:
    """Path-managed SCL over a batch of frames.

    Keeps ``L`` path slots per frame; dead slots carry an infinite metric.
    ``origin`` maps the current path slots to the slot order at the entry
    of the innermost active tree node, so ancestors can re-align the
    arrays they captured before their children duplicated and re-ranked
    the paths.
    """

    def __init__(self, frozen_mask, L: int, threshold: float, rule: str):
        self.frozen = np.asarray(frozen_mask, dtype=bool)
        self.L = int(L)
        self.log_thr = None if threshold == 0.0 else -float(np.log(threshold))
        self.f = {"minsum": f_minsum, "exact": f_exact}[rule]

    def decode(self, llr):
        B, N = llr.shape
        L = self.L
        self.pm = np.full((B, L), np.inf)
        self.pm[:, 0] = 0.0
        self.u = np.zeros((B, L, N), dtype=np.uint8)
        self.origin = np.tile(np.arange(L), (B, 1))
        codewords = self._rec(np.broadcast_to(llr[:, None, :], (B, L, N)), 0, 1)
        order = np.argsort(self.pm, axis=1, kind="stable")
        pm = np.take_along_axis(self.pm, order, axis=1)
        u = np.take_along_axis(self.u, order[:, :, None], axis=1)
        codewords = np.take_along_axis(codewords, order[:, :, None], axis=1)
        return u, pm, codewords

    def _rec(self, llr, offset, stride):
        if llr.shape[2] == 1:
            self._leaf(llr[:, :, 0], offset)
            return self.u[:, :, offset : offset + 1].copy()
        a = llr[..., 0::2]
        b = llr[..., 1::2]
        x_left = self._rec(self.f(a, b), offset, 2 * stride)
        left_to_entry = self.origin
        a_cur = np.take_along_axis(a, left_to_entry[:, :, None], axis=1)
        b_cur = np.take_along_axis(b, left_to_entry[:, :, None], axis=1)
        x_right = self._rec(g_node(a_cur, b_cur, x_left), offset + stride, 2 * stride)
        right_to_left = self.origin
        x_left = np.take_along_axis(x_left, right_to_left[:, :, None], axis=1)
        self.origin = np.take_along_axis(left_to_entry, right_to_left, axis=1)
        out = np.empty(x_left.shape[:2] + (2 * x_left.shape[2],), dtype=np.uint8)
        out[:, :, 0::2] = x_left ^ x_right
        out[:, :, 1::2] = x_right
        return out

    def _leaf(self, lam, pos):
        B, L = lam.shape
        if self.frozen[pos]:
            self.pm = self.pm + np.logaddexp(0.0, -lam)
            self.u[:, :, pos] = 0
            self.origin = np.tile(np.arange(L), (B, 1))
        else:
            cand = np.concatenate(
                [self.pm + np.logaddexp(0.0, -lam), self.pm + np.logaddexp(0.0, lam)], axis=1
            )
            keep = np.argsort(cand, axis=1, kind="stable")[:, :L]
            src = keep % L
            bits = (keep >= L).astype(np.uint8)
            self.pm = np.take_along_axis(cand, keep, axis=1)
            self.u = np.take_along_axis(self.u, src[:, :, None], axis=1)
            self.u[:, :, pos] = bits
            self.origin = src
        if self.log_thr is not None:
            best = self.pm.min(axis=1, keepdims=True)
            self.pm = np.where(self.pm > best + self.log_thr, np.inf, self.pm)


def reference_scl_decode_batch(spec, llr, L: int, threshold: float = 0.0, rule: str = "minsum"):
    """``(messages (B, L, K), metrics (B, L))``, best metric first."""
    llr = np.asarray(llr, dtype=np.float64)
    u, pm, _ = ReferenceListDecoder(spec.frozen_mask, L, threshold, rule).decode(llr)
    return u[:, :, spec.info_positions], pm
