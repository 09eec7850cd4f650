"""Scalar numerics for polar-code construction.

Gaussian-approximation (GA) density evolution tracks only the mean of each
bit-channel LLR through the polarization tree.  This module provides the
GA transfer function ``phi`` and its numerical inverse, the classic
single-mean pair update (both tree inputs share one mean), the generalized
two-mean pair update used for non-uniform reliability profiles, and the
exact binary-erasure-channel pair update used as a test oracle.

Conventions: LLR means are non-negative; a mean of 0 is a live channel
that carries no information (an erasure).  Which positions are dead
(shortened, and so skipped by the butterfly) is not read from the values
here; construction takes it from the rate-matching pattern.  BEC channels
are described by their erasure probability in [0, 1]; smaller is better.
Range checks are written so that NaN fails them.
"""

from __future__ import annotations

import numpy as np

# Upper end of the inversion bracket.  phi underflows to a subnormal around
# x ~ 3000, so every representable target y in (0, 1] has a preimage below
# this value.
_PHI_INV_HI = 3000.0
_PHI_INV_ITERS = 90

# LLR value meaning "this bit is known to be zero".  Deliberately the IEEE
# infinity rather than a large finite constant, so accidental arithmetic on
# it cannot silently look like a plausible LLR.
KNOWN_ZERO_LLR = np.inf


def _as_float_array(x, name: str):
    out = np.asarray(x, dtype=np.float64)
    if not np.all(out >= 0):
        raise ValueError(f"{name} must be non-negative")
    return out


def _phi(x):
    # Unchecked phi on a float64 array: the forward transfer and every step
    # of the phi_inv bisection run this same arithmetic.  Means that
    # saturate near the float maximum overflow 7 * x to infinity on the
    # large branch, which still gives the right value of 0.
    safe = np.where(x > 0, x, 1.0)
    small = np.exp(-0.4527 * safe**0.86 + 0.0218)
    with np.errstate(over="ignore"):
        large = np.sqrt(np.pi / safe) * (1.0 - 10.0 / (7.0 * safe)) * np.exp(-safe / 4.0)
    out = np.where(x <= 10.0, small, large)
    out = np.minimum(out, 1.0)
    return np.where(x == 0.0, 1.0, out)


def phi(x):
    """GA transfer function for an LLR of mean ``x``.

    Two-branch closed form: ``exp(-0.4527 x^0.86 + 0.0218)`` for x <= 10 and
    ``sqrt(pi/x) (1 - 10/(7x)) exp(-x/4)`` above, with the output clamped to
    at most 1 so that ``phi(0) == 1`` exactly (the small-x branch slightly
    exceeds 1 near the origin, which would break inversion).  Decreasing in
    x apart from a sub-1e-3 step where the two branches meet.  Accepts
    scalars or arrays; negative or NaN input raises ``ValueError``.
    """
    out = _phi(_as_float_array(x, "x"))
    if out.ndim == 0:
        return float(out)
    return out


def phi_inv(y):
    """Inverse of ``phi`` by bracketed bisection on [0, 3000].

    Valid for y in (0, 1]; ``phi_inv(1) == 0`` exactly.  A fixed iteration
    budget drives the bracket to machine precision in x, which keeps the
    residual ``|phi(phi_inv(y)) - y|`` below 1e-9 for every representable
    target (the bracket always straddles a genuine crossing, including
    targets inside the small overlap of the two branches).  Each distinct
    target is solved once and the result scattered back to every entry
    that holds it; the bisection is elementwise, so the output is the same
    as solving every entry on its own.
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y > 0) & (y <= 1)):
        raise ValueError("phi_inv is defined on (0, 1] only")
    targets, back = np.unique(y.ravel(), return_inverse=True)
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, _PHI_INV_HI)
    for _ in range(_PHI_INV_ITERS):
        mid = 0.5 * (lo + hi)
        too_high = _phi(mid) > targets  # phi decreasing: root right of mid
        lo = np.where(too_high, mid, lo)
        hi = np.where(too_high, hi, mid)
    out = np.where(targets == 1.0, 0.0, 0.5 * (lo + hi))[back].reshape(y.shape)
    if out.ndim == 0:
        return float(out)
    return out


def ga_pair_uniform(m):
    """Classic GA pair update for two tree inputs sharing one mean ``m``.

    Returns ``(minus, plus)`` with ``minus = phi_inv(1 - (1 - phi(m))^2)``
    and ``plus = 2 m``: the two-mean update :func:`nupga_pair` at a == b.
    Satisfies ``minus <= m <= plus`` for every m >= 0; a dead channel
    (m == 0) stays dead on both outputs.
    """
    return nupga_pair(m, m, "sum")


def nupga_pair(a, b, g_mode: str = "sum"):
    """Generalized pair update for two independent LLR means.

    ``minus = phi_inv(1 - (1 - phi(a)) (1 - phi(b)))`` and ``plus`` is
    ``a + b`` for ``g_mode="sum"`` (the default; :func:`ga_pair_uniform` is
    this at a == b) or ``a * b`` for ``g_mode="product"``.
    A mean of 0 gets no special case: it gives ``minus = 0``, and in
    product mode ``plus = 0`` whatever the partner, infinity included.
    """
    if g_mode not in ("sum", "product"):
        raise ValueError(f"unknown g_mode {g_mode!r}")
    a = _as_float_array(a, "LLR mean")
    b = _as_float_array(b, "LLR mean")
    scalar = a.ndim == 0 and b.ndim == 0
    # When both phi values underflow the check-node argument collapses to
    # 0; the output then tends to min(a, b) from below, so use that limit.
    arg = 1.0 - (1.0 - _phi(a)) * (1.0 - _phi(b))
    underflow = arg <= 0.0
    minus = np.where(underflow, np.minimum(a, b), phi_inv(np.where(underflow, 1.0, arg)))
    # Product mode grows doubly exponentially along the tree and is allowed
    # to saturate at infinity; the ordering it induces is what matters.
    with np.errstate(over="ignore", invalid="ignore"):
        plus = a + b if g_mode == "sum" else np.where((a == 0.0) | (b == 0.0), 0.0, a * b)
    if scalar:
        return float(minus), float(plus)
    return minus, plus


def bec_pair(z1, z2):
    """Exact single-step polarization of two BEC erasure probabilities.

    Returns ``(minus, plus) = (z1 + z2 - z1 z2, z1 z2)``.  The capacity sum
    ``(1 - minus) + (1 - plus)`` equals ``(1 - z1) + (1 - z2)`` exactly, and
    ``plus <= min(z1, z2) <= max(z1, z2) <= minus``.
    """
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if not (np.all((z1 >= 0) & (z1 <= 1)) and np.all((z2 >= 0) & (z2 <= 1))):
        raise ValueError("erasure probabilities must lie in [0, 1]")
    scalar = z1.ndim == 0 and z2.ndim == 0
    prod = z1 * z2
    minus = z1 + z2 - prod
    if scalar:
        return float(minus), float(prod)
    return minus, prod
