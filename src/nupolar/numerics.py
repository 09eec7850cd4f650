"""Scalar numerics for polar-code construction.

Gaussian-approximation (GA) density evolution tracks only the mean of each
bit-channel LLR through the polarization tree.  This module provides the
GA transfer function ``phi`` and its numerical inverse, the two-mean pair
update (the classic single-mean update is its case of equal means), and
the exact binary-erasure-channel pair update used as a test oracle.

Conventions: LLR means are non-negative; a mean of 0 is a live channel
that carries no information (an erasure).  Which positions are dead
(shortened, and so skipped by the butterfly) is not read from the values
here; construction takes it from the rate-matching pattern.  BEC channels
are described by their erasure probability in [0, 1]; smaller is better.
Range checks are written so that NaN fails them.

``phi_inv`` is defined as 90 bisection steps on [0, 3000] and returns that
bisection's float bit for bit, but skips the first ~40 steps: it seeds each
root in closed form, jumps to the bisection cell about 2^-40 of the root
wide, verifies with one ``phi`` call that the bisection reaches that cell,
and finishes with the same midpoint steps.  A target phi crosses twice,
near 10, first follows the bisection's recorded path to where it leaves
it (see :func:`phi_inv`).
"""

from __future__ import annotations

import numpy as np

# Upper end of the inversion bracket.  phi underflows to a subnormal around
# x ~ 3000, so every representable target y in (0, 1] has a preimage below
# this value.
_PHI_INV_HI = 3000.0
_PHI_INV_ITERS = 90
# phi_inv starts the bisection at the depth where the bracket is at most
# 2^-_PHI_INV_JUMP of the root estimate wide; the estimate takes
# _PHI_INV_NEWTON Newton steps on the large-x branch, the fewest with
# which the tests' targets restart as they did with six.
_PHI_INV_JUMP = 40
_PHI_INV_NEWTON = 3

# LLR value meaning "this bit is known to be zero".  Deliberately the IEEE
# infinity rather than a large finite constant, so accidental arithmetic on
# it cannot silently look like a plausible LLR.
KNOWN_ZERO_LLR = np.inf

# Variable-node mean update of :func:`nupga_pair`: ``a + b`` or ``a * b``.
G_MODES = ("sum", "product")


def _as_float_array(x, name: str):
    out = np.asarray(x, dtype=np.float64)
    if not np.all(out >= 0):
        raise ValueError(f"{name} must be non-negative")
    return out


def _phi(x):
    # Unchecked phi on a float64 array: the forward transfer and every step
    # of the phi_inv bisection run this same arithmetic.  Callers ignore
    # division by zero and overflow: at x = 0 the large branch divides by 0
    # (np.where then takes the small branch, e^0.0218, which the clamp turns
    # into exactly 1), and means that saturate near the float maximum
    # overflow 7 * x to infinity, which still gives the right value of 0.
    small = np.exp(-0.4527 * x**0.86 + 0.0218)
    large = np.sqrt(np.pi / x) * (1.0 - 10.0 / (7.0 * x)) * np.exp(x * -0.25)
    out = np.where(x <= 10.0, small, large)
    return np.minimum(out, 1.0, out=out)


# phi steps up where the branches meet: the small branch at 10 is below the
# large branch just past it, so a target between the two has two crossings.
_PHI_AT_10, _PHI_PAST_10 = _phi(np.array([10.0, np.nextafter(10.0, np.inf)]))


def _path_to_10():
    """The bisection's own path toward 10, from [0, 3000] until it stalls.

    Returns the midpoint of each step, phi there, and for each step the
    half the path leaves behind, followed by the stalled bracket: a target
    leaving the path at step k takes that half.  At a midpoint of 10 every
    target in the band goes left, as the path does."""
    lo, hi, mids, left_behind = 0.0, _PHI_INV_HI, [], []
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        mids.append(mid)
        left_behind.append((lo, mid) if mid < 10.0 else (mid, hi))
        lo, hi = (mid, hi) if mid < 10.0 else (lo, mid)
    mids = np.array(mids)
    return mids, _phi(mids), np.array(left_behind + [(lo, hi)]).T


_PATH_MIDS, _PATH_PHI, (_PATH_LO, _PATH_HI) = _path_to_10()


def phi(x):
    """GA transfer function for an LLR of mean ``x``.

    Two-branch closed form: ``exp(-0.4527 x^0.86 + 0.0218)`` for x <= 10 and
    ``sqrt(pi/x) (1 - 10/(7x)) exp(-x/4)`` above, with the output clamped to
    at most 1 so that ``phi(0) == 1`` exactly (the small-x branch slightly
    exceeds 1 near the origin, which would break inversion).  Decreasing in
    x apart from a sub-1e-3 step where the two branches meet.  Accepts
    scalars or arrays; negative or NaN input raises ``ValueError``.
    """
    x = _as_float_array(x, "x")
    with np.errstate(divide="ignore", over="ignore"):
        out = _phi(x)
    if out.ndim == 0:
        return float(out)
    return out


def _large_branch_root(ln_y):
    """Root of ln(large branch) = ln y by a fixed number of Newton steps.

    The start ``-4 ln y`` is right of the root, where the large branch is
    below ``exp(-x/4)``.  The function is convex and decreasing, so the
    first step lands left of the root and the later ones climb to it.
    """
    x = np.maximum(-4.0 * ln_y, 10.5)
    for _ in range(_PHI_INV_NEWTON):
        f = 0.5 * np.log(np.pi / x) + np.log(1.0 - 10.0 / (7.0 * x)) - 0.25 * x - ln_y
        x = x - f / (10.0 / (x * (7.0 * x - 10.0)) - 0.5 / x - 0.25)
    return x


def _phi_inv_start(y):
    """Bisection bracket ``(lo, hi)`` for each target in (0, 1].

    Each target first gets a bracket the bisection holds on its way and in
    which phi crosses the target once: [0, 3000], or for a junction-band
    target the half it takes where it leaves the path toward 10.  A target
    whose jump passes the check starts at its depth-``k`` cell inside that
    bracket, any other at the bracket itself; ``y == 1`` gets the empty
    bracket [0, 0], whose midpoint 0 is its answer.
    """
    lo = np.zeros_like(y)
    hi = np.where(y == 1.0, 0.0, _PHI_INV_HI)
    # A band target crosses phi twice, once on each side of 10.  Its
    # bisection follows the path toward 10 while phi(m) > y exactly where
    # the midpoint m < 10, and at the first step where that fails it takes
    # the half the path leaves behind, which lies on one side of 10.  A
    # target that never leaves ends in the path's stalled bracket.
    band = (y >= _PHI_AT_10) & (y <= _PHI_PAST_10)
    if band.any():
        leaves = (_PATH_PHI > y[band, None]) != (_PATH_MIDS < 10.0)
        step = np.where(leaves.any(axis=1), leaves.argmax(axis=1), _PATH_MIDS.size)
        lo[band], hi[band] = _PATH_LO[step], _PATH_HI[step]
    ln_y = np.log(y)
    # Root estimates: the closed-form inverse of the small-x branch, or the
    # large-branch root where that lands past the junction or the bracket
    # lies past it.
    x = ((0.0218 - ln_y) / 0.4527) ** (1 / 0.86)
    large = (x > 10.0) | (lo > 10.0)
    x[large] = _large_branch_root(ln_y[large])
    # Jump to the depth where the width 3000 * 2^-k first falls to at most
    # 2^-JUMP of the estimate.  The cell j * w with j < 2^(JUMP+1) holds
    # exact floats, as does every bracket wide enough to hold it.
    depth = _PHI_INV_JUMP + 1 - np.frexp(x / _PHI_INV_HI)[1]
    width = np.ldexp(_PHI_INV_HI, -depth)
    j = (x / width).astype(np.int64)
    # At the scale of a cell phi is non-increasing inside the bracket, so
    # the one cell in it that straddles the target is the one the bisection
    # reaches: every skipped step would have gone toward it.  The
    # estimate's cell and its two neighbours are checked in one call.
    above = _phi((j + np.arange(-1, 3)[:, None]) * width) > y
    straddles = above[:-1] & ~above[1:]
    j += straddles.argmax(axis=0) - 1
    cell_lo, cell_hi = j * width, (j + 1) * width
    ok = straddles.any(axis=0) & (cell_lo >= lo) & (cell_hi <= hi)
    return np.where(ok, cell_lo, lo), np.where(ok, cell_hi, hi)


def phi_inv(y):
    """Inverse of ``phi``: the midpoint after 90 bisection steps on [0, 3000].

    Valid for y in (0, 1]; ``phi_inv(1) == 0`` exactly.  The 90-step budget
    drives the bracket to machine precision in x, which keeps the residual
    ``|phi(phi_inv(y)) - y|`` below 1e-9 for every representable target
    (the bracket always straddles a genuine crossing, including targets
    inside the small overlap of the two branches).

    The result is that bisection's, bit for bit, reached in about 15 calls
    of ``phi`` instead of 90.  Each target first gets a bracket in which
    phi crosses it once: [0, 3000], or for a target in the band where the
    two branches overlap, which phi crosses on each side of 10, the half
    its bisection takes where it leaves the bisection's own path toward 10
    (recorded at import, 61 steps until it stalls; one comparison finds
    the step).  Each target is then *seeded* with a root estimate: the
    closed-form inverse of the small-x branch, or three Newton steps on the
    large one (the fewest with which the tests' targets restart as they
    did with six).  The bisection then *jumps* to the depth k where its
    bracket is about 2^-40 of the estimate wide, taking the grid cell that
    holds the estimate.  One call *verifies* that the cell or a neighbour
    straddles the target and lies inside the bracket, which proves every
    skipped step would have gone the same way; a target that fails starts
    from its bracket, so no band target starts over at [0, 3000] (of the
    tests' targets, only subnormal ones do).  The same midpoint loop then
    *finishes*, and stops once no bracket moves.  Running every bracket
    until then, rather than for its own 90 - k steps, gives the same
    answer: once a bracket holds two adjacent floats its midpoint rounds to
    one of them, so a further step can only collapse the bracket onto that
    float, and every bracket gets there within its budget (roots lie above
    0.029, whose spacing a bracket from [0, 3000] reaches in 70 steps and a
    jumped one, at depth k <= 57, in about 13 more).
    Each distinct target is solved once and the result scattered back to
    every entry that holds it; the bisection is elementwise, so the output
    is the same as solving every entry on its own.
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y > 0) & (y <= 1)):
        raise ValueError("phi_inv is defined on (0, 1] only")
    targets, back = np.unique(y.ravel(), return_inverse=True)
    with np.errstate(divide="ignore", over="ignore"):
        lo, hi = _phi_inv_start(targets)
        for _ in range(_PHI_INV_ITERS):
            mid = 0.5 * (lo + hi)
            too_high = _phi(mid) > targets  # phi decreasing: root right of mid
            new_lo = np.where(too_high, mid, lo)
            new_hi = np.where(too_high, hi, mid)
            if (new_lo == lo).all() and (new_hi == hi).all():
                break
            lo, hi = new_lo, new_hi
    out = (0.5 * (lo + hi))[back].reshape(y.shape)
    if out.ndim == 0:
        return float(out)
    return out


def nupga_pair(a, b, g_mode: str = "sum"):
    """Generalized pair update for two independent LLR means.

    ``minus = phi_inv(1 - (1 - phi(a)) (1 - phi(b)))`` and ``plus`` is
    ``a + b`` for ``g_mode="sum"`` (the default) or ``a * b`` for
    ``g_mode="product"``.  The classic GA update of two tree inputs sharing
    one mean ``m`` is ``nupga_pair(m, m, "sum")``: ``minus = phi_inv(1 -
    (1 - phi(m))^2)`` and ``plus = 2 m``, with ``minus <= m <= plus``.
    A mean of 0 gets no special case: it gives ``minus = 0``, and in
    product mode ``plus = 0`` whatever the partner, infinity included.
    """
    if g_mode not in G_MODES:
        raise ValueError(f"unknown g_mode {g_mode!r}")
    a = _as_float_array(a, "LLR mean")
    b = _as_float_array(b, "LLR mean")
    scalar = a.ndim == 0 and b.ndim == 0
    # Product mode grows doubly exponentially along the tree and is allowed
    # to saturate at infinity; the ordering it induces is what matters.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        arg = 1.0 - (1.0 - _phi(a)) * (1.0 - _phi(b))
        plus = a + b if g_mode == "sum" else np.where((a == 0.0) | (b == 0.0), 0.0, a * b)
    # When both phi values underflow the check-node argument collapses to
    # 0; the output then tends to min(a, b) from below, so use that limit.
    underflow = arg <= 0.0
    minus = np.where(underflow, np.minimum(a, b), phi_inv(np.where(underflow, 1.0, arg)))
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
