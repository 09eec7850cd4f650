"""Reference GA numerics for bit-identity tests of ``nupolar.numerics``.

This is the original ``phi``, its bisection inverse, which checks the
domain of every midpoint and solves every entry of its input, repeated
targets included, and the original single-mean pair update with its own
copy of the check-node expression.  ``nupolar.numerics`` must reproduce all
three bit for bit.

``phi_exact`` is the function the closed form approximates, for tests of
its accuracy: phi(x) = 1 - E[tanh(u/2)] with u ~ N(x, 2x), by the
trapezoid rule.
"""

import numpy as np

_PHI_INV_HI = 3000.0
_PHI_INV_ITERS = 90


def phi(x):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x >= 0):
        raise ValueError("x must be non-negative")
    safe = np.where(x > 0, x, 1.0)
    small = np.exp(-0.4527 * safe**0.86 + 0.0218)
    large = np.sqrt(np.pi / safe) * (1.0 - 10.0 / (7.0 * safe)) * np.exp(-safe / 4.0)
    out = np.where(x <= 10.0, small, large)
    out = np.minimum(out, 1.0)
    out = np.where(x == 0.0, 1.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def phi_inv(y):
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y > 0) & (y <= 1)):
        raise ValueError("phi_inv is defined on (0, 1] only")
    lo = np.zeros_like(y)
    hi = np.full_like(y, _PHI_INV_HI)
    for _ in range(_PHI_INV_ITERS):
        mid = 0.5 * (lo + hi)
        too_high = np.asarray(phi(mid)) > y
        lo = np.where(too_high, mid, lo)
        hi = np.where(too_high, hi, mid)
    out = 0.5 * (lo + hi)
    out = np.where(y == 1.0, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def ga_pair_uniform(m):
    m = np.asarray(m, dtype=np.float64)
    if not np.all(m >= 0):
        raise ValueError("LLR mean must be non-negative")
    p = np.asarray(phi(m))
    arg = 1.0 - (1.0 - p) * (1.0 - p)
    dead = arg <= 0.0
    f = np.where(dead, np.minimum(m, m), np.asarray(phi_inv(np.where(dead, 1.0, arg))))
    minus = np.where(m == 0.0, 0.0, f)
    plus = m + m
    if m.ndim == 0:
        return float(minus), float(plus)
    return minus, plus


def phi_exact(x, points=20_001, width=12.0):
    """1 - E[tanh(u/2)], u ~ N(x, 2x), for each ``x`` in (0, 200]: the
    trapezoid rule over ``width`` standard deviations either side of the
    mean, ``points`` points, on ``2 / (1 + exp(u))`` (1 - tanh(u/2) without
    cancellation), divided by the rule's weight sum so that a constant
    integrand comes out exact.  Above x = 200, exp(u) nears overflow."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all((x > 0) & (x <= 200)):
        raise ValueError("phi_exact is defined on (0, 200] here")
    t = np.linspace(-width, width, points)
    w = np.exp(-0.5 * t * t)
    w[[0, -1]] *= 0.5
    return np.array([np.dot(w, 2.0 / (1.0 + np.exp(m + np.sqrt(2.0 * m) * t))) for m in x]) / w.sum()
