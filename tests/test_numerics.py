import warnings

import ga_reference
import numpy as np
import pytest

from nupolar import numerics
from nupolar.numerics import G_MODES, bec_pair, nupga_pair, phi, phi_inv


def phi_smallx(x):
    return np.exp(-0.4527 * x**0.86 + 0.0218)


def phi_largex(x):
    return np.sqrt(np.pi / x) * (1.0 - 10.0 / (7.0 * x)) * np.exp(-x / 4.0)


class TestPhi:
    def test_clamp_at_origin(self):
        assert phi(0.0) == 1.0
        # raw small-x branch exceeds 1 near the origin; the clamp caps it
        assert phi_smallx(0.01) > 1.0
        assert phi(0.01) == 1.0

    def test_branch_values(self):
        assert phi(4.0) == pytest.approx(phi_smallx(4.0), rel=1e-12)
        assert phi(4.0) == pytest.approx(0.230027, abs=1e-6)
        assert phi(16.0) == pytest.approx(phi_largex(16.0), rel=1e-12)

    def test_branch_step_is_small(self):
        assert abs(phi(9.999) - phi(10.001)) < 5e-3

    def test_decreasing_within_each_branch(self):
        xs = np.linspace(0.03, 10.0, 500)
        vals = phi(xs)
        assert np.all(np.diff(vals) < 0)
        xs = np.linspace(10.001, 100.0, 500)
        assert np.all(np.diff(phi(xs)) < 0)

    def test_domain(self):
        for bad in (-0.1, np.nan):
            with pytest.raises(ValueError):
                phi(bad)

    def test_vectorized(self):
        xs = np.array([0.0, 4.0, 16.0])
        np.testing.assert_allclose(phi(xs), [1.0, phi(4.0), phi(16.0)])


class TestPhiAccuracy:
    """How far the closed form is from the exact phi(x) = 1 - E[tanh(u/2)],
    u ~ N(x, 2x) (``ga_reference.phi_exact``).  Each range pins the largest
    and the mean relative error on 101 log-spaced points, to 1e-6 of their
    values, so that any change to ``phi`` must restate its accuracy here."""

    # 0.0293896: at and below it the small branch is at least 1.
    CLAMP_EDGE = (0.0218 / 0.4527) ** (1 / 0.86)
    ENVELOPE = [  # (lo, hi, largest, mean)
        (CLAMP_EDGE, 0.254, 1.46968053e-2, 8.97072235e-3),
        (0.254, 1.0, 2.95896110e-3, 9.16983303e-4),
        (1.0, 10.0, 6.93891032e-3, 2.76529666e-3),
        (10.0, 20.0, 3.01225762e-2, 2.87523743e-2),
        (20.0, 60.0, 2.83689268e-2, 2.13072754e-2),
        (60.0, 200.0, 1.41966898e-2, 8.85691469e-3),
    ]

    @pytest.mark.parametrize("lo, hi, largest, mean", ENVELOPE)
    def test_relative_error_envelope(self, lo, hi, largest, mean):
        xs = np.geomspace(lo, hi, 101)
        err = np.abs(phi(xs) / ga_reference.phi_exact(xs) - 1.0)
        assert err.max() == pytest.approx(largest, rel=1e-6)
        assert err.mean() == pytest.approx(mean, rel=1e-6)

    def test_below_the_clamp_edge_phi_reads_one(self):
        # The exact function is 1 - x/2 + x^2/4 there to within 5.1e-6, so a
        # live channel's phi of 1 says it carries nothing.
        xs = np.geomspace(1e-4, self.CLAMP_EDGE, 50)
        exact = ga_reference.phi_exact(xs)
        assert np.all(phi(xs) == 1.0)
        assert np.abs(exact - (1 - xs / 2 + xs * xs / 4)).max() < 5.1e-6
        assert exact[-1] == pytest.approx(0.985516, abs=1e-6)

    def test_reference_agrees_with_a_finer_grid(self):
        xs = np.array([1e-4, self.CLAMP_EDGE, 1.0, 10.0, 60.0, 200.0])
        fine = ga_reference.phi_exact(xs, points=80_001)
        np.testing.assert_allclose(ga_reference.phi_exact(xs), fine, rtol=1e-14, atol=0)


class TestPhiInv:
    def test_boundary(self):
        assert phi_inv(1.0) == 0.0

    def test_domain(self):
        for bad in (0.0, -0.5, 1.0001, np.nan):
            with pytest.raises(ValueError):
                phi_inv(bad)

    def test_round_trip(self):
        # The seam where the two closed-form branches overlap (roughly
        # [9.3, 10.1]) is not injective, and below ~0.0294 the clamp makes
        # phi flat, so identity is checked away from both regions.
        for x in (0.05, 0.1, 1.0, 4.0, 9.0, 11.0, 25.0, 40.0):
            assert phi_inv(phi(x)) == pytest.approx(x, abs=1e-6)

    def test_residual_contract_everywhere(self):
        # Even at the branch seam the bisection lands on a genuine crossing.
        ys = [phi(x) for x in (0.5, 5.0, 9.99, 10.01, 50.0, 200.0)]
        for y in ys:
            assert abs(phi(phi_inv(y)) - y) <= 1e-9

    def test_known_value(self):
        assert phi_inv(0.4071) == pytest.approx(2.2824, abs=2e-4)

    def test_tiny_targets(self):
        x = phi_inv(1e-300)
        assert np.isfinite(x)
        assert abs(phi(x) - 1e-300) <= 1e-9


def bisection_targets():
    """phi_inv inputs of every shape the construction produces, and more."""
    rng = np.random.default_rng(11)
    uniform = rng.uniform(0.0, 1.0, 3000)
    uniform[uniform == 0.0] = 1.0
    log_spaced = np.logspace(-323, 0, 2000)
    near_one = 1.0 - np.arange(0, 400) * np.finfo(float).eps / 2
    seam = ga_reference.phi(np.linspace(9.0, 11.0, 500))
    repeated = rng.permutation(np.repeat(rng.uniform(0.01, 1.0, 200), 7))
    return {
        "uniform": uniform,
        "log_spaced": log_spaced,
        "near_one": near_one,
        "seam": seam,
        "repeated": repeated,
        "two_d": repeated[:1200].reshape(40, 30),
        **fast_path_targets(),
    }


def neighbours(y, n=2):
    """``y`` and its ``n`` nearest floats on each side, kept inside (0, 1]."""
    out = [y]
    up = down = y
    for _ in range(n):
        up, down = np.nextafter(up, 2.0), np.nextafter(down, 0.0)
        out += [up, down]
    out = np.concatenate(out)
    return out[(out > 0.0) & (out <= 1.0)]


def fast_path_targets():
    """Targets aimed at the seeded jump of phi_inv: the junction band, where
    phi crosses twice; the ends of the range; and roots on the bisection grid."""
    rng = np.random.default_rng(12)
    ends = ga_reference.phi(np.array([10.0, np.nextafter(10.0, np.inf)]))
    band = np.concatenate([neighbours(ends, 3), np.linspace(ends[0], ends[1], 400),
                           ga_reference.phi(10.0 + np.linspace(-1e-9, 1e-9, 201))])
    tiny = np.finfo(float).smallest_normal
    edges = neighbours(np.array([1.0, 5e-324, 1e-320, 1e-310, tiny, 2.0**-53, 1e-16]), 3)
    # phi at exact bisection points 3000 j / 2^k (j odd), where the root sits
    # on the cell boundary that the jump's floor picks.
    k = rng.integers(1, 45, 1500)
    j = 2 * (rng.integers(0, 2**62, 1500, dtype=np.int64) % (1 << (k - 1))) + 1
    x = np.ldexp(3000.0 * j, -k)
    y = ga_reference.phi(x[(x > 0.03) & (x < 2900)])
    return {"junction_band": band, "range_edges": edges, "grid_roots": neighbours(y[(y > 0) & (y < 1)], 1)}


class TestBitIdentity:
    """phi and phi_inv equal the frozen reference in ``ga_reference`` bit for bit."""

    @pytest.mark.parametrize("name", list(bisection_targets()))
    def test_phi_inv(self, name):
        y = bisection_targets()[name]
        got = phi_inv(y)
        assert got.shape == y.shape
        assert np.array_equal(got, ga_reference.phi_inv(y))

    def test_phi_inv_scalars(self):
        for y in (1.0, 0.5, 0.4071, 1e-300, 5e-324, 1.0 - 2.0**-53):
            got = phi_inv(y)
            assert type(got) is float
            assert got == ga_reference.phi_inv(y)

    def test_fast_path_calls_phi_at_most_15_times(self, monkeypatch):
        # Seeded and jumped to depth ~40, each target needs about 13 more
        # bisection steps; the full bisection took 90 calls.  Targets in the
        # junction band leave the recorded path toward 10 and jump inside
        # the half they take, so they cost no more.
        y = np.concatenate([np.logspace(-300, 0, 512), fast_path_targets()["junction_band"]])
        calls = []
        monkeypatch.setattr(numerics, "_phi", lambda x: calls.append(x.size) or ga_reference.phi(x))
        got = phi_inv(y)
        assert len(calls) <= 15
        assert np.array_equal(got, ga_reference.phi_inv(y))

    def test_only_subnormal_targets_restart(self):
        # A target whose jump fails the check and that has no narrower
        # bracket starts over at [0, 3000].
        for name, y in bisection_targets().items():
            targets = np.unique(y)
            with np.errstate(divide="ignore", over="ignore"):
                lo, hi = numerics._phi_inv_start(targets)
            restarted = targets[(lo == 0.0) & (hi == numerics._PHI_INV_HI)]
            assert np.all(restarted < np.finfo(float).smallest_normal), name

    def test_band_targets_start_on_one_side_of_10(self):
        band = np.unique(fast_path_targets()["junction_band"])
        lo, hi = numerics._phi_inv_start(band)
        assert np.all(0.0 < lo) and np.all((hi <= 10.0) | (lo > 10.0))

    def test_wrong_large_branch_seed_only_costs_time(self, monkeypatch):
        # A seed hundreds of cells off fails the check, and its target starts
        # from its bracket: [0, 3000], or its half on one side of 10.
        root = numerics._large_branch_root
        monkeypatch.setattr(numerics, "_large_branch_root", lambda ln_y: root(ln_y) * (1 + 1e-9))
        y = np.concatenate([fast_path_targets()["junction_band"], np.logspace(-300, 0, 200)])
        assert np.array_equal(phi_inv(y), ga_reference.phi_inv(y))

    def test_phi(self):
        x = np.concatenate([[0.0, 5e-324, 1e-310, 1e-300, 10.0, 1e300, np.inf], np.logspace(-6, 6, 5001)])
        with np.errstate(over="ignore"):  # the reference's 7 x overflows at 1e300
            want = ga_reference.phi(x)
        assert np.array_equal(phi(x), want)
        assert phi(4.0) == ga_reference.phi(4.0)


class TestNoWarnings:
    """At x = 0 the large branch divides by 0 and at x = inf both branches
    meet infinities; the branch np.where drops, and the clamp, keep the
    values right, and no RuntimeWarning leaves the module."""

    def test_phi_phi_inv_and_nupga_pair_are_silent_at_0_and_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phi(0.0) == 1.0 and phi(np.inf) == 0.0
            assert np.array_equal(phi(np.array([0.0, np.inf])), [1.0, 0.0])
            assert phi_inv(1.0) == 0.0
            assert np.array_equal(phi_inv(np.array([1.0, 5e-324])), ga_reference.phi_inv([1.0, 5e-324]))
            for g_mode in G_MODES:
                assert nupga_pair(0.0, 0.0, g_mode) == (0.0, 0.0)
                assert nupga_pair(np.inf, np.inf, g_mode) == (np.inf, np.inf)
                assert nupga_pair(0.0, np.inf, g_mode) == (0.0, np.inf if g_mode == "sum" else 0.0)


class TestGaPairUniform:
    """The classic single-mean update, ``nupga_pair(m, m, "sum")``."""

    def test_dead_channel(self):
        assert nupga_pair(0.0, 0.0, "sum") == (0.0, 0.0)

    def test_example(self):
        minus, plus = nupga_pair(4.0, 4.0, "sum")
        assert plus == 8.0
        assert minus == pytest.approx(2.2821, abs=2e-4)

    def test_matches_reference(self):
        ms = np.concatenate([[0.0], np.logspace(-6, 6, 20001), [1e300]])
        with np.errstate(over="ignore"):
            want = ga_reference.ga_pair_uniform(ms)
        got = nupga_pair(ms, ms, "sum")
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        for m in (0.0, 1e-6, 4.0, 50.0):
            assert nupga_pair(m, m, "sum") == ga_reference.ga_pair_uniform(m)

    def test_ordering(self):
        ms = np.exp(np.linspace(np.log(1e-3), np.log(200.0), 200))
        minus, plus = nupga_pair(ms, ms, "sum")
        assert np.all(minus <= ms)
        assert np.all(ms <= plus)


class TestNupgaPair:
    def test_zero_mean_gets_the_plain_update(self):
        # A mean of 0 is an erasure, not a dead channel: the check output is
        # 0 and the variable output is the partner's mean (sum) or 0
        # (product, even against a known bit at infinity).
        assert nupga_pair(4.0, 0.0) == (0.0, 4.0)
        assert nupga_pair(0.0, 4.0) == (0.0, 4.0)
        assert nupga_pair(0.0, 0.0) == (0.0, 0.0)
        assert nupga_pair(4.0, 0.0, "product") == (0.0, 0.0)
        assert nupga_pair(0.0, np.inf, "product") == (0.0, 0.0)

    def test_equal_inputs_match_uniform_exactly(self):
        ms = np.exp(np.linspace(np.log(1e-2), np.log(150.0), 500))
        gm, gp = ga_reference.ga_pair_uniform(ms)
        nm, npl_ = nupga_pair(ms, ms, "sum")
        assert np.array_equal(gm, nm)
        assert np.array_equal(gp, npl_)

    def test_check_output_symmetric(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.1, 30.0, 300)
        b = rng.uniform(0.1, 30.0, 300)
        np.testing.assert_array_equal(nupga_pair(a, b)[0], nupga_pair(b, a)[0])

    def test_product_mode(self):
        minus_s, plus_s = nupga_pair(3.0, 5.0, "sum")
        minus_p, plus_p = nupga_pair(3.0, 5.0, "product")
        assert minus_s == minus_p
        assert plus_s == 8.0
        assert plus_p == 15.0

    def test_ordering(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0.05, 40.0, 500)
        b = rng.uniform(0.05, 40.0, 500)
        minus, plus = nupga_pair(a, b)
        assert np.all(minus <= np.minimum(a, b) + 1e-9)
        assert np.all(plus >= np.maximum(a, b))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            nupga_pair(1.0, 1.0, "mean")


class TestBecPair:
    def test_examples(self):
        assert bec_pair(0.5, 0.5) == (0.75, 0.25)
        assert bec_pair(0.2, 0.5) == (0.6, 0.1)
        assert bec_pair(0.3, 0.0) == (0.3, 0.0)

    def test_domain(self):
        for z1, z2 in ((1.2, 0.5), (np.nan, 0.5), (0.5, np.nan)):
            with pytest.raises(ValueError):
                bec_pair(z1, z2)

    def test_capacity_conservation_and_ordering(self):
        rng = np.random.default_rng(9)
        z1 = rng.uniform(0.0, 1.0, 10_000)
        z2 = rng.uniform(0.0, 1.0, 10_000)
        minus, plus = bec_pair(z1, z2)
        lhs = (1.0 - minus) + (1.0 - plus)
        rhs = (1.0 - z1) + (1.0 - z2)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
        assert np.all(minus + plus <= z1 + z2 + 1e-12)
        assert np.all(plus <= np.minimum(z1, z2))
        assert np.all(np.maximum(z1, z2) <= minus)
