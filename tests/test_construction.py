import functools
import json
import warnings

import ga_reference
import numpy as np
import pytest

from nupolar import numerics
from nupolar.construction import (
    PATTERN_METHODS,
    CodeSpec,
    ConstructionError,
    RateMatchPattern,
    _butterfly,
    bec_construct,
    bit_reverse,
    build_bec_code,
    build_extended_code,
    build_mother_code,
    build_shortened_code,
    design_snr_to_llr_mean,
    evolve_bec,
    evolve_reliabilities,
    select_information_set,
    shortening_pattern,
)
from oracles import dense_cw_pattern, exact_bec_channels, known_bit_ga_channels, kronecker_generator


def info_mask(spec):
    return (~spec.frozen_mask).astype(int).tolist()


def recorded_stages(stage0, pair, hold):
    """Every stage vector of ``_butterfly(stage0, pair, hold)``, the input
    first: the butterfly works in place and calls ``pair`` once per stage,
    before it writes that stage."""
    v = np.array(stage0, dtype=np.float64)
    stages = []

    def record(a, b):
        stages.append(v.copy())
        return pair(a, b)

    stages.append(_butterfly(v, record, hold).copy())
    return stages


def block_stages(evolve, stage0):
    """Stage ``s`` as the evolutions of the aligned blocks of ``2^s``
    positions, concatenated, the input first."""
    v = np.asarray(stage0, dtype=np.float64)
    return [v] + [np.concatenate([evolve(block) for block in v.reshape(-1, 1 << s)])
                  for s in range(1, v.size.bit_length())]


class TestEvolve:
    def test_worked_example_uniform(self):
        spec = build_mother_code(4, 2, design_snr_db=0.0)
        assert info_mask(spec) == [0, 1, 0, 1]

    def test_worked_example_shortened(self):
        rel = evolve_reliabilities([4.0, 4.0, 4.0, 0.0])
        mask = select_information_set(rel, 2)
        assert (~mask).astype(int).tolist() == [0, 1, 1, 0]

    def test_uniform_matches_scalar_pair_chain(self):
        # Evolving a uniform vector must equal applying the single-mean pair
        # update level by level: stage s leaves the value at position i
        # depending only on the bits of i below s.
        N = 32
        rel = evolve_reliabilities(np.full(N, 4.0))
        expect = np.empty(N)
        for i in range(N):
            m = 4.0
            for s in range(5):
                minus, plus = numerics.nupga_pair(m, m, "sum")
                m = plus if (i >> s) & 1 else minus
            expect[i] = m
        np.testing.assert_array_equal(rel, expect)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConstructionError):
            evolve_reliabilities([1.0, 2.0, 3.0])
        with pytest.raises(ConstructionError):
            evolve_reliabilities([1.0, -2.0])
        with pytest.raises(ConstructionError):
            evolve_reliabilities([1.0, np.inf])
        with pytest.raises(ConstructionError):
            evolve_reliabilities([1.0, np.nan])
        with pytest.raises(ConstructionError, match="one-dimensional"):
            evolve_reliabilities(np.full((2, 2), 4.0))

    def test_stages_are_block_evolutions(self):
        # The butterfly's first s stages pair positions inside aligned blocks
        # of 2^s, and whether a pair passes through depends on its own
        # positions only, so stage s is the evolutions of those blocks.
        rng = np.random.default_rng(5)
        ga = rng.uniform(0.5, 8.0, 16)
        ga[[3, 12]] = 0.0
        eps = rng.uniform(0.0, 1.0, 16)
        cases = [(eps, evolve_bec, numerics.bec_pair, np.zeros(16, dtype=bool))]
        for g_mode in ("sum", "product"):
            cases.append((ga, functools.partial(evolve_reliabilities, g_mode=g_mode),
                          functools.partial(numerics.nupga_pair, g_mode=g_mode), ga == 0.0))
        for stage0, evolve, pair, hold in cases:
            got = recorded_stages(stage0, pair, hold)
            want = block_stages(evolve, stage0)
            assert len(got) == len(want) == 5
            np.testing.assert_array_equal(got[0], stage0)
            np.testing.assert_array_equal(got[-1], evolve(stage0))
            for s, (g, w) in enumerate(zip(got, want)):
                np.testing.assert_array_equal(g, w, err_msg=f"stage {s}")

    def test_monotone_penalty_without_guard(self):
        # Read as an erasure (GA with no known bits, no pass-through),
        # zeroing one stage-0 entry can only lower final reliabilities, in
        # sum mode.
        rng = np.random.default_rng(3)
        none_known = np.zeros(16, dtype=bool)
        for _ in range(20):
            base = rng.uniform(0.5, 8.0, 16)
            j = int(rng.integers(0, 16))
            hit = base.copy()
            hit[j] = 0.0
            ref, _ = known_bit_ga_channels(base, none_known)
            out, _ = known_bit_ga_channels(hit, none_known)
            assert np.all(out <= ref + 1e-9)

    def test_dead_pair_passes_through(self):
        for g_mode in ("sum", "product"):
            for stage0 in ([4.0, 0.0], [0.0, 4.0], [0.0, 0.0]):
                assert evolve_reliabilities(stage0, g_mode).tolist() == stage0

    def test_butterfly_evaluates_only_live_pairs(self):
        stage0 = design_snr_to_llr_mean(0.0) * np.bincount(
            shortening_pattern("NAT_PD", 64, 40).tx_positions(64), minlength=64)
        hold = stage0 == 0.0
        seen = []

        def pair(a, b):
            seen.append((a.copy(), b.copy()))
            return a + b, a * b + 1.0

        stages = recorded_stages(stage0, pair, hold)
        assert len(seen) == 6
        for s, (a, b) in enumerate(seen):
            d = 1 << s
            live = ~hold.reshape(-1, 2, d).any(axis=1)
            before = stages[s].reshape(-1, 2, d)
            after = stages[s + 1].reshape(-1, 2, d)
            assert 0 < live.sum() < live.size
            np.testing.assert_array_equal(a, before[:, 0][live])
            np.testing.assert_array_equal(b, before[:, 1][live])
            np.testing.assert_array_equal(after[:, 0][live], a + b)
            np.testing.assert_array_equal(after[:, 1][live], a * b + 1.0)
            for half in (0, 1):
                np.testing.assert_array_equal(after[:, half][~live], before[:, half][~live])

    def test_live_zero_mean_is_not_dead(self):
        # Stage one drives position 2 to a live mean of exactly 0 (phi is
        # clamped at 1 below about 0.03).  Only stage-0 zeros are dead, so at
        # stage two the pair (2.28, 0) gets the plain update, as in GA with
        # no known bits, instead of passing through.
        stage0 = [4.0, 4.0, 0.01, 0.01]
        for g_mode in ("sum", "product"):
            ref, _ = known_bit_ga_channels(stage0, np.zeros(4, dtype=bool), g_mode)
            np.testing.assert_array_equal(evolve_reliabilities(stage0, g_mode), ref)
        assert evolve_reliabilities(stage0)[2] > 2.0

    def test_guard_leaves_untouched_subtrees_alone(self):
        # A dead pair passes through, so positions outside the aligned block
        # containing the zeroed entry are unchanged stage by stage.
        rng = np.random.default_rng(4)
        for _ in range(20):
            base = rng.uniform(0.5, 8.0, 16)
            j = int(rng.integers(0, 16))
            hit = base.copy()
            hit[j] = 0.0
            ref = recorded_stages(base, numerics.nupga_pair, base == 0.0)
            out = recorded_stages(hit, numerics.nupga_pair, hit == 0.0)
            for s in range(1, len(ref)):
                block = np.arange(16) >> s == j >> s
                np.testing.assert_array_equal(out[s][~block], ref[s][~block])


class TestEvolveBitIdentity:
    """Evolving with the frozen reference bisection gives the same floats.

    The reference solves every pair target on its own; ``phi_inv`` solves
    each distinct target once, which must change no evolved mean.
    """

    @staticmethod
    def _stage0(N, kind, design_snr_db):
        base = design_snr_to_llr_mean(design_snr_db)
        stage0 = np.full(N, base)
        if kind in PATTERN_METHODS:
            stage0[shortening_pattern(kind, N, 5 * N // 8).indices] = 0.0
        elif kind == "tail":
            stage0[N // 2 + 1 :] += base
        return stage0

    @pytest.mark.parametrize("g_mode", ["sum", "product"])
    @pytest.mark.parametrize("kind", ["mother", "NAT_PD", "RQUP", "CW", "tail"])
    @pytest.mark.parametrize("N, design_snr_db", [(64, 3.0), (512, -2.0), (1024, 0.0)])
    def test_matches_reference_bisection(self, monkeypatch, N, design_snr_db, kind, g_mode):
        stage0 = self._stage0(N, kind, design_snr_db)
        got = evolve_reliabilities(stage0, g_mode)
        monkeypatch.setattr(numerics, "phi_inv", ga_reference.phi_inv)
        assert np.array_equal(got, evolve_reliabilities(stage0, g_mode))


class TestKnownBitReference:
    """The pass-through evolution is GA of the channel the decoder sees.

    The decoder feeds shortened positions at ``KNOWN_ZERO_LLR``; the
    reference carries them as an explicit known mask, where f(a, inf) = a
    and g(a, inf) = inf.  Evolving the pattern-zeroed stage-0 vector must
    give the same mean at every live position, in both g-modes, and 0 at
    every shortened one (the shortened set is invariant under the
    butterfly when it is closed upward).
    """

    CASES = [
        (4, 3, [3], 0.0),  # the size-4 worked example
        (512, 400, "NAT_PD", 0.0),  # the criterion-8 parameters
        (512, 320, "NAT_PD", 0.0),
        (512, 320, "CW", 0.0),
        (512, 320, "RQUP", 0.0),
        (1024, 700, "RQUP", -2.0),
        (4096, 3000, "NAT_PD", 0.0),
        (1024, 513, "CW", -2.0),
        (512, 257, "NAT_PD", -2.0),
    ]

    @staticmethod
    def _compare(N, M, pattern, design_snr_db, g_mode):
        shortened = np.zeros(N, dtype=bool)
        shortened[shortening_pattern(pattern, N, M).indices if isinstance(pattern, str) else pattern] = True
        stage0 = np.full(N, design_snr_to_llr_mean(design_snr_db))
        stage0[shortened] = 0.0
        ref, known = known_bit_ga_channels(stage0, shortened, g_mode)
        np.testing.assert_array_equal(known, shortened)
        return evolve_reliabilities(stage0, g_mode), ref, ~known

    @pytest.mark.parametrize("g_mode", ["sum", "product"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
    def test_matches_at_every_live_position(self, case, g_mode):
        got, ref, live = self._compare(*case, g_mode)
        np.testing.assert_array_equal(got[live], ref[live])
        assert not got[~live].any()


class TestSelect:
    def test_worked_example(self):
        mask = select_information_set([0.21, 1.64, 2.28, 0.0], 2)
        assert (~mask).astype(int).tolist() == [0, 1, 1, 0]

    def test_all_information(self):
        mask = select_information_set([1.0, 2.0, 3.0, 4.0], 4)
        assert not mask.any()

    def test_tie_breaks_to_lower_index(self):
        mask = select_information_set([1.0, 1.0, 1.0, 1.0], 1)
        assert (~mask).astype(int).tolist() == [1, 0, 0, 0]

    def test_deficit_error_names_shortfall(self):
        with pytest.raises(ConstructionError, match="deficit 2"):
            select_information_set([1.0, 0.0, 0.0, 2.0], 4)

    def test_rejects_negative_count(self):
        # order[:K] with K < 0 would unfreeze N + K positions.
        for K in (-2, -1):
            with pytest.raises(ConstructionError, match=f"payload length {K} is negative"):
                select_information_set(np.arange(1.0, 9.0), K)

    def test_rejects_rel_that_is_not_one_dimensional(self):
        # A 2-D rel would be ranked as one flat vector: K = 1 unfroze 4 of 8.
        for rel in (np.arange(1.0, 9.0).reshape(2, 4), np.float64(3.0)):
            with pytest.raises(ConstructionError, match="one-dimensional"):
                select_information_set(rel, 1)

    def test_rejects_fractional_count(self):
        # Rejected, not truncated to K = 3; a whole float is no count either,
        # as in ExperimentConfig.
        for K in (3.7, 3.0, True):
            with pytest.raises(ConstructionError, match="payload length must be a whole number"):
                select_information_set([1.0, 2.0, 3.0, 4.0], K)
        assert np.count_nonzero(~select_information_set([1.0, 2.0, 3.0, 4.0], np.int64(3))) == 3


class TestMotherCode:
    def test_tiny(self):
        spec = build_mother_code(2, 2)
        assert info_mask(spec) == [1, 1]

    def test_determinism(self):
        a = build_mother_code(128, 64)
        b = build_mother_code(128, 64)
        assert np.array_equal(a.frozen_mask, b.frozen_mask)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConstructionError):
            build_mother_code(96, 48)
        # Rejected, not truncated to N = 64; a whole float is rejected too,
        # for N and K alike, as ExperimentConfig(N=64.0) is.
        for N, K in ((64.5, 32), (64.0, 32), (8, 4.0), (8, True)):
            with pytest.raises(ConstructionError, match="must be a whole number"):
                build_mother_code(N, K)
        assert build_mother_code(np.int64(64), np.uint64(32)).mother_len == 64

    @pytest.mark.parametrize("design_snr_db", [4000.0, float("inf"), float("nan")], ids=["4000", "inf", "nan"])
    def test_rejects_non_finite_design_point(self, design_snr_db):
        # 4000 dB overflows S, inf is infinite and NaN is no point at all.
        for build in (build_mother_code, build_bec_code):
            with pytest.raises(ConstructionError, match="non-finite LLR mean"):
                build(64, 32, design_snr_db)

    def test_agrees_with_bec_oracle_at_matched_point(self):
        # Informational cross-check: the GA mask at 0 dB and the exact BEC
        # mask at the matched Bhattacharyya parameter exp(-S) should agree
        # on the vast majority of positions.
        N, K = 1024, 512
        ga = build_mother_code(N, K).frozen_mask
        bec = bec_construct(np.full(N, np.exp(-1.0)), K)
        agreement = np.mean(ga == bec)
        assert agreement >= 0.95

    def test_design_snr_shift_moves_few_positions(self):
        a = build_mother_code(256, 128, design_snr_db=0.0).frozen_mask
        b = build_mother_code(256, 128, design_snr_db=1.0).frozen_mask
        assert np.mean(a != b) <= 0.05


class TestShorteningPattern:
    def test_nat_pd(self):
        assert shortening_pattern("NAT_PD", 4, 3).indices.tolist() == [3]
        assert shortening_pattern("NAT_PD", 8, 5).indices.tolist() == [5, 6, 7]

    def test_rqup_by_explicit_bit_reversal(self):
        # Enumerate 3-bit reversals: the two largest land on indices 3, 7.
        rev = bit_reverse(np.arange(8), 3)
        expect = np.sort(np.argsort(rev)[-2:])
        got = shortening_pattern("RQUP", 8, 6).indices
        np.testing.assert_array_equal(got, expect)
        assert got.tolist() == [3, 7]

    def test_cw_smallest_case(self):
        # Column 4 of the 4x4 generator is the only weight-1 column.
        gen = np.kron(np.array([[1, 0], [1, 1]]), np.array([[1, 0], [1, 1]]))
        assert gen.sum(axis=0).tolist() == [4, 2, 2, 1]
        assert shortening_pattern("CW", 4, 3).indices.tolist() == [3]

    def test_cw_prefers_low_weight_columns(self):
        # N=16, 5 removals: the weight-1 column, then all four weight-2
        # columns; distinct from the bit-reversal pattern.
        got = shortening_pattern("CW", 16, 11).indices.tolist()
        assert got == [7, 11, 13, 14, 15]
        rq = shortening_pattern("RQUP", 16, 11).indices.tolist()
        assert got != rq

    def test_cw_matches_dense_reduction_at_every_m(self):
        for n in range(2, 8):
            N = 1 << n
            for M in range(N // 2 + 1, N):
                np.testing.assert_array_equal(
                    shortening_pattern("CW", N, M).indices, dense_cw_pattern(N, M), err_msg=f"{N}/{M}"
                )

    @pytest.mark.parametrize("N, M", [(512, 320), (1024, 576), (1024, 700), (1024, 960)])
    def test_cw_matches_dense_reduction(self, N, M):
        np.testing.assert_array_equal(shortening_pattern("CW", N, M).indices, dense_cw_pattern(N, M))

    def test_patterns_are_superset_closed(self):
        # Shortening validity: any position in the pattern must have all of
        # its bit-supersets (i | 2^b) in the pattern as well.  Checked for
        # every method, N = 4..1024 and a grid of M (every M up to N = 64).
        # On such a set a shortened position is only ever paired with a
        # shortened partner or as the upper input of a live one, which is
        # what makes the pass-through exact (see TestKnownBitReference).
        for n in range(2, 11):
            N = 1 << n
            grid = range(N // 2 + 1, N) if N <= 64 else np.linspace(N // 2 + 1, N - 1, 7).astype(int)
            for M in grid:
                for method in PATTERN_METHODS:
                    shortened = np.zeros(N, dtype=bool)
                    shortened[shortening_pattern(method, N, int(M)).indices] = True
                    members = np.flatnonzero(shortened)
                    for b in range(n):
                        assert shortened[members | (1 << b)].all(), (method, N, int(M), b)

    def test_range_errors(self):
        with pytest.raises(ConstructionError):
            shortening_pattern("NAT_PD", 8, 4)
        with pytest.raises(ConstructionError):
            shortening_pattern("XYZ", 8, 6)
        # A fractional M is a construction error, not a TypeError or a
        # truncation; so is a whole float, M = N (the mother code) included.
        for method in PATTERN_METHODS:
            for M in (40.5, 40.0, 64.0):
                with pytest.raises(ConstructionError, match="shortened length must be a whole number"):
                    shortening_pattern(method, 64, M)
                with pytest.raises(ConstructionError, match="shortened length must be a whole number"):
                    build_shortened_code(64, M, 20, method)
            with pytest.raises(ConstructionError, match="payload length must be a whole number"):
                build_shortened_code(64, 40, 20.0, method)
        assert build_shortened_code(64, np.int64(40), 20, "CW").tx_len == 40


class TestBuildShortened:
    def test_worked_example_keep_mask(self):
        # The worked example's keep-mask [1, 1, 1, 0] is NAT_PD at 4 -> 3.
        spec = build_shortened_code(4, 3, 2, "NAT_PD")
        assert info_mask(spec) == [0, 1, 1, 0]
        assert spec.pattern.indices.tolist() == [3]
        assert np.bincount(spec.tx_positions, minlength=4).tolist() == [1, 1, 1, 0]

    def test_full_length_collapses_to_mother(self):
        a = build_shortened_code(8, 8, 4, "CW")
        b = build_mother_code(8, 4)
        assert np.array_equal(a.frozen_mask, b.frozen_mask)
        assert a.pattern.kind == "none"

    def test_pattern_inputs_always_frozen(self):
        for method in ("NAT_PD", "RQUP", "CW"):
            spec = build_shortened_code(64, 48, 24, method)
            assert spec.frozen_mask[spec.pattern.indices].all()
            assert spec.construction_method == "NUPGA_shortened"

    def test_baseline_keeps_mother_order(self):
        spec = build_shortened_code(64, 48, 24, "NAT_PD", repolarize=False)
        assert spec.construction_method == "GA_uniform"
        rel = evolve_reliabilities(np.full(64, 4.0))
        rel[48:] = 0.0
        np.testing.assert_array_equal(spec.frozen_mask, select_information_set(rel, 24))

    def test_rejects_mismatched_pattern(self):
        # Only a name from PATTERN_METHODS builds, at every M: the full
        # length, which builds the mother code, checks the name too.
        with pytest.raises(ConstructionError):
            build_shortened_code(8, 6, 3, [1, 2, 3])
        for M in (40, 63, 64):
            for pattern in ("BOGUS", "nat_pd", ["NAT_PD"], [1] * M + [0] * (64 - M), np.arange(M, 64),
                            RateMatchPattern("shorten", np.arange(M, 64)), None):
                with pytest.raises(ConstructionError, match="unknown shortening method"):
                    build_shortened_code(64, M, 32, pattern)


class TestBuildExtended:
    def test_fig11_shape(self):
        spec = build_extended_code(256, 24, 128)
        assert spec.tx_len == 280
        assert spec.pattern.kind == "extend"
        assert len(spec.pattern) == 24
        assert spec.construction_method == "NUPGA_extended"

    def test_repeated_positions_gain_reliability(self):
        N, dM = 64, 12
        mother_rel = evolve_reliabilities(np.full(N, 4.0))
        stage0 = np.full(N, 4.0)
        spec = build_extended_code(N, dM, 32)
        stage0[spec.pattern.indices] = 8.0
        ext_rel = evolve_reliabilities(stage0)
        assert np.all(ext_rel >= mother_rel - 1e-9)
        assert np.all(ext_rel[spec.pattern.indices] >= mother_rel[spec.pattern.indices])

    def test_repeated_positions_count_twice(self):
        # The builder's stage-0 mean is doubled exactly at the repeated
        # positions; at these parameters that moves the mask off the mother's.
        spec = build_extended_code(256, 24, 128)
        stage0 = np.full(256, 4.0)
        stage0[spec.pattern.indices] = 8.0
        expected = select_information_set(evolve_reliabilities(stage0), 128)
        np.testing.assert_array_equal(spec.frozen_mask, expected)
        assert not np.array_equal(spec.frozen_mask, build_mother_code(256, 128).frozen_mask)

    def test_weak_info_targets_least_reliable_information(self):
        spec = build_extended_code(64, 8, 32, repeat="weak_info")
        mother = build_mother_code(64, 32)
        rel = evolve_reliabilities(np.full(64, 4.0))
        info = mother.info_positions
        weakest = np.sort(info[np.argsort(rel[info], kind="stable")[:8]])
        np.testing.assert_array_equal(spec.pattern.indices, weakest)

    def test_saturating_product_mode_is_silent(self):
        # Product-mode means here saturate near the float maximum, where
        # phi's large branch overflows 7 x on the way to its value of 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = build_extended_code(4096, 2047, 2048, -2.0, "product")
        assert spec.payload_len == 2048

    def test_range_checks(self):
        with pytest.raises(ConstructionError):
            build_extended_code(8, 4, 4)  # delta_M must stay below N/2
        with pytest.raises(ConstructionError, match="0 < delta_M < N/2, got 0"):
            build_extended_code(8, 0, 4)  # and above 0: build_mother_code makes M = N
        with pytest.raises(ConstructionError):
            build_extended_code(8, 3, 0)
        # Rejected, not truncated to delta_M = 16 or to positions 60, 61, 62.
        # A scalar length must be an integer, a whole float too; the
        # pattern's index array still takes whole floats.
        for delta_M, K in ((16.7, 40), (16.0, 40), (16, 40.0)):
            with pytest.raises(ConstructionError, match="length must be a whole number"):
                build_extended_code(64, delta_M, K)
        with pytest.raises(ConstructionError, match="whole numbers"):
            RateMatchPattern("extend", [60.5, 61.5, 62.9])
        assert build_extended_code(64, np.int64(16), 40).tx_len == 80
        # Nor read as 1: a boolean is not a whole number.
        with pytest.raises(ConstructionError, match="extension length must be a whole number"):
            build_extended_code(8, True, 3)
        with pytest.raises(ConstructionError, match="whole numbers"):
            RateMatchPattern("extend", [True, 5])
        assert RateMatchPattern("extend", [60.0, 61.0, 62.0]).indices.tolist() == [60, 61, 62]
        with pytest.raises(ConstructionError, match="delta_M <= K"):
            build_extended_code(8, 3, 2, repeat="weak_info")
        with pytest.raises(ConstructionError, match="unknown repeat rule"):
            build_extended_code(8, 1, 3, repeat="head")
        # Only a name from REPEAT_RULES builds, not explicit positions.
        with pytest.raises(ConstructionError, match="unknown repeat rule"):
            build_extended_code(8, 2, 3, repeat=[7])


class TestBecConstruct:
    def test_uniform_half(self):
        mask = bec_construct([0.5, 0.5], 1)
        assert (~mask).astype(int).tolist() == [0, 1]

    def test_non_uniform(self):
        mask = bec_construct([0.2, 0.5], 1)
        assert (~mask).astype(int).tolist() == [0, 1]

    def test_matches_exhaustive_oracle(self):
        eps = np.full(8, 0.5)
        final = evolve_bec(eps)
        np.testing.assert_allclose(final, exact_bec_channels(eps), atol=1e-15)
        mask = bec_construct(eps, 4)
        expect = np.ones(8, dtype=bool)
        expect[np.argsort(exact_bec_channels(eps), kind="stable")[:4]] = False
        np.testing.assert_array_equal(mask, expect)

    def test_capacity_conserved_every_stage(self):
        rng = np.random.default_rng(11)
        eps = rng.uniform(0.0, 1.0, 64)
        stages = block_stages(evolve_bec, eps)
        target = np.sum(1.0 - eps)
        for stage in stages:
            assert abs(np.sum(1.0 - stage) - target) < 1e-9

    def test_build_bec_code(self):
        # The erasure matches the design point through exp(-S).
        spec = build_bec_code(64, 24, design_snr_db=2.0, g_mode="product")
        expect = bec_construct(np.full(64, np.exp(-(10.0 ** 0.2))), 24)
        np.testing.assert_array_equal(spec.frozen_mask, expect)
        assert (spec.construction_method, spec.g_mode, spec.tx_len) == ("BEC_oracle", "product", 64)
        for K in (0, 65):
            with pytest.raises(ConstructionError):
                build_bec_code(64, K)

    def test_rejects_bad_inputs(self):
        for eps in ([0.5, 0.5, 0.5], [0.5, 1.2], [0.5, -0.1], [np.nan, 0.5]):
            with pytest.raises(ConstructionError):
                evolve_bec(eps)
        with pytest.raises(ConstructionError):
            bec_construct([np.nan, 0.5, 0.5, 0.5], 2)
        for K in (3.7, 3.0):
            with pytest.raises(ConstructionError, match="payload length must be a whole number"):
                bec_construct(np.full(8, 0.5), K)
        with pytest.raises(ConstructionError, match="one-dimensional"):
            evolve_bec(np.full((2, 2), 0.5))
        for K in (-1, 9):
            with pytest.raises(ConstructionError, match="payload length"):
                bec_construct(np.full(8, 0.5), K)


class TestCodeSpec:
    def test_json_round_trip_uses_one_based_indices(self):
        spec = build_shortened_code(8, 6, 3, "NAT_PD")
        doc = json.loads(spec.to_json())
        assert doc["pattern"]["indices"] == [7, 8]
        back = CodeSpec.from_json(spec.to_json())
        assert np.array_equal(back.frozen_mask, spec.frozen_mask)
        assert back.pattern == spec.pattern
        assert back.tx_len == spec.tx_len
        assert back.to_json() == spec.to_json()

    def test_validation(self):
        with pytest.raises(ConstructionError):
            CodeSpec(8, 3, 8, np.zeros(8, dtype=bool), RateMatchPattern())
        with pytest.raises(ConstructionError):
            CodeSpec(8, 2, 6, np.array([1, 1, 1, 1, 1, 0, 0, 1], dtype=bool),
                     RateMatchPattern("shorten", [5, 6]))
        for kind, indices, match in (("cut", [], "unknown pattern kind"), ("shorten", [5, 5], "distinct"),
                                     ("extend", [-1], "non-negative"), ("none", [3], "carries no indices")):
            with pytest.raises(ConstructionError, match=match):
                RateMatchPattern(kind, indices)
        # The checks a document from outside meets; each edit leaves the
        # rest of the mother code's document valid.
        for edit, match in (({"payload_len": 9}, "payload length 9 outside"),
                            ({"construction_method": "GA"}, "unknown construction method"),
                            ({"g_mode": "max"}, "unknown g_mode"),
                            ({"tx_len": 7}, "tx length 7 must equal the 8"),
                            ({"tx_len": 4, "pattern": {"kind": "shorten", "indices": [5, 6, 7, 8]}}, "N/2 < M < N"),
                            # Position 4 (1-based 5) is frozen, but the information positions 5 and 7 cover it.
                            ({"tx_len": 7, "pattern": {"kind": "shorten", "indices": [5]}}, "covering a shortened"),
                            ({"pattern": {"kind": "none", "indices": "x"}}, "pattern indices must be whole"),
                            ({"pattern": {"kind": "none", "indices": [None, None]}}, "pattern indices must be whole"),
                            ({"pattern": {"kind": "none", "indices": [float("inf")]}}, "pattern indices must be whole"),
                            ({"design_snr_db": "abc"}, "design_snr_db must be a number"),
                            ({"design_snr_db": None}, "design_snr_db must be a number"),
                            # A length is an integer, as in ExperimentConfig: 8.0 is not one.
                            ({"mother_len": 8.0}, "mother length must be a whole number"),
                            ({"payload_len": 3.0}, "payload length must be a whole number"),
                            ({"tx_len": 8.0}, "tx length must be a whole number"),
                            ({"tx_len": True}, "tx length must be a whole number")):
            doc = json.loads(build_mother_code(8, 3).to_json()) | edit
            with pytest.raises(ConstructionError, match=match):
                CodeSpec.from_json(json.dumps(doc))
        # A document that is not a JSON object has every key missing.
        with pytest.raises(ConstructionError, match="CodeSpec document: missing keys"):
            CodeSpec.from_json("[]")
        # A pattern must be a RateMatchPattern, not its document.
        for pattern in ({"kind": "none", "indices": []}, "NAT_PD", None):
            with pytest.raises(ConstructionError, match="pattern must be a RateMatchPattern"):
                CodeSpec(8, 4, 8, np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=bool), pattern)

    @pytest.mark.parametrize("N, M, K, removed", [(4, 3, 2, [1]), (8, 6, 3, [1, 2]), (8, 7, 4, [2])])
    def test_rejects_information_covering_a_shortened_position(self, N, M, K, removed):
        # Each shortened position is frozen, but an information position
        # whose index covers its bits would make encode send a one there:
        # the mother code's order skipping the pattern unfreezes N - 1.
        rel = evolve_reliabilities(np.full(N, 4.0))
        rel[removed] = 0.0
        with pytest.raises(ConstructionError, match="covering a shortened position must be frozen"):
            CodeSpec(N, K, M, select_information_set(rel, K), RateMatchPattern("shorten", removed))

    def test_shortened_spec_builds_exactly_when_encode_sends_zeros(self):
        # A spec builds exactly when no information row of the generator
        # has a one at a shortened position, on random masks and patterns.
        rng = np.random.default_rng(25)
        for _ in range(300):
            N = int(rng.choice([4, 8, 16]))
            M = int(rng.integers(N // 2 + 1, N))
            removed = rng.choice(N, N - M, replace=False)
            info = rng.choice(np.setdiff1d(np.arange(N), removed), int(rng.integers(0, 4)), replace=False)
            mask = np.ones(N, dtype=bool)
            mask[info] = False
            sendable = not kronecker_generator(N)[np.ix_(info, removed)].any()
            try:
                CodeSpec(N, info.size, M, mask, RateMatchPattern("shorten", removed))
                built = True
            except ConstructionError:
                built = False
            assert built == sendable, (N, removed.tolist(), info.tolist())

    @pytest.mark.parametrize("spec, text", [
        (build_shortened_code(8, 6, 3, "NAT_PD"),
         '''{
  "mother_len": 8,
  "payload_len": 3,
  "tx_len": 6,
  "frozen_mask": [
    1,
    0,
    1,
    0,
    1,
    0,
    1,
    1
  ],
  "pattern": {
    "kind": "shorten",
    "indices": [
      7,
      8
    ]
  },
  "design_snr_db": 0.0,
  "construction_method": "NUPGA_shortened",
  "g_mode": "sum"
}'''),
        (build_extended_code(8, 1, 3),
         '''{
  "mother_len": 8,
  "payload_len": 3,
  "tx_len": 9,
  "frozen_mask": [
    1,
    1,
    1,
    0,
    1,
    0,
    1,
    0
  ],
  "pattern": {
    "kind": "extend",
    "indices": [
      8
    ]
  },
  "design_snr_db": 0.0,
  "construction_method": "NUPGA_extended",
  "g_mode": "sum"
}'''),
    ], ids=["shortened", "extended"])
    def test_document_bytes(self, spec, text):
        # The document's exact bytes: key order, 0/1 mask, 1-based positions.
        assert spec.to_json(indent=2) == text
        assert spec.to_json() == json.dumps(json.loads(text))
        assert CodeSpec.from_json(text) == spec

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc.pop("g_mode"), r"missing keys \['g_mode'\], unknown keys \[\]"),
        (lambda doc: doc.update(rate=0.5), r"missing keys \[\], unknown keys \['rate'\]"),
        (lambda doc: doc["pattern"].pop("kind"), r"RateMatchPattern document: missing keys \['kind'\]"),
        (lambda doc: doc["pattern"].update(repeat="tail"), r"RateMatchPattern document: .*unknown keys \['repeat'\]"),
        (lambda doc: doc.update(pattern=[8]), r"missing keys \['indices', 'kind'\]"),
    ], ids=["missing", "unknown", "pattern_missing", "pattern_unknown", "pattern_not_object"])
    def test_document_keys_are_exact(self, edit, match):
        doc = json.loads(build_extended_code(8, 1, 3).to_json())
        edit(doc)
        with pytest.raises(ConstructionError, match=match):
            CodeSpec.from_json(json.dumps(doc))

    def test_out_of_range_pattern_positions(self):
        # One range check serves every path into a spec, for both kinds:
        # the JSON reader and a direct construction.
        for kind, tx_len in (("shorten", 7), ("extend", 9)):
            doc = json.loads(build_mother_code(8, 3).to_json())
            doc["tx_len"] = tx_len
            doc["pattern"] = {"kind": kind, "indices": [9]}
            with pytest.raises(ConstructionError, match="exceed the mother length"):
                CodeSpec.from_json(json.dumps(doc))
        mask = build_mother_code(8, 3).frozen_mask
        with pytest.raises(ConstructionError, match="exceed the mother length"):
            CodeSpec(8, 3, 7, mask, RateMatchPattern("shorten", [8]))
        with pytest.raises(ConstructionError, match="exceed the mother length"):
            CodeSpec(8, 3, 9, mask, RateMatchPattern("extend", [8]))

    @pytest.mark.parametrize("key, value", [
        ("indices", [7.9]), ("frozen_mask", [2, 1, 1, 1, 1, 1, 1, 0]), ("mother_len", 8.7),
        ("design_snr_db", True), ("payload_len", True), ("indices", [True]),
    ], ids=["position", "mask_entry", "mother_len", "design_snr_true", "payload_len_true", "position_true"])
    def test_json_values_are_not_truncated(self, key, value):
        # Each would otherwise load as a valid spec: the 1-based position 7,
        # a frozen first entry, N = 8, a 1 dB design SNR, K = 1 and the
        # 1-based position 1.
        doc = json.loads(build_extended_code(8, 1, 1).to_json())
        (doc["pattern"] if key == "indices" else doc)[key] = value
        with pytest.raises(ConstructionError):
            CodeSpec.from_json(json.dumps(doc))

    def test_equality(self):
        spec = build_mother_code(8, 4)
        assert spec == build_mother_code(8, 4)
        assert spec == CodeSpec.from_json(spec.to_json())
        assert spec != build_mother_code(8, 4, g_mode="product")
        other_mask = CodeSpec(8, 4, 8, [1, 1, 1, 1, 0, 0, 0, 0], RateMatchPattern())
        assert spec != other_mask
        assert spec != spec.to_json()

    def test_frozen_mask_read_only(self):
        spec = build_mother_code(8, 4)
        with pytest.raises(ValueError):
            spec.frozen_mask[0] = False
