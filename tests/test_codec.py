import tracemalloc
import warnings

import numpy as np
import pytest

import scl_reference
from nupolar import codec
from nupolar.channel import ChannelConfig, frame_draws
from nupolar.codec import (
    CRC24,
    CrcConfig,
    ca_scl_decode_batch,
    crc_append,
    crc_check,
    encode,
    f_exact,
    f_minsum,
    _ListDecoder,
    _g,
    _penalties,
    sc_decode_batch,
    scl_decode_batch,
)
from nupolar.construction import (
    PATTERN_METHODS,
    CodeSpec,
    RateMatchPattern,
    build_extended_code,
    build_mother_code,
    build_shortened_code,
)
from nupolar.numerics import KNOWN_ZERO_LLR
from nupolar.oracles import dense_encode, ml_codeword_scores, ml_decode
from nupolar.ratematch import dematch, tx_frame
from scl_reference import reference_scl_decode_batch
from random_codes import EXTREME_LLRS, random_cases


def awgn_llrs(codewords, sigma, rng):
    symbols = 1.0 - 2.0 * codewords
    y = symbols + rng.normal(0.0, sigma, codewords.shape)
    return 2.0 * y / sigma**2


def assert_single_frames_are_batch_rows(decode, llr):
    """Each ``(N,)`` frame of ``llr`` decodes to exactly its row of the
    batch decode, in every output that is not ``None``."""
    batch = decode(llr)
    for i, frame in enumerate(llr):
        single = decode(frame)
        assert len(single) == len(batch)
        for got, want in zip(single, batch):
            if want is None:
                assert got is None
                continue
            assert got.shape == (1,) + want.shape[1:]
            assert np.array_equal(got[0], want[i]), f"frame {i}"


def sc_probability_reference(spec, llr):
    """Probability-domain SC decoding straight from the channel-splitting
    definition; shares no arithmetic with the LLR implementation."""
    frozen = spec.frozen_mask
    u_hat = np.zeros(spec.mother_len, dtype=np.uint8)

    def rec(w0, w1, offset, stride):
        if w0.size == 1:
            if frozen[offset]:
                bit = 0
            else:
                bit = 0 if w0[0] >= w1[0] else 1
            u_hat[offset] = bit
            return np.array([bit], dtype=np.uint8)
        a0, a1 = w0[0::2], w1[0::2]
        b0, b1 = w0[1::2], w1[1::2]
        even0 = 0.5 * (a0 * b0 + a1 * b1)
        even1 = 0.5 * (a0 * b1 + a1 * b0)
        x_left = rec(even0, even1, offset, 2 * stride)
        odd0 = 0.5 * np.where(x_left == 0, a0, a1) * b0
        odd1 = 0.5 * np.where(x_left == 0, a1, a0) * b1
        x_right = rec(odd0, odd1, offset + stride, 2 * stride)
        out = np.empty_like(w0, dtype=np.uint8)
        out[0::2] = x_left ^ x_right
        out[1::2] = x_right
        return out

    w1 = 1.0 / (1.0 + np.exp(np.asarray(llr, dtype=np.float64)))
    rec(1.0 - w1, w1, 0, 1)
    return u_hat[spec.info_positions]


class TestEncode:
    def test_length_two(self):
        spec = build_mother_code(2, 2)
        for u in ([0, 0], [0, 1], [1, 0], [1, 1]):
            x = encode(spec, np.array(u, dtype=np.uint8))
            assert x.tolist() == [u[0] ^ u[1], u[1]]

    def test_last_row_all_ones(self):
        spec = build_mother_code(4, 4)
        assert encode(spec, np.array([0, 0, 0, 1], np.uint8)).tolist() == [1, 1, 1, 1]

    def test_matches_dense_kronecker(self):
        rng = np.random.default_rng(0)
        for N in (8, 32, 128, 1024):
            spec = build_mother_code(N, N // 2)
            for shape in ((20, N // 2), (2, 20, N // 2)):
                msgs = rng.integers(0, 2, shape, dtype=np.uint8)
                np.testing.assert_array_equal(encode(spec, msgs), dense_encode(spec, msgs))

    def test_gf2_linearity(self):
        rng = np.random.default_rng(1)
        spec = build_mother_code(64, 40)
        a = rng.integers(0, 2, (50, 40), dtype=np.uint8)
        b = rng.integers(0, 2, (50, 40), dtype=np.uint8)
        np.testing.assert_array_equal(encode(spec, a ^ b), encode(spec, a) ^ encode(spec, b))

    def test_length_check(self):
        spec = build_mother_code(8, 4)
        with pytest.raises(ValueError):
            encode(spec, np.zeros(5, np.uint8))

    @pytest.mark.parametrize("msg", [[2, 0, 0, 0], [0.5, 0, 0, 0], [0, 0, -1, 0], [[0, 1, 1, 0], [0, 0, 0, 255]]])
    def test_rejects_non_binary_bits(self, msg):
        # Not truncated or wrapped to uint8: a 2 would carry through the XOR butterfly.
        with pytest.raises(ValueError, match="0 or 1"):
            encode(build_mother_code(8, 4), np.array(msg))


def walk_g(a, b, u_sum):
    """``_g`` under the error state the decoder walk runs it in."""
    with np.errstate(invalid="ignore", over="ignore"):
        return _g(a, b, u_sum)


class TestNodeFunctions:
    def test_minsum_example(self):
        assert f_minsum(np.array(2.0), np.array(-3.0)) == -2.0

    def test_g_example(self):
        assert walk_g(np.array(1.5), np.array(2.0), np.array(1, dtype=np.uint8)) == 0.5

    def test_exact_matches_tanh_formula(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 3, 1000)
        b = rng.normal(0, 3, 1000)
        direct = 2.0 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
        np.testing.assert_allclose(f_exact(a, b), direct, atol=1e-10)

    def test_saturated_inputs_absorb(self):
        inf = KNOWN_ZERO_LLR
        for f in (f_minsum, f_exact):
            assert f(np.array(inf), np.array(3.5)) == 3.5
            assert f(np.array(inf), np.array(-3.5)) == -3.5
            assert f(np.array(inf), np.array(inf)) == inf
            assert np.isfinite(f(np.array(-inf), np.array(2.0)))
        assert walk_g(np.array(inf), np.array(1.0), np.array(0, np.uint8)) == inf
        assert walk_g(np.array(inf), np.array(1.0), np.array(1, np.uint8)) == -inf
        # contradictory certainties resolve to an erasure, never NaN
        assert walk_g(np.array(inf), np.array(inf), np.array(1, np.uint8)) == 0.0

    def test_bit_identical_to_the_reference_formulas(self):
        # The in-place node updates give the bits of the plain formulas that
        # scl_reference keeps, the sign of zero included, on every pair of
        # edge values (signed zeros, infinities, subnormals, near-overflow
        # magnitudes), on random values salted with them, on 0-d inputs,
        # and on the walk's broadcast of a frame's one row (B, 1, n/2)
        # against the partial codewords of its L paths (B, L, n/2).
        edge = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2e-310, -2e-310,
                         1.0, -2.5, 1e308, -1e308])
        rng = np.random.default_rng(28)
        noise = rng.normal(0.0, 8.0, (2, 10_000))
        noise = np.where(rng.random(noise.shape) < 0.2, rng.choice(edge, noise.shape), noise)
        a = np.concatenate([np.repeat(edge, edge.size), noise[0]])
        b = np.concatenate([np.tile(edge, edge.size), noise[1]])
        u = rng.integers(0, 2, a.shape, dtype=np.uint8)
        rows = rng.choice(edge, (6, 1, 64))  # B = 6 frames, n = 64
        paths = rng.integers(0, 2, (6, 8, 32), dtype=np.uint8)  # L = 8
        pairs = [(a, b, u), (rows[..., 0::2], rows[..., 1::2], paths)]
        pairs += [(np.array(x), np.array(y), np.array(v, np.uint8))
                  for x, y in zip(edge, edge[::-1]) for v in (0, 1)]
        for x, y, v in pairs:
            with np.errstate(over="ignore"):  # sums near 1e308 overflow to inf on both sides
                results = ((f_minsum(x, y), scl_reference.f_minsum(x, y)),
                           (f_exact(x, y), scl_reference.f_exact(x, y)),
                           (walk_g(x, y, v), scl_reference.g_node(x, y, v)))
            for got, want in results:
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))

    def test_leaf_penalties_equal_two_logaddexps(self):
        # One logaddexp gives both candidates' penalties bit for bit, edge
        # values included: signed zeros, infinities, the smallest subnormal,
        # near-overflow magnitudes and exp's overflow/underflow limits.
        edge = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, 709.78, -709.78, -745.2, 745.2]
        lam = np.concatenate([edge, np.random.default_rng(7).normal(0.0, 8.0, 100_000)])
        zero, one = _penalties(lam)
        assert np.array_equal(zero.view(np.uint64), np.logaddexp(0.0, -lam).view(np.uint64))
        assert np.array_equal(one.view(np.uint64), np.logaddexp(0.0, lam).view(np.uint64))


class TestScDecode:
    def test_noiseless_roundtrip(self):
        rng = np.random.default_rng(3)
        spec = build_mother_code(256, 128)
        msgs = rng.integers(0, 2, (30, 128), dtype=np.uint8)
        llr = 25.0 * (1.0 - 2.0 * encode(spec, msgs))
        out, _ = sc_decode_batch(spec, llr)
        np.testing.assert_array_equal(out, msgs)

    def test_zero_llr_resolves_to_zero(self):
        spec = build_mother_code(4, 4)
        msgs, _ = sc_decode_batch(spec, np.zeros(4))
        assert msgs[0].tolist() == [0, 0, 0, 0]

    def test_rejects_nan(self):
        spec = build_mother_code(4, 2)
        with pytest.raises(ValueError):
            sc_decode_batch(spec, np.array([1.0, np.nan, 0.5, 2.0]))
        for frames in (np.zeros(5), np.zeros((2, 8)), np.zeros((1, 2, 4))):
            with pytest.raises(ValueError, match="LLR frame length"):
                sc_decode_batch(spec, frames)

    def test_matches_probability_domain_reference(self):
        # 1000 noisy frames at 3 dB, N=8/K=4; the exact-rule LLR decoder and
        # the definitional probability recursion must make identical
        # frame-level decisions.
        rng = np.random.default_rng(4)
        spec = build_mother_code(8, 4)
        sigma = np.sqrt(1.0 / (2.0 * 0.5 * 10 ** (3.0 / 10)))
        msgs = rng.integers(0, 2, (1000, 4), dtype=np.uint8)
        llr = awgn_llrs(encode(spec, msgs), sigma, rng)
        ours, _ = sc_decode_batch(spec, llr, rule="exact")
        for i in range(1000):
            np.testing.assert_array_equal(ours[i], sc_probability_reference(spec, llr[i]), err_msg=f"frame {i}")

    def test_minsum_close_to_exact_at_high_snr(self):
        rng = np.random.default_rng(5)
        spec = build_mother_code(128, 64)
        sigma = np.sqrt(1.0 / (2.0 * 0.5 * 10 ** (4.0 / 10)))
        msgs = rng.integers(0, 2, (200, 64), dtype=np.uint8)
        llr = awgn_llrs(encode(spec, msgs), sigma, rng)
        ms, _ = sc_decode_batch(spec, llr, rule="minsum")
        ex, _ = sc_decode_batch(spec, llr, rule="exact")
        assert np.mean(ms == ex) >= 0.99

    def test_rate1_tie_is_not_the_hard_decision(self):
        # On a Rate-1 code SC's tie rule (an LLR of exactly 0 gives bit 0)
        # applies to the source bits, not the code bits: the decoded
        # codeword differs from the hard decision on the node LLRs.
        spec = build_mother_code(2, 2)
        llr = np.array([0.0, -3.0])
        msgs, _ = sc_decode_batch(spec, llr)
        assert msgs[0].tolist() == [0, 1]
        assert encode(spec, msgs[0]).tolist() == [1, 1]
        assert (llr < 0).astype(np.uint8).tolist() == [0, 1]

    def test_all_frozen_spec(self):
        spec = CodeSpec(8, 0, 8, np.ones(8, dtype=bool), RateMatchPattern())
        msgs, _ = sc_decode_batch(spec, np.random.default_rng(6).normal(0, 2, 8))
        assert msgs[0].size == 0
        assert encode(spec, msgs[0]).tolist() == [0] * 8
        # No information leaf runs, so the root keeps one row per frame.
        lists, pm = scl_decode_batch(spec, np.random.default_rng(6).normal(0, 2, (3, 8)), 4)
        assert lists.shape == (3, 4, 0)
        assert np.isfinite(pm[:, 0]).all() and np.isinf(pm[:, 1:]).all()

    def test_keeps_no_metric(self):
        # SC with its path metric is the list decoder at L = 1.
        spec = build_mother_code(16, 8)
        llr = np.random.default_rng(23).normal(1.0, 2.0, (5, 16))
        msgs, pm = sc_decode_batch(spec, llr)
        assert msgs.shape == (5, 8) and pm is None
        lists, pm = scl_decode_batch(spec, llr, 1)
        assert np.array_equal(lists[:, 0], msgs) and pm.shape == (5, 1)

    def test_single_frame_is_its_batch_row(self):
        rng = np.random.default_rng(21)
        spec = build_mother_code(64, 32)
        llr = awgn_llrs(encode(spec, rng.integers(0, 2, (20, 32), dtype=np.uint8)), 0.9, rng)
        assert_single_frames_are_batch_rows(lambda f: sc_decode_batch(spec, f), llr)
        # SC with its path metric.
        assert_single_frames_are_batch_rows(lambda f: scl_decode_batch(spec, f, 1), llr)


class TestSclDecode:
    def test_list_one_equals_sc(self):
        rng = np.random.default_rng(7)
        spec = build_mother_code(32, 16)
        msgs = rng.integers(0, 2, (300, 16), dtype=np.uint8)
        llr = awgn_llrs(encode(spec, msgs), 0.9, rng)
        sc_out, _ = sc_decode_batch(spec, llr)
        scl_out, _ = scl_decode_batch(spec, llr, L=1)
        np.testing.assert_array_equal(scl_out[:, 0, :], sc_out)

    def test_full_list_equals_ml(self):
        rng = np.random.default_rng(8)
        spec = build_mother_code(8, 4)
        msgs = rng.integers(0, 2, (300, 4), dtype=np.uint8)
        llr = awgn_llrs(encode(spec, msgs), 0.8, rng)
        best, _ = scl_decode_batch(spec, llr, L=16, rule="exact")
        for i in range(300):
            np.testing.assert_array_equal(best[i, 0], ml_decode(spec, llr[i]), err_msg=f"frame {i}")

    def test_metric_order_matches_exact_likelihood_order(self):
        rng = np.random.default_rng(9)
        spec = build_mother_code(8, 4)
        for trial in range(50):
            msg = rng.integers(0, 2, 4, dtype=np.uint8)
            llr = awgn_llrs(encode(spec, msg[None, :]), 1.0, rng)[0]
            msgs, pm = scl_decode_batch(spec, llr, L=16, rule="exact")
            cands, cws, scores = ml_codeword_scores(spec, llr)
            by_msg = {tuple(m): s for m, s in zip(cands.tolist(), scores)}
            got = [by_msg[tuple(m)] for m in msgs[0, np.isfinite(pm[0])].tolist()]
            assert all(a >= b - 1e-9 for a, b in zip(got, got[1:])), f"trial {trial}"

    def test_threshold_one_keeps_only_best(self):
        rng = np.random.default_rng(10)
        spec = build_mother_code(16, 8)
        llr = awgn_llrs(encode(spec, rng.integers(0, 2, (1, 8), dtype=np.uint8)), 0.9, rng)
        _, pm = scl_decode_batch(spec, llr[0], L=8, threshold=1.0)
        live = pm[0, np.isfinite(pm[0])]
        assert len(live) >= 1
        assert (live == live[0]).all()

    def test_results_sorted_and_ranked(self):
        rng = np.random.default_rng(11)
        spec = build_mother_code(16, 8)
        llr = awgn_llrs(encode(spec, rng.integers(0, 2, (1, 8), dtype=np.uint8)), 1.2, rng)
        _, pm = scl_decode_batch(spec, llr[0], L=8)
        pms = pm[0].tolist()
        assert pms == sorted(pms)
        # The live candidates hold the leading ranks 0, 1, ...
        live = np.isfinite(pm[0])
        assert live[: live.sum()].all()

    def test_single_frame_is_its_batch_row(self):
        rng = np.random.default_rng(21)
        spec = build_mother_code(64, 32)
        llr = awgn_llrs(encode(spec, rng.integers(0, 2, (20, 32), dtype=np.uint8)), 0.9, rng)
        assert_single_frames_are_batch_rows(lambda f: scl_decode_batch(spec, f, L=8, threshold=1e-3), llr)

    def test_frozen_leaves_after_the_last_fork_reorder_paths(self):
        # Position N - 1 is the last leaf decoded.  Frozen here, its penalties
        # re-rank the paths after the last fork, so each message must follow
        # its path into the final metric order.  In the built codes that leaf
        # is an information bit or a shortened one (penalty 0), which leaves
        # the paths in metric order already.
        mask = build_mother_code(16, 8).frozen_mask.copy()
        mask[15] = True
        spec = CodeSpec(16, 7, 16, mask, RateMatchPattern())
        rng = np.random.default_rng(24)
        llr = awgn_llrs(encode(spec, rng.integers(0, 2, (256, 7), dtype=np.uint8)), 1.0, rng)
        for L in (2, 4):
            msgs, pm = scl_decode_batch(spec, llr, L)
            ref_msgs, ref_pm = reference_scl_decode_batch(spec, llr, L, 0.0, "minsum")
            assert np.array_equal(msgs, ref_msgs) and np.array_equal(pm, ref_pm), f"L={L}"

    def test_list_size_validation(self):
        spec = build_mother_code(8, 4)
        with pytest.raises(ValueError):
            scl_decode_batch(spec, np.zeros(8), L=0)
        with pytest.raises(ValueError):
            scl_decode_batch(spec, np.zeros(8), L=2, threshold=1.5)
        # A list size must be an integer, not a float that would be truncated
        # nor a boolean that would read as 1.
        for L in (2.5, 2.0, np.float64(4.0), True):
            with pytest.raises(ValueError, match="whole number"):
                scl_decode_batch(spec, np.zeros(8), L=L)
        with pytest.raises(ValueError, match="pruning threshold must be a number"):
            scl_decode_batch(spec, np.zeros(8), L=2, threshold=True)
        assert scl_decode_batch(spec, np.zeros(8), L=np.int64(2))[0].shape == (1, 2, 4)

    def test_rule_validation(self):
        spec = build_mother_code(8, 4)
        with pytest.raises(ValueError, match="unknown rule"):
            sc_decode_batch(spec, np.zeros(8), rule="x")
        with pytest.raises(ValueError, match="unknown rule"):
            scl_decode_batch(spec, np.zeros(8), L=2, rule="x")
        with pytest.raises(ValueError, match="unknown decoder"):
            codec.message_decoder(spec, "ML", 1)


BIT_IDENTITY_CODES = {
    "mother-64-32": lambda: build_mother_code(64, 32),
    "shortened-512-280-128": lambda: build_shortened_code(512, 280, 128, "NAT_PD"),
    "extended-64-80-40": lambda: build_extended_code(64, 16, 40),
}


class TestSclBitIdentity:
    """The list decoder reproduces the eager reference decoder of
    ``scl_reference`` bit for bit: same messages, same metrics, same order."""

    @pytest.mark.parametrize("threshold", [0.0, 1e-3, 1.0])
    @pytest.mark.parametrize("rule", ["minsum", "exact"])
    @pytest.mark.parametrize("code", sorted(BIT_IDENTITY_CODES))
    def test_matches_reference(self, code, rule, threshold):
        spec = BIT_IDENTITY_CODES[code]()
        rng = np.random.default_rng(22)
        msgs = rng.integers(0, 2, (256, spec.payload_len), dtype=np.uint8)
        frames = dematch(spec, awgn_llrs(tx_frame(spec, encode(spec, msgs)), 0.9, rng))
        if spec.pattern.kind == "shorten":
            assert (frames[:, spec.pattern.indices] == KNOWN_ZERO_LLR).all()
        for L in (1, 2, 16):
            for batch in (frames[:1], frames):
                got_msgs, got_pm = scl_decode_batch(spec, batch, L, threshold, rule)
                ref_msgs, ref_pm = reference_scl_decode_batch(spec, batch, L, threshold, rule)
                assert np.array_equal(got_msgs, ref_msgs), f"messages, L={L}, B={len(batch)}"
                assert np.array_equal(got_pm, ref_pm), f"metrics, L={L}, B={len(batch)}"
                if L == 1:  # SC: its metric is got_pm, checked above
                    sc_msgs, sc_pm = sc_decode_batch(spec, batch, rule)
                    assert np.array_equal(sc_msgs, ref_msgs[:, 0]), f"SC messages, B={len(batch)}"
                    assert sc_pm is None


class TestTop:
    """The top-L of the list decoder is the stable ``argsort``'s, both when
    dead slots put ``inf`` candidates in a leaf and when none is ``inf``."""

    @pytest.mark.parametrize("L", [2, 4, 16])
    def test_equals_stable_argsort(self, L):
        rng = np.random.default_rng(31)
        decoder = _ListDecoder(build_mother_code(8, 4), L, 1e-3, "minsum")
        decoder.rows = np.arange(64)[:, None]
        # Few distinct values, so that finite candidates tie, also at the
        # L-th place; then with a share of inf, up to whole rows of it.
        tied = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0], size=(64, 2 * L))
        for inf_share in (0.0, 0.1, 0.5, 0.9, 1.0):
            for cand in (tied, rng.random((64, 2 * L))):
                cand = np.where(rng.random(cand.shape) < inf_share, np.inf, cand)
                order, top = decoder._top(cand)
                want = np.argsort(cand, axis=1, kind="stable")[:, :L]
                assert np.array_equal(order, want), inf_share
                assert np.array_equal(top, np.take_along_axis(cand, want, axis=1)), inf_share

    @pytest.mark.parametrize("L", [2, 4])
    def test_pruned_shortened_code_matches_reference(self, L):
        # Pruning kills paths at most leaves here, so the stable sort runs on
        # most of them (L = 16 is in TestSclBitIdentity).
        spec = BIT_IDENTITY_CODES["shortened-512-280-128"]()
        rng = np.random.default_rng(32)
        msgs = rng.integers(0, 2, (256, spec.payload_len), dtype=np.uint8)
        frames = dematch(spec, awgn_llrs(tx_frame(spec, encode(spec, msgs)), 0.9, rng))
        got_msgs, got_pm = scl_decode_batch(spec, frames, L, 1e-3)
        ref_msgs, ref_pm = reference_scl_decode_batch(spec, frames, L, 1e-3, "minsum")
        assert np.array_equal(got_msgs, ref_msgs) and np.array_equal(got_pm, ref_pm)
        assert np.isinf(got_pm).any()


class TestListMemory:
    """The list decoder keeps one node input alive per level: a node releases
    its LLRs before its right child runs, and a node whose LLRs still have
    one row per frame broadcasts them over the slots instead of repeating
    them."""

    @pytest.mark.parametrize("L", [2, 4])
    def test_broadcast_g_matches_reference(self, L):
        # Position 0 is the first leaf the walk decides, so every node above
        # it meets a B*L-row left codeword with one LLR row per frame, the
        # root's N/2-wide right child included.
        frozen = build_mother_code(64, 31).frozen_mask.copy()
        frozen[0] = False
        spec = CodeSpec(64, 32, 64, frozen, RateMatchPattern())
        rng = np.random.default_rng(33)
        msgs = rng.integers(0, 2, (128, spec.payload_len), dtype=np.uint8)
        frames = awgn_llrs(encode(spec, msgs), 0.9, rng)
        got_msgs, got_pm = scl_decode_batch(spec, frames, L, 1e-3)
        ref_msgs, ref_pm = reference_scl_decode_batch(spec, frames, L, 1e-3, "minsum")
        assert np.array_equal(got_msgs, ref_msgs) and np.array_equal(got_pm, ref_pm)

    def test_traced_peak_is_bounded_by_node_inputs(self):
        # The floor is the root's right child re-aligning its input: the
        # B*L x N/2 input and its gathered copy, two node inputs.  Keeping
        # every ancestor's input alive and repeating per-frame rows measured
        # 4.3 node inputs.
        spec = build_shortened_code(512, 280, 128, "NAT_PD")
        B, L = 64, 16
        rng = np.random.default_rng(34)
        msgs = rng.integers(0, 2, (B, spec.payload_len), dtype=np.uint8)
        frames = dematch(spec, awgn_llrs(tx_frame(spec, encode(spec, msgs)), 0.7, rng))
        node_input = B * L * (spec.mother_len // 2) * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            scl_decode_batch(spec, frames, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * node_input, f"{peak / node_input:.2f} node inputs"


class TestSclFastPaths:
    """Inputs that reach the list decoder's shortcuts, against the reference
    decoder bit for bit: candidate metrics that tie, which the unstable sort
    of the top-L hands to a stable re-sort, and frozen leaves whose LLRs are
    known-zero (+inf) on every row, which add no penalty."""

    @pytest.mark.parametrize("threshold", [0.0, 1e-3])
    @pytest.mark.parametrize("rule", ["minsum", "exact"])
    def test_matches_reference(self, rule, threshold):
        spec = build_shortened_code(64, 48, 24, "NAT_PD")
        rng = np.random.default_rng(27)
        msgs = rng.integers(0, 2, (128, spec.payload_len), dtype=np.uint8)
        frames = dematch(spec, awgn_llrs(tx_frame(spec, encode(spec, msgs)), 0.9, rng))
        # Two magnitudes only, so that finite candidate metrics tie, salted
        # with the extreme LLRs.
        repeated = np.sign(frames) * rng.choice([1.0, 2.0], size=frames.shape)
        salt = rng.choice(EXTREME_LLRS, size=frames.shape)
        salted = np.where(rng.random(frames.shape) < 0.05, salt, repeated)
        # Frozen positions that are known-zero on some rows only.
        partial = frames.copy()
        partial[::2, spec.frozen_mask] = KNOWN_ZERO_LLR
        batches = {
            "salted": salted,
            "partial": partial,
            "all-known-zero": np.full(frames.shape, KNOWN_ZERO_LLR),
        }
        for L in (2, 4, 16):
            for name, batch in batches.items():
                got_msgs, got_pm = scl_decode_batch(spec, batch, L, threshold, rule)
                with np.errstate(over="ignore"):
                    ref_msgs, ref_pm = reference_scl_decode_batch(spec, batch, L, threshold, rule)
                assert np.array_equal(got_msgs, ref_msgs), f"messages, L={L}, {name}"
                assert np.array_equal(got_pm, ref_pm), f"metrics, L={L}, {name}"


# Besides the bit-identity codes: a K = N mother code, which has no Rate-0
# node, and an all-frozen one, whose root is a Rate-0 node.
METRIC_FREE_CODES = dict(
    BIT_IDENTITY_CODES,
    **{"mother-64-64": lambda: build_mother_code(64, 64),
       "all-frozen-8": lambda: CodeSpec(8, 0, 8, np.ones(8, dtype=bool), RateMatchPattern())},
)


def sc_with_metric(spec, frames, rule="minsum"):
    """The messages ``(B, K)`` of SC with its path metric: the list decoder at
    ``L = 1``, which ``TestSclBitIdentity`` pins to the reference decoder."""
    return scl_decode_batch(spec, frames, 1, rule=rule)[0][:, 0]


class TestMetricFreeSc:
    """The metric-free walk of ``sc_decode_batch``, which ``run_point`` runs
    for SC, skips the Rate-0 nodes and still decodes the messages of SC with
    its path metric bit for bit."""

    @pytest.mark.parametrize("rule", ["minsum", "exact"])
    @pytest.mark.parametrize("code", sorted(METRIC_FREE_CODES))
    def test_messages_equal_sc_decode(self, code, rule):
        spec = METRIC_FREE_CODES[code]()
        rng = np.random.default_rng(25)
        msgs = rng.integers(0, 2, (256, spec.payload_len), dtype=np.uint8)
        frames = dematch(spec, awgn_llrs(tx_frame(spec, encode(spec, msgs)), 0.9, rng))
        # Salt the frames with both certainties and exact ties.
        salt = rng.choice([np.inf, -np.inf, 0.0], size=frames.shape)
        salted = np.where(rng.random(frames.shape) < 0.05, salt, frames)
        # Two magnitudes only, so that g cancels to exact zeros inside the
        # tree and Rate-1 nodes met with a 0 walk on.
        two = np.where(frames < 0, -1.0, 1.0) * rng.choice([1.0, 2.0], size=frames.shape)
        for name, frames in (("salted", salted), ("two magnitudes", two)):
            for batch in (frames[:0], frames[:1], frames):
                got, _ = sc_decode_batch(spec, batch, rule)
                want = sc_with_metric(spec, batch, rule)
                assert got.shape == want.shape and np.array_equal(got, want), f"{name}, B={len(batch)}"

    @pytest.mark.parametrize("rule", ["minsum", "exact"])
    def test_random_masks_equal_sc_decode(self, rule):
        # Random masks of mother, shortened and extended codes, salted.
        cases = random_cases(np.random.default_rng(30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec, frames in cases:
                got, _ = sc_decode_batch(spec, frames, rule)
                assert np.array_equal(got, sc_with_metric(spec, frames, rule)), spec.to_json()
                full = _ListDecoder(spec, 1, 0.0, rule)
                full.live = spec.mother_len  # the full-width walk
                assert np.array_equal(got, full.decode(frames)[0][:, 0]), spec.to_json()

    @pytest.mark.parametrize("code", sorted(METRIC_FREE_CODES))
    def test_walk_stops_at_rate0_nodes(self, code, monkeypatch):
        # No f or g input is computed for a Rate-0 child, and REP nodes
        # (leaves included) and, with no LLR of 0, Rate-1 nodes decode
        # without descending: a REP node of n positions runs log2(n) g's.
        # An [information, frozen] pair runs its one f and stops.  The same
        # walk with the metric has no fast node: it visits all 2N - 1 nodes
        # and runs N - 1 f's and N - 1 g's.
        spec = METRIC_FREE_CODES[code]()
        frozen = spec.frozen_mask

        def walk(offset, stride):  # (nodes, f calls, g calls) at a node that is not Rate-0
            sub = frozen[offset::stride]
            if sub[:-1].all():
                return np.array([1, 0, len(sub).bit_length() - 1])
            if not sub.any():
                return np.array([1, 0, 0])
            if len(sub) == 2 and sub[1]:
                return np.array([1, 1, 0])
            total = np.array([1, 0, 0])
            for child, update in ((offset, 1), (offset + stride, 2)):
                if not frozen[child::2 * stride].all():
                    total += walk(child, 2 * stride)
                    total[update] += 1
            return total

        calls = np.zeros(3, dtype=int)

        def count(i, fn):
            def counted(*args):
                calls[i] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(_ListDecoder, "_rec", count(0, _ListDecoder._rec))
        monkeypatch.setitem(codec.RULES, "minsum", count(1, f_minsum))
        monkeypatch.setattr(codec, "_g", count(2, codec._g))
        frames = np.ones((3, spec.mother_len))
        sc_decode_batch(spec, frames)
        want = [1, 0, 0] if frozen.all() else walk(0, 1)
        assert calls.tolist() == list(want)
        calls[:] = 0
        scl_decode_batch(spec, frames, 1)
        N = spec.mother_len
        assert calls.tolist() == [2 * N - 1, N - 1, N - 1]

    def test_rate1_tie_walks_the_node(self):
        # The frame of test_rate1_tie_is_not_the_hard_decision as one row of a
        # batch of ordinary rows: its 0 sends the Rate-1 root down the walk,
        # and every row still decodes as SC does.
        spec = build_mother_code(2, 2)
        llr = np.array([[1.5, -2.0], [0.0, -3.0], [-0.5, 4.0]])
        got, _ = sc_decode_batch(spec, llr)
        assert got[1].tolist() == [0, 1]
        assert np.array_equal(got, sc_with_metric(spec, llr))
        # The same tie below the root of a Rate-1 mother code.
        spec = build_mother_code(64, 64)
        llr = np.random.default_rng(29).normal(1.0, 2.0, (8, 64))
        llr[3, 10] = 0.0
        llr[5, 40:42] = [-0.0, -3.0]
        assert np.array_equal(sc_decode_batch(spec, llr)[0], sc_with_metric(spec, llr))

    def test_leaf_keeps_the_hard_decision_under_an_absorbing_metric(self):
        # Frozen leaf 2 meets an LLR of -inf, so the metric is inf when the
        # last leaf, information bit 3, decides on -inf: both candidate
        # metrics are inf.  SC keeps the hard decision, bit 1, on both
        # walks; the reference's stable top-1 takes bit 0 there.  Frames of
        # a valid spec never meet this: a shortened position's LLR is +inf.
        spec = CodeSpec(4, 2, 4, np.array([False, True, True, False]), RateMatchPattern())
        llr = np.array([[-np.inf, np.inf, 2.0, -np.inf]])
        msgs, pm = scl_decode_batch(spec, llr, 1)
        assert msgs.tolist() == [[[0, 1]]] and pm.tolist() == [[np.inf]]
        assert np.array_equal(sc_decode_batch(spec, llr)[0], msgs[:, 0])
        assert reference_scl_decode_batch(spec, llr, 1)[0].tolist() == [[[0, 0]]]

    def test_rep_levels_meet_opposite_certainties(self):
        # Pairs of +inf and -inf in a REP node make a level's sum NaN, which
        # SC's g resolves to 0 before the next level.
        spec = CodeSpec(8, 1, 8, np.arange(8) < 7, RateMatchPattern())
        inf = np.inf
        llr = np.array([
            [inf, -inf, 1.0, 2.0, -inf, inf, 0.5, -0.25],  # 0 + 3, 0 + 0.25: bit 0
            [inf, -inf, -1.0, -2.0, inf, -inf, 0.5, 0.25],  # 0 - 3, 0 + 0.75: bit 1
            [inf, -inf, -inf, inf, inf, -inf, -inf, inf],  # all 0: tie, bit 0
            [inf, 1.0, -inf, -1.0, inf, 2.0, -inf, -2.0],  # inf - inf at level 2
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for rule in ("minsum", "exact"):
                got, _ = sc_decode_batch(spec, llr, rule)
                assert got[:, 0].tolist() == [0, 1, 0, 0]
                assert np.array_equal(got, sc_with_metric(spec, llr, rule))


def shortened_grid():
    """Shortened specs over N in {8, 64, 512}, every pattern, several M and
    both builders, with the pattern's name."""
    for N in (8, 64, 512):
        for M in sorted({N // 2 + 1, 5 * N // 8, 3 * N // 4, N - 2, N - 1}):
            for pattern in PATTERN_METHODS:
                for repolarize in (True, False):
                    yield pattern, build_shortened_code(N, M, M // 2, pattern, repolarize=repolarize)


def shortened_positions(spec):
    return np.bincount(spec.tx_positions, minlength=spec.mother_len) == 0


class TestLiveColumnFacts:
    """The structure the live-column walk rests on, over a grid of shortened
    specs: the dead suffix it cuts, and fast nodes that never hold a dead
    column."""

    def test_live_width_is_the_dead_suffix(self):
        for pattern, spec in shortened_grid():
            N, M = spec.mother_len, spec.tx_len
            shortened = shortened_positions(spec)
            live = N
            while shortened[live - 1]:
                live -= 1
            assert _ListDecoder(spec, 1, 0.0, "minsum").live == live, (pattern, N, M)
            if pattern == "NAT_PD":
                assert live == M
        for spec in (build_mother_code(64, 32), build_extended_code(64, 16, 40)):
            assert _ListDecoder(spec, 1, 0.0, "minsum").live == spec.mother_len

    def test_rep_and_rate1_nodes_hold_no_dead_column(self):
        fast_nodes = dead_strides = 0
        for pattern, spec in shortened_grid():
            shortened = shortened_positions(spec)
            for stride, kinds in codec._node_kinds(spec.frozen_mask, "minsum", False).items():
                fast = sum(kind in (codec.REP, codec.RATE1) for kind in kinds)
                fast_nodes += fast
                # Column j of a node at this stride observes channel positions [j*stride, (j+1)*stride).
                if shortened.reshape(-1, stride).all(axis=1).any():
                    dead_strides += 1
                    assert fast == 0, (pattern, spec.mother_len, spec.tx_len, stride)
        assert fast_nodes > 0 and dead_strides > 0


class TestLiveColumnWalk:
    """Frames of a NAT_PD code that hold +inf on the dead suffix decode on the
    live columns only, bit for bit as the full-width walk and the reference
    decoder do.  The codes have an odd live width at a wide node (34: 17 at
    a 32-wide node; 256/150: 75 at a 128-wide node) and at narrow ones (40:
    5 at an 8-wide node; 48: 3 at a 4-wide node); an odd M keeps the full
    frame at the root."""

    CASES = [(64, 33), (64, 37), (64, 45), (64, 63), (64, 34), (64, 40), (64, 48), (256, 150)]

    @staticmethod
    def _batches(spec, rng):
        msgs = rng.integers(0, 2, (32, spec.payload_len), dtype=np.uint8)
        frames = dematch(spec, awgn_llrs(tx_frame(spec, encode(spec, msgs)), 0.9, rng))
        M = spec.tx_len
        salted = frames.copy()
        salt = rng.random((len(frames), M)) < 0.05
        salted[:, :M][salt] = rng.choice(EXTREME_LLRS, size=salt.sum())
        # One row with a finite LLR in the dead suffix: the batch walks the full width.
        fallback = salted.copy()
        fallback[3, -1] = 1.5
        return {"noisy": frames, "salted": salted, "fallback": fallback}

    @staticmethod
    def _root_widths(monkeypatch, rule):
        widths = []
        f = codec.RULES[rule]

        def spy(a, b):
            widths.append((a.shape[1], b.shape[1]))
            return f(a, b)
        monkeypatch.setitem(codec.RULES, rule, spy)
        return widths

    @pytest.mark.parametrize("rule", ["minsum", "exact"])
    @pytest.mark.parametrize("N, M", CASES, ids=lambda v: str(v))
    def test_sc_matches_the_full_width_walk(self, N, M, rule, monkeypatch):
        spec = build_shortened_code(N, M, M // 2, "NAT_PD")
        batches = self._batches(spec, np.random.default_rng(M))
        narrow = M // 2 if M % 2 == 0 else N // 2
        widths = self._root_widths(monkeypatch, rule)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, frames in batches.items():
                want = N // 2 if name == "fallback" else narrow
                full = _ListDecoder(spec, 1, 0.0, rule, metric=False)
                full.live = N  # the full-width walk
                want_msgs = full.decode(frames)[0][:, 0]
                del widths[:]
                assert np.array_equal(sc_decode_batch(spec, frames, rule)[0], want_msgs), name
                assert widths[0] == (want, want), name
                full = _ListDecoder(spec, 1, 0.0, rule)
                full.live = N
                want_msgs, want_pm = full.decode(frames)
                del widths[:]
                msgs, pm = scl_decode_batch(spec, frames, 1, rule=rule)  # SC with its metric
                assert widths[0] == (want, want), name
                assert np.array_equal(msgs, want_msgs) and np.array_equal(pm, want_pm), name
                if name == "noisy":
                    with np.errstate(over="ignore"):
                        ref_msgs, ref_pm = reference_scl_decode_batch(spec, frames, 1, 0.0, rule)
                    assert np.array_equal(msgs, ref_msgs) and np.array_equal(pm, ref_pm)

    @pytest.mark.parametrize("threshold", [0.0, 1e-3])
    @pytest.mark.parametrize("rule", ["minsum", "exact"])
    @pytest.mark.parametrize("N, M", CASES, ids=lambda v: str(v))
    def test_list_decoders_match_reference(self, N, M, rule, threshold, monkeypatch):
        spec = build_shortened_code(N, M, M // 2, "NAT_PD")
        batches = self._batches(spec, np.random.default_rng(M))
        crc = CrcConfig(poly=0x21, width=6)
        narrow = M // 2 if M % 2 == 0 else N // 2
        widths = self._root_widths(monkeypatch, rule)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, frames in batches.items():
                want = N // 2 if name == "fallback" else narrow
                for L in (2, 4, 8):
                    with np.errstate(over="ignore"):
                        ref_msgs, ref_pm = reference_scl_decode_batch(spec, frames, L, threshold, rule)
                    del widths[:]
                    msgs, pm = scl_decode_batch(spec, frames, L, threshold, rule)
                    assert widths[0] == (want, want), f"{name}, L={L}"
                    assert np.array_equal(msgs, ref_msgs), f"messages, {name}, L={L}"
                    assert np.array_equal(pm, ref_pm), f"metrics, {name}, L={L}"
                    got = ca_scl_decode_batch(spec, frames, L, crc, threshold, rule)
                    for a, b in zip(got, codec._crc_select(ref_msgs, ref_pm, crc)):
                        assert np.array_equal(a, b), f"CA-SCL, {name}, L={L}"


class TestCrc:
    def test_zero_payload_zero_checksum(self):
        out = crc_append(np.zeros(26, np.uint8))
        assert out.shape == (50,)
        assert not out[26:].any()

    def test_single_flip_always_changes_checksum(self):
        rng = np.random.default_rng(12)
        payload = rng.integers(0, 2, 26, dtype=np.uint8)
        base = crc_append(payload)[26:]
        for pos in range(26):
            flipped = payload.copy()
            flipped[pos] ^= 1
            assert not np.array_equal(crc_append(flipped)[26:], base), pos

    def test_matches_long_division_oracle(self):
        # Independent oracle: explicit GF(2) polynomial long division of
        # payload * x^24 by the generator polynomial.
        rng = np.random.default_rng(13)
        payload = rng.integers(0, 2, 26, dtype=np.uint8)
        gen = np.array([int(b) for b in bin((1 << 24) | 0x864CFB)[2:]], dtype=np.uint8)
        work = np.concatenate([payload, np.zeros(24, np.uint8)])
        for i in range(26):
            if work[i]:
                work[i : i + 25] ^= gen
        np.testing.assert_array_equal(crc_append(payload)[26:], work[26:])

    def test_check_round_trip(self):
        rng = np.random.default_rng(14)
        msg = crc_append(rng.integers(0, 2, 40, dtype=np.uint8))
        assert crc_check(msg)
        msg2 = msg.copy()
        msg2[5] ^= 1
        assert not crc_check(msg2)

    def test_batch_check(self):
        rng = np.random.default_rng(16)
        msgs = crc_append(rng.integers(0, 2, (5, 3, 26), dtype=np.uint8))
        assert crc_check(msgs).shape == (5, 3)
        assert crc_check(msgs).all()

    def test_check_needs_a_payload(self):
        with pytest.raises(ValueError, match="shorter than the checksum"):
            crc_check(np.zeros(24, np.uint8))

    @pytest.mark.parametrize("width", [0, 64, 2.5, True])
    def test_rejects_width_outside_the_register(self, width):
        # width 0 failed on a broadcast and 64 overflowed the int64 register.
        with pytest.raises(ValueError, match="CRC width"):
            CrcConfig(poly=1, width=width)

    @pytest.mark.parametrize("poly", [0x1FF, -5, 1.0, True])
    def test_rejects_poly_outside_its_width(self, poly):
        # Both out-of-range polynomials used to return a checksum.
        with pytest.raises(ValueError, match="CRC polynomial"):
            CrcConfig(poly=poly, width=8)

    def test_accepts_the_range_ends(self):
        payload = np.random.default_rng(15).integers(0, 2, (4, 70), dtype=np.uint8)
        for crc in (CrcConfig(poly=0, width=1), CrcConfig(poly=(1 << 63) - 1, width=63)):
            assert crc_check(crc_append(payload, crc), crc).all()


class TestCaScl:
    def test_noiseless(self):
        rng = np.random.default_rng(17)
        spec = build_mother_code(64, 32)
        payload = rng.integers(0, 2, 8, dtype=np.uint8)
        msg = crc_append(payload)
        llr = 25.0 * (1.0 - 2.0 * encode(spec, msg))
        msgs, _, crc_ok, _ = ca_scl_decode_batch(spec, llr, L=4)
        assert crc_ok[0]
        np.testing.assert_array_equal(msgs[0], msg)
        np.testing.assert_array_equal(msgs[0, :8], payload)

    def test_fallback_reports_failure(self):
        # A frame of garbage LLRs essentially never decodes to a valid
        # 24-bit checksum with a small list.
        rng = np.random.default_rng(18)
        spec = build_mother_code(64, 32)
        _, _, crc_ok, rank = ca_scl_decode_batch(spec, rng.normal(0, 1, 64), L=2)
        assert not crc_ok[0]
        assert rank[0] == 0

    def test_single_frame_is_its_batch_row(self):
        rng = np.random.default_rng(19)
        spec = build_mother_code(64, 32)
        payloads = rng.integers(0, 2, (20, 8), dtype=np.uint8)
        llr = awgn_llrs(encode(spec, crc_append(payloads)), 0.9, rng)
        decode = lambda f: ca_scl_decode_batch(spec, f, L=8, threshold=1e-3)  # noqa: E731
        assert_single_frames_are_batch_rows(decode, llr)
        # The frames cover both outcomes of the CRC selection.
        _, _, crc_ok, rank = decode(llr)
        assert crc_ok.any() and not crc_ok.all() and rank.any()


class TestSaturatedFrames:
    def test_shortened_frames_decode_cleanly(self):
        rng = np.random.default_rng(20)
        spec = build_shortened_code(64, 48, 24, "NAT_PD")
        msgs = rng.integers(0, 2, (40, 24), dtype=np.uint8)
        cw = encode(spec, msgs)
        llr = awgn_llrs(cw, 0.8, rng)
        llr[:, spec.pattern.indices] = KNOWN_ZERO_LLR
        out, pm = scl_decode_batch(spec, llr, L=1)
        assert np.isfinite(pm).all()
        assert np.array_equal(sc_decode_batch(spec, llr)[0], out[:, 0])
        best, pms = scl_decode_batch(spec, llr, L=4)
        assert np.isfinite(pms[:, 0]).all()

    @pytest.mark.parametrize("L", [1, 4])
    def test_opposite_infinities_decode_quietly(self, L):
        # Frames full of both certainties make g meet inf - inf; the walk
        # silences that itself and leaves the caller's error state as it was.
        rng = np.random.default_rng(21)
        spec = build_mother_code(16, 8, 2.0)
        llr = rng.choice([np.inf, -np.inf, 1.5, -0.5], size=(64, 16))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scl_decode_batch(spec, llr, L)
        assert np.geterr() == before


class TestFramesAreReadOnly:
    # The harness de-matches every work unit of a point into one reused
    # buffer, so a decoder must only read its frames.
    @pytest.mark.parametrize("spec", [
        build_mother_code(64, 32, 2.0),
        build_shortened_code(128, 80, 40, "NAT_PD"),
        build_shortened_code(128, 100, 50, "RQUP"),
        build_extended_code(64, 16, 40, 3.0),
    ], ids=["mother", "nat-pd", "rqup", "extended"])
    def test_decoders_leave_their_frames_unchanged(self, spec):
        rng = np.random.default_rng(23)
        rx = rng.normal(0.5, 2.0, (48, spec.tx_len))
        rx[::4, ::3] = rng.choice([0.0, -0.0, 1e308, -1e308], size=rx[::4, ::3].shape)
        frames = dematch(spec, rx)
        before = frames.copy()
        frames.flags.writeable = False  # an in-place write raises
        K = spec.payload_len
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rule in ("minsum", "exact"):
                sc_decode_batch(spec, frames, rule)
                scl_decode_batch(spec, frames, 4, 1e-3, rule)
                if K > CRC24.width:
                    ca_scl_decode_batch(spec, frames, 4, CRC24, 0.0, rule)
                sc_decode_batch(spec, frames[7], rule)
        assert np.array_equal(frames.view(np.uint64), before.view(np.uint64))


def test_empty_batch_keeps_its_shapes():
    spec = build_extended_code(64, 16, 40, 3.0)
    N, M, K, L = 64, 80, 40, 4
    bits, noise = frame_draws(ChannelConfig(0.0, K / M), 0, 0, K - CRC24.width, M)
    assert bits.shape == (0, K - CRC24.width) and noise.shape == (0, M)
    msgs = crc_append(bits)
    assert msgs.shape == (0, K)
    cw = encode(spec, msgs)
    assert cw.shape == (0, N)
    assert tx_frame(spec, cw).shape == (0, M)
    frames = dematch(spec, noise)
    assert frames.shape == (0, N)
    out, pm = sc_decode_batch(spec, frames)
    assert out.shape == (0, K) and pm is None
    out, pm = scl_decode_batch(spec, frames, 1)
    assert out.shape == (0, 1, K) and pm.shape == (0, 1)
    out, pm = scl_decode_batch(spec, frames, L)
    assert out.shape == (0, L, K) and pm.shape == (0, L)
    out, pm, ok, rank = ca_scl_decode_batch(spec, frames, L)
    assert out.shape == (0, K) and pm.shape == ok.shape == rank.shape == (0,)
