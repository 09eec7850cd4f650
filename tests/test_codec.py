import numpy as np
import pytest

from nupolar.codec import (
    CRC24,
    CrcConfig,
    ca_scl_decode,
    ca_scl_decode_batch,
    crc24_append,
    crc24_check,
    crc_append,
    crc_check,
    encode,
    f_exact,
    f_minsum,
    g_node,
    sc_decode,
    sc_decode_batch,
    scl_decode,
    scl_decode_batch,
)
from nupolar.construction import (
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


def awgn_llrs(codewords, sigma, rng):
    symbols = 1.0 - 2.0 * codewords
    y = symbols + rng.normal(0.0, sigma, codewords.shape)
    return 2.0 * y / sigma**2


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
            msgs = rng.integers(0, 2, (20, N // 2), dtype=np.uint8)
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


class TestNodeFunctions:
    def test_minsum_example(self):
        assert f_minsum(np.array(2.0), np.array(-3.0)) == -2.0

    def test_g_example(self):
        assert g_node(np.array(1.5), np.array(2.0), np.array(1, dtype=np.uint8)) == 0.5

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
        assert g_node(np.array(inf), np.array(1.0), np.array(0, np.uint8)) == inf
        assert g_node(np.array(inf), np.array(1.0), np.array(1, np.uint8)) == -inf
        # contradictory certainties resolve to an erasure, never NaN
        assert g_node(np.array(inf), np.array(inf), np.array(1, np.uint8)) == 0.0


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
        res = sc_decode(spec, np.zeros(4))
        assert res.message.tolist() == [0, 0, 0, 0]

    def test_rejects_nan(self):
        spec = build_mother_code(4, 2)
        with pytest.raises(ValueError):
            sc_decode(spec, np.array([1.0, np.nan, 0.5, 2.0]))

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

    def test_all_frozen_spec(self):
        spec = CodeSpec(8, 0, 8, np.ones(8, dtype=bool), RateMatchPattern())
        res = sc_decode(spec, np.random.default_rng(6).normal(0, 2, 8))
        assert res.message.size == 0
        assert encode(spec, res.message).tolist() == [0] * 8


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
            results = scl_decode(spec, llr, L=16, rule="exact")
            cands, cws, scores = ml_codeword_scores(spec, llr)
            by_msg = {tuple(m): s for m, s in zip(cands.tolist(), scores)}
            got = [by_msg[tuple(r.message.tolist())] for r in results]
            assert all(a >= b - 1e-9 for a, b in zip(got, got[1:])), f"trial {trial}"

    def test_threshold_one_keeps_only_best(self):
        rng = np.random.default_rng(10)
        spec = build_mother_code(16, 8)
        llr = awgn_llrs(encode(spec, rng.integers(0, 2, (1, 8), dtype=np.uint8)), 0.9, rng)
        results = scl_decode(spec, llr[0], L=8, threshold=1.0)
        assert len(results) >= 1
        assert all(r.path_metric == results[0].path_metric for r in results)

    def test_results_sorted_and_ranked(self):
        rng = np.random.default_rng(11)
        spec = build_mother_code(16, 8)
        llr = awgn_llrs(encode(spec, rng.integers(0, 2, (1, 8), dtype=np.uint8)), 1.2, rng)
        results = scl_decode(spec, llr[0], L=8)
        pms = [r.path_metric for r in results]
        assert pms == sorted(pms)
        assert [r.list_rank for r in results] == list(range(len(results)))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(21)
        spec = build_mother_code(64, 32)
        llr = awgn_llrs(encode(spec, rng.integers(0, 2, (20, 32), dtype=np.uint8)), 0.9, rng)
        msgs, pm = scl_decode_batch(spec, llr, L=8, threshold=1e-3)
        for i in range(20):
            single = scl_decode(spec, llr[i], L=8, threshold=1e-3)
            assert len(single) == np.isfinite(pm[i]).sum()
            for k, res in enumerate(single):
                np.testing.assert_array_equal(res.message, msgs[i, k])
                assert res.path_metric == pm[i, k]
                assert res.list_rank == k

    def test_list_size_validation(self):
        spec = build_mother_code(8, 4)
        with pytest.raises(ValueError):
            scl_decode(spec, np.zeros(8), L=0)
        with pytest.raises(ValueError):
            scl_decode(spec, np.zeros(8), L=2, threshold=1.5)


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


class TestCrc:
    def test_zero_payload_zero_checksum(self):
        out = crc24_append(np.zeros(26, np.uint8))
        assert out.shape == (50,)
        assert not out[26:].any()

    def test_single_flip_always_changes_checksum(self):
        rng = np.random.default_rng(12)
        payload = rng.integers(0, 2, 26, dtype=np.uint8)
        base = crc24_append(payload)[26:]
        for pos in range(26):
            flipped = payload.copy()
            flipped[pos] ^= 1
            assert not np.array_equal(crc24_append(flipped)[26:], base), pos

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
        np.testing.assert_array_equal(crc24_append(payload)[26:], work[26:])

    def test_check_round_trip(self):
        rng = np.random.default_rng(14)
        msg = crc24_append(rng.integers(0, 2, 40, dtype=np.uint8))
        assert crc24_check(msg)
        msg2 = msg.copy()
        msg2[5] ^= 1
        assert not crc24_check(msg2)

    def test_reflected_mode_round_trip(self):
        cfg = CrcConfig(poly=0x864CFB, width=24, init=0x5A5A5A, msb_first=False)
        rng = np.random.default_rng(15)
        payload = rng.integers(0, 2, 30, dtype=np.uint8)
        assert crc_check(crc_append(payload, cfg), cfg)

    def test_batch_check(self):
        rng = np.random.default_rng(16)
        msgs = crc_append(rng.integers(0, 2, (5, 3, 26), dtype=np.uint8))
        assert crc_check(msgs).shape == (5, 3)
        assert crc_check(msgs).all()


class TestCaScl:
    def test_noiseless(self):
        rng = np.random.default_rng(17)
        spec = build_mother_code(64, 32)
        payload = rng.integers(0, 2, 8, dtype=np.uint8)
        msg = crc24_append(payload)
        llr = 25.0 * (1.0 - 2.0 * encode(spec, msg))
        res = ca_scl_decode(spec, llr, L=4)
        assert res.crc_ok is True
        np.testing.assert_array_equal(res.message, msg)
        np.testing.assert_array_equal(res.message[:8], payload)

    def test_fallback_reports_failure(self):
        # A frame of garbage LLRs essentially never decodes to a valid
        # 24-bit checksum with a small list.
        rng = np.random.default_rng(18)
        spec = build_mother_code(64, 32)
        res = ca_scl_decode(spec, rng.normal(0, 1, 64), L=2)
        assert res.crc_ok is False
        assert res.list_rank == 0

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(19)
        spec = build_mother_code(64, 32)
        payloads = rng.integers(0, 2, (20, 8), dtype=np.uint8)
        llr = awgn_llrs(encode(spec, crc24_append(payloads)), 0.9, rng)
        msgs, ok, rank = ca_scl_decode_batch(spec, llr, L=8)
        for i in range(20):
            single = ca_scl_decode(spec, llr[i], L=8)
            np.testing.assert_array_equal(msgs[i], single.message)
            assert bool(ok[i]) == single.crc_ok
            assert int(rank[i]) == single.list_rank


class TestSaturatedFrames:
    def test_shortened_frames_decode_cleanly(self):
        rng = np.random.default_rng(20)
        spec = build_shortened_code(64, 48, 24, "NAT_PD")
        msgs = rng.integers(0, 2, (40, 24), dtype=np.uint8)
        cw = encode(spec, msgs)
        llr = awgn_llrs(cw, 0.8, rng)
        llr[:, spec.pattern.indices] = KNOWN_ZERO_LLR
        out, pm = sc_decode_batch(spec, llr)
        assert np.isfinite(pm).all()
        best, pms = scl_decode_batch(spec, llr, L=4)
        assert np.isfinite(pms[:, 0]).all()
