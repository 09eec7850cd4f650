import numpy as np
import pytest

from nupolar.codec import encode, sc_decode_batch
from nupolar.construction import (
    CodeSpec,
    RateMatchPattern,
    build_extended_code,
    build_mother_code,
    build_shortened_code,
)
from nupolar.numerics import KNOWN_ZERO_LLR
from nupolar.ratematch import InvalidSpecError, dematch, tx_frame


def all_messages(K):
    return np.indices((2,) * K).reshape(K, -1).T.astype(np.uint8)


class TestShorten:
    def test_positional_removal(self):
        spec = build_shortened_code(4, 3, 2, [1, 1, 1, 0])
        out = tx_frame(spec, np.array([1, 0, 1, 0], np.uint8))
        assert out.tolist() == [1, 0, 1]

    def test_empty_pattern_is_identity(self):
        spec = build_mother_code(8, 4)
        cw = np.arange(8, dtype=np.uint8) % 2
        np.testing.assert_array_equal(tx_frame(spec, cw), cw)

    def test_nonzero_shortened_bit_flags_invalid_spec(self):
        spec = build_shortened_code(4, 3, 2, [1, 1, 1, 0])
        with pytest.raises(InvalidSpecError):
            tx_frame(spec, np.array([1, 0, 1, 1], np.uint8))
        with pytest.raises(ValueError, match="codeword length"):
            tx_frame(spec, np.zeros(3, np.uint8))

    def test_exhaustive_small_code(self):
        spec = build_shortened_code(8, 6, 4, "NAT_PD")
        cws = encode(spec, all_messages(4))
        assert not cws[:, spec.pattern.indices].any()
        assert tx_frame(spec, cws).shape == (16, 6)

    def test_randomized_large_code(self):
        rng = np.random.default_rng(0)
        for method in ("NAT_PD", "RQUP", "CW"):
            spec = build_shortened_code(512, 320, 160, method)
            cws = encode(spec, rng.integers(0, 2, (200, 160), dtype=np.uint8))
            assert not cws[:, spec.pattern.indices].any(), method


class TestDematchShortened:
    def test_saturation_positions(self):
        spec = build_shortened_code(4, 3, 2, [1, 1, 1, 0])
        out = dematch(spec, np.array([1.5, -2.0, 0.25]))
        assert out.tolist() == [1.5, -2.0, 0.25, KNOWN_ZERO_LLR]

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        spec = build_shortened_code(32, 24, 12, "RQUP")
        cw = encode(spec, rng.integers(0, 2, 12, dtype=np.uint8))
        llr = dematch(spec, 7.0 * (1.0 - 2.0 * tx_frame(spec, cw)))
        keep = np.isfinite(llr)
        np.testing.assert_array_equal(np.flatnonzero(~keep), spec.pattern.indices)
        np.testing.assert_array_equal(llr[keep], 7.0 * (1.0 - 2.0 * cw[keep]))

    def test_noiseless_end_to_end(self):
        rng = np.random.default_rng(2)
        spec = build_shortened_code(64, 48, 24, "NAT_PD")
        msgs = rng.integers(0, 2, (20, 24), dtype=np.uint8)
        tx = tx_frame(spec, encode(spec, msgs))
        out, _ = sc_decode_batch(spec, dematch(spec, 12.0 * (1.0 - 2.0 * tx)))
        np.testing.assert_array_equal(out, msgs)

    def test_length_check(self):
        spec = build_shortened_code(8, 6, 3, "NAT_PD")
        with pytest.raises(ValueError):
            dematch(spec, np.zeros(8))


class TestExtend:
    def test_appends_pattern_positions(self):
        spec = CodeSpec(4, 4, 5, np.zeros(4, bool), RateMatchPattern("extend", [3]))
        out = tx_frame(spec, np.array([1, 0, 1, 0], np.uint8))
        assert out.tolist() == [1, 0, 1, 0, 0]

    def test_appended_bits_copy_sources(self):
        rng = np.random.default_rng(3)
        spec = build_extended_code(64, 16, 32)
        cw = encode(spec, rng.integers(0, 2, (10, 32), dtype=np.uint8))
        tx = tx_frame(spec, cw)
        np.testing.assert_array_equal(tx[:, 64:], cw[:, spec.pattern.indices])

    def test_dematch_adds_llrs(self):
        spec = CodeSpec(4, 4, 5, np.zeros(4, bool), RateMatchPattern("extend", [3]))
        out = dematch(spec, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert out.tolist() == [1.0, 2.0, 3.0, 9.0]

    def test_zero_extras_leave_frame_unchanged(self):
        spec = build_extended_code(32, 8, 16)
        rx = np.concatenate([np.linspace(-3, 3, 32), np.zeros(8)])
        np.testing.assert_array_equal(dematch(spec, rx), rx[:32])

    def test_dematch_is_linear(self):
        rng = np.random.default_rng(4)
        spec = build_extended_code(32, 8, 16)
        x = rng.normal(0, 2, 40)
        y = rng.normal(0, 2, 40)
        lhs = dematch(spec, 2.0 * x + y)
        rhs = 2.0 * dematch(spec, x) + dematch(spec, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_noiseless_end_to_end(self):
        rng = np.random.default_rng(5)
        spec = build_extended_code(64, 16, 32)
        msgs = rng.integers(0, 2, (20, 32), dtype=np.uint8)
        tx = tx_frame(spec, encode(spec, msgs))
        out, _ = sc_decode_batch(spec, dematch(spec, 9.0 * (1.0 - 2.0 * tx)))
        np.testing.assert_array_equal(out, msgs)

    def test_repetition_gain_at_fixed_symbol_energy(self):
        # With the per-symbol SNR held fixed, the repeated observations are
        # pure extra information and the extended code must not lose to its
        # mother code.  (At fixed Eb/N0 the K/M rate accounting spreads the
        # same energy over more symbols, which cancels the gain at this
        # size, so the comparison is made at fixed symbol energy.)
        rng = np.random.default_rng(6)
        frames = 3000
        sigma = float(np.sqrt(1.0 / (2.0 * 0.5 * 10 ** 0.2)))
        bers = {}
        for spec in (build_mother_code(256, 128), build_extended_code(256, 24, 128)):
            msgs = rng.integers(0, 2, (frames, 128), dtype=np.uint8)
            tx = tx_frame(spec, encode(spec, msgs))
            y = (1.0 - 2.0 * tx) + rng.normal(0.0, sigma, tx.shape)
            out, _ = sc_decode_batch(spec, dematch(spec, 2.0 * y / sigma**2))
            bers[spec.tx_len] = np.mean(out != msgs)
        assert bers[280] <= bers[256]


DISPATCH_SPECS = [
    build_mother_code(64, 32),
    build_shortened_code(512, 320, 160, "NAT_PD"),
    build_shortened_code(128, 100, 50, "RQUP"),
    build_shortened_code(128, 90, 40, "CW"),
    build_extended_code(64, 16, 40),
]
DISPATCH_IDS = ["mother", "nat-pd", "rqup", "cw", "extended"]


class TestDispatch:
    def test_tx_frame_and_dematch_follow_pattern_kind(self):
        rng = np.random.default_rng(6)
        # NAT_PD shortens, and the tail rule repeats, positions 12..15, which
        # are then observed 0 and 2 times; every other position once.
        for spec, tail_count in (
            (build_mother_code(16, 8), 1),
            (build_shortened_code(16, 12, 6, "NAT_PD"), 0),
            (build_extended_code(16, 4, 8), 2),
        ):
            msg = rng.integers(0, 2, spec.payload_len, dtype=np.uint8)
            tx = tx_frame(spec, encode(spec, msg))
            assert tx.shape == (spec.tx_len,)
            frame = dematch(spec, 10.0 * (1.0 - 2.0 * tx))
            assert frame.shape == (spec.mother_len,)
            assert spec.tx_positions.size == spec.tx_len
            counts = np.bincount(spec.tx_positions, minlength=spec.mother_len)
            assert counts.tolist() == [1] * 12 + [tail_count] * 4

    @pytest.mark.parametrize("spec", DISPATCH_SPECS, ids=DISPATCH_IDS)
    def test_dematch_equals_the_scatter_formula(self, spec):
        # Each position's first observation scattered into a known-zero
        # frame, then the repeated observations added: the same bits as
        # dematch, for both certainties and both signed zeros.
        def scatter(rx):
            N, pos = spec.mother_len, spec.tx_positions
            out = np.full(rx.shape[:-1] + (N,), KNOWN_ZERO_LLR)
            out[..., pos[:N]] = rx[..., :N]
            out[..., pos[N:]] += rx[..., N:]
            return out

        rng = np.random.default_rng(7)
        rx = rng.normal(0.0, 3.0, (32, spec.tx_len))
        salt = rng.choice([np.inf, -np.inf, 0.0, -0.0], size=rx.shape)
        rx = np.where(rng.random(rx.shape) < 0.1, salt, rx)
        with np.errstate(invalid="ignore"):  # +inf meets -inf on a repeated position
            for frames in (rx, rx[0], rx[:0]):
                got, want = dematch(spec, frames), scatter(frames)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("spec", DISPATCH_SPECS, ids=DISPATCH_IDS)
    def test_dematch_into_a_reused_buffer(self, spec):
        # The harness de-matches each work unit into the leading rows of one
        # buffer: whatever it held before, NaN or an earlier unit's frames,
        # the result is the fresh dematch bit for bit.
        rng = np.random.default_rng(8)
        earlier, rx = (rng.normal(0.0, 3.0, (32, spec.tx_len)) for _ in range(2))
        rx[::3, ::5] = np.where(rng.random(rx[::3, ::5].shape) < 0.5, -0.0, np.inf)
        want = dematch(spec, rx)
        for fill in (np.full((40, spec.mother_len), np.nan), dematch(spec, np.vstack([earlier, earlier[:8]]))):
            rest = fill[32:].copy()
            got = dematch(spec, rx, out=fill[:32])
            assert np.shares_memory(got, fill)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(fill[32:].view(np.uint64), rest.view(np.uint64))
        one = np.full(spec.mother_len, np.nan)
        dematch(spec, rx[5], out=one)
        assert np.array_equal(one.view(np.uint64), want[5].view(np.uint64))
