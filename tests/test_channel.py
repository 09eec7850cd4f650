import numpy as np
import pytest

from nupolar.channel import ChannelConfig, bpsk_modulate, frame_draws, frame_rng, llr_demod


class TestModulation:
    def test_mapping(self):
        assert bpsk_modulate([0, 1, 0]).tolist() == [1.0, -1.0, 1.0]

    def test_empty(self):
        assert bpsk_modulate([]).size == 0


class TestChannelConfig:
    def test_sigma_formula(self):
        cfg = ChannelConfig(ebno_db=3.0, rate=0.5)
        expect = np.sqrt(1.0 / (2.0 * 0.5 * 10 ** 0.3))
        assert cfg.sigma == pytest.approx(expect, rel=1e-12)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(ebno_db=0.0, rate=0.0)

    @pytest.mark.parametrize("ebno_db", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_ebno_rejected(self, ebno_db):
        with pytest.raises(ValueError, match="finite"):
            ChannelConfig(ebno_db=ebno_db, rate=0.5)

    @pytest.mark.parametrize("ebno_db", [4000.0, -4000.0, 3080.0, -3200.0])
    def test_extreme_ebno_rejected(self, ebno_db):
        # 4000 dB overflows 10^(dB/10) and -4000 dB underflows it to 0; at
        # 3080 and -3200 dB it is finite, but the noise variance underflows
        # to 0 or overflows.  +-3000 dB still give a usable noise scale.
        with pytest.raises(ValueError, match="finite"):
            ChannelConfig(ebno_db=ebno_db, rate=0.5)
        ChannelConfig(ebno_db=np.sign(ebno_db) * 3000.0, rate=0.5)

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), True])
    def test_seed_must_be_a_whole_number(self, seed):
        # A fractional seed once failed only at the first draw, and True keyed seed 1.
        with pytest.raises(ValueError, match="seed must be a whole number"):
            ChannelConfig(2.0, 0.5, seed)
        assert ChannelConfig(2.0, 0.5, np.int64(3)).seed == 3

    @pytest.mark.parametrize("ebno_db, rate", [(3.0, True), (True, 0.5), ("3", 0.5), (3.0, np.array([0.5]))])
    def test_ebno_and_rate_must_be_numbers(self, ebno_db, rate):
        # True once passed as 1, and a string or an array raised TypeError.
        with pytest.raises(ValueError, match="must be a number"):
            ChannelConfig(ebno_db, rate)
        cfg = ChannelConfig(np.float64(3.0), np.float32(0.5))
        assert (cfg.ebno_db, cfg.rate) == (3.0, 0.5) and type(cfg.rate) is float


def noise_of(cfg, frame_index, n):
    """Frame ``frame_index``'s noise alone: its first ``n`` normal draws."""
    return frame_draws(cfg, frame_index, 1, 0, n)[1][0]


class TestAwgn:
    def test_determinism_per_seed_and_frame(self):
        cfg = ChannelConfig(ebno_db=1.0, rate=0.5, seed=42)
        a = noise_of(cfg, 7, 64)
        b = noise_of(cfg, 7, 64)
        c = noise_of(cfg, 8, 64)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        # The first draw of the frame's stream, as the removed awgn helper
        # made it.
        want = frame_rng(cfg.seed, 7).normal(0.0, cfg.sigma, 64)
        np.testing.assert_array_equal(a.view(np.uint64), want.view(np.uint64))

    def test_noise_mean_is_centred(self):
        cfg = ChannelConfig(ebno_db=0.0, rate=0.5, seed=1)
        n = 1_000_000
        noise = noise_of(cfg, 0, n)
        assert abs(noise.mean()) < 4.0 * cfg.sigma / np.sqrt(n)

    def test_zero_noise_limit(self):
        # sigma -> 0 corresponds to Eb/N0 -> inf; approximate with a huge one
        cfg = ChannelConfig(ebno_db=200.0, rate=0.5, seed=0)
        x = np.linspace(-1, 1, 32)
        np.testing.assert_allclose(x + noise_of(cfg, 0, 32), x, atol=1e-8)


class TestFrameDraws:
    """The re-keyed batch stream equals the per-frame definition bit for bit."""

    @staticmethod
    def per_frame(seed, start, count, n_bits, n_noise, sigma):
        bits = np.empty((count, n_bits), dtype=np.uint8)
        noise = np.empty((count, n_noise))
        for j in range(count):
            rng = frame_rng(seed, start + j)
            bits[j] = rng.integers(0, 2, n_bits, dtype=np.uint8)
            noise[j] = rng.normal(0.0, sigma, n_noise)
        return bits, noise

    # 0, a 64-bit value, one above 2^64 (masked) and a negative one.
    @pytest.mark.parametrize("seed", [0, 0xDEADBEEFCAFEF00D, 2**64 + 12345, -7])
    @pytest.mark.parametrize("start", [0, 2**32, 2**63 - 300])
    @pytest.mark.parametrize("count", [0, 1, 256])
    def test_equals_frame_rng(self, seed, start, count):
        chan = ChannelConfig(ebno_db=1.3, rate=0.6, seed=seed)
        bits, noise = frame_draws(chan, start, count, 104, 80)
        want_bits, want_noise = self.per_frame(seed, start, count, 104, 80, chan.sigma)
        assert bits.shape == (count, 104) and noise.shape == (count, 80)
        np.testing.assert_array_equal(bits, want_bits)
        np.testing.assert_array_equal(noise.view(np.uint64), want_noise.view(np.uint64))

    # Widths at the edges of the raw 64-bit words, and the 160-bit payload
    # of sc-short512, each with an odd noise length.
    @pytest.mark.parametrize(
        "n_bits, n_noise",
        [(7, 13), (40, 80), (1, 1), (0, 5)] + [(n, 41) for n in (8, 9, 15, 16, 17, 63, 64, 65, 160)],
    )
    def test_widths(self, n_bits, n_noise):
        chan = ChannelConfig(ebno_db=-3.5, rate=0.5, seed=3)
        bits, noise = frame_draws(chan, 100, 17, n_bits, n_noise)
        want_bits, want_noise = self.per_frame(3, 100, 17, n_bits, n_noise, chan.sigma)
        assert bits.dtype == np.uint8 and bits.shape == (17, n_bits)
        np.testing.assert_array_equal(bits, want_bits)
        np.testing.assert_array_equal(noise.view(np.uint64), want_noise.view(np.uint64))

    @pytest.mark.parametrize("n_bits", [1, 7, 8, 9, 36, 64, 65, 160])
    def test_range_two_integers_read_raw_bytes(self, n_bits):
        # frame_draws relies on numpy's range-two uint8 draw being the top
        # bit of each byte of the little-endian raw Philox stream, with the
        # stream after it left at the next whole 64-bit word.
        words = -(-n_bits // 8)
        drawn = frame_rng(11, 5)
        bits = drawn.integers(0, 2, n_bits, dtype=np.uint8)
        after = drawn.normal(0.0, 1.0, 3)
        raw = frame_rng(11, 5)
        raw_bits = raw.bit_generator.random_raw(words).astype("<u8").view(np.uint8)[:n_bits] >> 7
        raw_after = raw.normal(0.0, 1.0, 3)
        why = "numpy's integers(0, 2, dtype=uint8) no longer reads one buffered byte of the raw stream per bit"
        assert np.array_equal(bits, raw_bits), why
        assert np.array_equal(after.view(np.uint64), raw_after.view(np.uint64)), why + " (noise counter moved)"

    @pytest.mark.parametrize("count", [0, 1, 100, 256])
    def test_out_equals_the_fresh_draw(self, count):
        # The harness draws into the leading rows of a point's noise buffer,
        # which holds an earlier unit's values; the rows after them stay untouched.
        chan = ChannelConfig(ebno_db=2.5, rate=0.5, seed=21)
        buffer = np.random.default_rng(4).normal(size=(256, 320))
        buffer[: count // 2] = np.nan
        rest = buffer[count:].copy()
        bits, noise = frame_draws(chan, 512, count, 160, 320, out=buffer[:count])
        want_bits, want_noise = frame_draws(chan, 512, count, 160, 320)
        assert np.shares_memory(noise, buffer) or count == 0
        np.testing.assert_array_equal(bits, want_bits)
        assert np.array_equal(noise.view(np.uint64), want_noise.view(np.uint64))
        assert np.array_equal(buffer[count:].view(np.uint64), rest.view(np.uint64))

    def test_out_of_the_wrong_shape_is_rejected(self):
        chan = ChannelConfig(ebno_db=2.5, rate=0.5)
        with pytest.raises(ValueError, match="shape"):
            frame_draws(chan, 0, 4, 8, 10, out=np.empty((5, 10)))

    @pytest.mark.parametrize("seed, frame_index", [(0, 1.5), (0, np.float64(1.0)), (0, True), (1.5, 0), (True, 0)])
    def test_frame_rng_key_must_be_whole_numbers(self, seed, frame_index):
        # Frame index 1.5 once keyed frame 1's stream, and a True seed keyed seed 1.
        with pytest.raises(ValueError, match="must be a whole number"):
            frame_rng(seed, frame_index)

    def test_fractional_start_is_rejected(self):
        with pytest.raises(ValueError, match="frame index must be a whole number"):
            frame_draws(ChannelConfig(2.0, 0.5), 1.5, 2, 8, 4)

    @pytest.mark.parametrize("frame_index", [-1, 2**64, -(2**64)])
    def test_frame_index_outside_the_key_word_is_rejected(self, frame_index):
        # The index is the key's second 64-bit word; it once raised OverflowError.
        with pytest.raises(ValueError, match=r"frame index must lie in \[0, 2\^64\)"):
            frame_rng(0, frame_index)

    @pytest.mark.parametrize("start, count", [(2**64 - 1, 2), (-1, 1), (-2, 3), (2**64, 0)])
    def test_frame_range_is_checked_before_any_draw(self, start, count):
        # Frames 2^64 - 1 and 2^64: the first once drew, then the loop raised
        # OverflowError; now the range fails as a whole and nothing is drawn.
        chan = ChannelConfig(2.0, 0.5, seed=4)
        out = np.full((count, 4), 7.0)
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\^64\)"):
            frame_draws(chan, start, count, 8, 4, out=out)
        assert (out == 7.0).all()
        # The last two frames of the index range draw as frame_rng keys them.
        bits, noise = frame_draws(chan, 2**64 - 2, 2, 8, 4)
        want_bits, want_noise = self.per_frame(4, 2**64 - 2, 2, 8, 4, chan.sigma)
        np.testing.assert_array_equal(bits, want_bits)
        assert np.array_equal(noise.view(np.uint64), want_noise.view(np.uint64))

    @pytest.mark.parametrize("seed", [2**63 + 5, 0xDEADBEEFCAFEF00D, -1, -7, 2**64 + 3])
    def test_frame_rng_key_is_exact(self, seed):
        # A seed word of 2^63 or more once went through float64: seeds lost
        # their low bits, and seeds -1 to -1024 collided with seed 0.
        key = frame_rng(seed, 2**63 + 9).bit_generator.state["state"]["key"]
        assert key.tolist() == [seed % 2**64, 2**63 + 9]
        assert frame_rng(seed, 0).integers(0, 2**62, 4).tolist() != frame_rng(0, 0).integers(0, 2**62, 4).tolist()


class TestLlrDemod:
    def test_unit_examples(self):
        cfg = ChannelConfig(ebno_db=0.0, rate=0.5, seed=0)
        cfg_sigma1 = ChannelConfig(ebno_db=10.0 * np.log10(1.0), rate=0.5, seed=0)
        assert cfg_sigma1.sigma == 1.0
        assert llr_demod(np.array([1.0]), cfg_sigma1)[0] == 2.0
        assert llr_demod(np.array([0.0]), cfg)[0] == 0.0

    def test_llr_mean_matches_design_value(self):
        # All-zero frames: the empirical LLR mean must sit within 1% of
        # 4 R 10^(Eb/N0/10), the construction's stage-0 value.
        cfg = ChannelConfig(ebno_db=2.0, rate=0.5, seed=3)
        frames, n = 2000, 64
        total = 0.0
        for f in range(frames):
            y = 1.0 + frame_rng(cfg.seed, f).normal(0.0, cfg.sigma, n)
            total += llr_demod(y, cfg).sum()
        mean = total / (frames * n)
        expect = 4.0 * cfg.rate * cfg.ebno_linear
        assert mean == pytest.approx(expect, rel=0.01)
