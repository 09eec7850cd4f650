import numpy as np
import pytest

from nupolar.channel import ChannelConfig, awgn, bpsk_modulate, frame_rng, llr_demod


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


class TestAwgn:
    def test_determinism_per_seed_and_frame(self):
        cfg = ChannelConfig(ebno_db=1.0, rate=0.5, seed=42)
        x = np.ones(64)
        a = awgn(x, cfg, frame_index=7)
        b = awgn(x, cfg, frame_index=7)
        c = awgn(x, cfg, frame_index=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_mean_is_centred(self):
        cfg = ChannelConfig(ebno_db=0.0, rate=0.5, seed=1)
        n = 1_000_000
        noise = frame_rng(cfg.seed, 0).normal(0.0, cfg.sigma, n)
        assert abs(noise.mean()) < 4.0 * cfg.sigma / np.sqrt(n)

    def test_zero_noise_limit(self):
        # sigma -> 0 corresponds to Eb/N0 -> inf; approximate with a huge one
        cfg = ChannelConfig(ebno_db=200.0, rate=0.5, seed=0)
        x = np.linspace(-1, 1, 32)
        np.testing.assert_allclose(awgn(x, cfg), x, atol=1e-8)


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
