"""BPSK over AWGN with reproducible, counter-based randomness.

Every frame draws from its own Philox stream keyed by ``(seed, frame
index)``, so Monte-Carlo results do not depend on execution order or on
how frames are sharded across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class ChannelConfig:
    """AWGN operating point.

    ``rate`` is the code rate K/M used in the Eb/N0 to noise-variance
    conversion ``sigma^2 = 1 / (2 R 10^(Eb/N0 / 10))`` under unit-energy
    BPSK.
    """

    ebno_db: float
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.ebno_db):
            raise ValueError(f"Eb/N0 must be finite, got {self.ebno_db} dB")
        if not 0 < self.rate <= 1:
            raise ValueError(f"code rate must lie in (0, 1], got {self.rate}")

    @property
    def ebno_linear(self) -> float:
        return 10.0 ** (self.ebno_db / 10.0)

    @property
    def sigma(self) -> float:
        return float(np.sqrt(1.0 / (2.0 * self.rate * self.ebno_linear)))

    @property
    def llr_scale(self) -> float:
        """Demodulator gain 2 / sigma^2."""
        return 2.0 / self.sigma**2


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """Counter-based generator for one frame, independent of all others."""
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, frame_index]))


def bpsk_modulate(bits) -> np.ndarray:
    """Map bit 0 to +1 and bit 1 to -1 (positive LLR means bit 0)."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def awgn(symbols, cfg: ChannelConfig, frame_index: int = 0) -> np.ndarray:
    """Add white Gaussian noise from the per-frame stream."""
    symbols = np.asarray(symbols, dtype=np.float64)
    rng = frame_rng(cfg.seed, frame_index)
    return symbols + rng.normal(0.0, cfg.sigma, size=symbols.shape)


def llr_demod(received, cfg: ChannelConfig) -> np.ndarray:
    """Channel LLRs 2 y / sigma^2.

    For the all-zero codeword the LLR mean equals ``4 R 10^(Eb/N0/10)``,
    which is the stage-0 value the construction assumes at its design
    point.
    """
    return cfg.llr_scale * np.asarray(received, dtype=np.float64)
