"""BPSK over AWGN with reproducible, counter-based randomness.

Every frame draws from its own Philox stream keyed by ``(seed, frame
index)``, so Monte-Carlo results do not depend on execution order or on
how frames are sharded across workers.  :func:`frame_rng` defines that
stream.  :func:`frame_draws` makes a whole batch's draws from it: since a
Philox stream is fully set by its key and counter, one generator re-keyed
to each frame in turn gives every frame's stream without building a new
generator per frame, and the payload bits are read straight off the raw
64-bit words, which is what a range-two ``integers`` draw amounts to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import _integer, _real


@dataclass
class ChannelConfig:
    """AWGN operating point.

    ``rate`` is the code rate K/M used in the Eb/N0 to noise-variance
    conversion ``sigma^2 = 1 / (2 R 10^(Eb/N0 / 10))`` under unit-energy
    BPSK.  ``seed``, a whole number, keys every frame's :func:`frame_rng`.
    """

    ebno_db: float
    rate: float
    seed: int = 0

    def __post_init__(self):
        self.ebno_db = _real(self.ebno_db, "Eb/N0")
        self.rate = _real(self.rate, "code rate")
        self.seed = _integer(self.seed, "seed")
        if not 0 < self.rate <= 1:
            raise ValueError(f"code rate must lie in (0, 1], got {self.rate}")
        # 2 / sigma^2 is positive and finite exactly when sigma is; it also
        # fails where 10^(dB/10) is still finite (1e308 at 3080 dB).
        try:
            usable = 0 < self.llr_scale < math.inf
        except ArithmeticError:
            usable = False
        if not usable:
            raise ValueError(f"Eb/N0 must be finite with a finite, nonzero noise, got {self.ebno_db} dB")

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
    """Counter-based generator for one frame, independent of all others.

    Its Philox key is the two 64-bit words ``(seed mod 2^64, frame_index)``
    of whole numbers, built as a ``uint64`` array: a plain list holding a
    word of 2^63 or more converts to float64 and loses the low bits.
    Raises ``ValueError`` unless ``0 <= frame_index < 2^64``.
    """
    frame_index = _integer(frame_index, "frame index")
    if not 0 <= frame_index < 2**64:
        raise ValueError(f"frame index must lie in [0, 2^64), got {frame_index}")
    key = np.array([_integer(seed, "seed") % 2**64, frame_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def frame_draws(chan: ChannelConfig, start: int, count: int, n_bits: int, n_noise: int, out=None):
    """Payload bits and noise of frames ``start .. start + count - 1``.

    Frame ``j`` draws ``integers(0, 2, n_bits, dtype=uint8)`` and then
    ``normal(0, chan.sigma, n_noise)`` from ``frame_rng(chan.seed, j)``;
    returns the bits ``(count, n_bits)`` and the noise ``(count, n_noise)``.
    This is the one noise path: the harness's frame ``j`` is
    ``frame_draws(chan, j, 1, payload_bits, M)``, and with ``n_bits = 0``
    the noise alone is the first draw of frame ``j``'s stream.  The noise
    is written into ``out``, a C-contiguous float64 array of that shape,
    when one is given (the harness passes the leading rows of the point's
    buffers that ``run_point`` allocates, which every work unit reuses),
    else into a new array; the noise returned is ``out`` itself.  The
    indices are checked against ``[0, 2^64)`` before any frame is drawn:
    ``ValueError`` if one lies outside.

    The bits are taken from ``random_raw`` words instead, bit for bit the
    same:

    * For ``uint8`` and a range of two, ``integers`` runs Lemire's method
      on a buffered byte stream: byte ``b`` gives ``(2 b) >> 8 = b >> 7``,
      and the rejection threshold ``(255 - 1) mod 2`` is 0, so no byte is
      ever rejected.
    * The bytes come low byte first out of 32-bit words, and Philox hands
      out each 64-bit output's low half, then its high half, as 32-bit
      words.  So bit ``i`` is the top bit of byte ``i`` of the
      little-endian raw stream.
    * ``integers`` consumes ``ceil(n_bits / 4)`` 32-bit words, that is
      ``ceil(n_bits / 8)`` 64-bit outputs; a buffered half word may be
      left over, but ``normal`` draws whole 64-bit words and never reads
      it, so the noise starts at the same counter as before.

    The noise is drawn as ``standard_normal`` ``z`` per frame and scaled
    once per call: ``normal`` returns ``loc + scale * z`` per sample, and
    ``z * sigma + 0.0`` is the same value, the sign of zero included.
    """
    start = _integer(start, "frame index")
    if start < 0 or start + count > 2**64:
        raise ValueError(f"frame indices [{start}, {start + count}) must lie in [0, 2^64)")
    words = -(-n_bits // 8)
    raw = []
    noise = np.empty((count, n_noise)) if out is None else out
    if noise.shape != (count, n_noise):
        raise ValueError(f"noise output must have shape {(count, n_noise)}, got {noise.shape}")
    rng = frame_rng(chan.seed, start)
    bitgen = rng.bit_generator
    # The fresh state in plain ints, which the state setter reads twice as
    # fast as uint64 arrays.
    state = bitgen.state
    fresh = {**state, "state": {"counter": [0] * 4, "key": [int(state["state"]["key"][0]), start]},
             "buffer": [0] * 4}
    key = fresh["state"]["key"]
    for j in range(count):
        key[1] = start + j
        bitgen.state = fresh
        raw.append(bitgen.random_raw(words))
        rng.standard_normal(out=noise[j])
    noise *= chan.sigma
    noise += 0.0
    raw = np.array(raw, dtype="<u8").reshape(count, words)
    return raw.view(np.uint8)[:, :n_bits] >> 7, noise


def bpsk_modulate(bits) -> np.ndarray:
    """Map bit 0 to +1 and bit 1 to -1 (positive LLR means bit 0).

    Computed in place on one float copy of ``bits``: ``bits * -2.0 + 1.0``
    is ``1.0 - 2.0 * bits`` bit for bit, without two more temporaries.
    """
    symbols = np.array(bits, dtype=np.float64)
    symbols *= -2.0
    symbols += 1.0
    return symbols


def llr_demod(received, cfg: ChannelConfig) -> np.ndarray:
    """Channel LLRs 2 y / sigma^2.

    For the all-zero codeword the LLR mean equals ``4 R 10^(Eb/N0/10)``,
    which is the stage-0 value the construction assumes at its design
    point.
    """
    return cfg.llr_scale * np.asarray(received, dtype=np.float64)
