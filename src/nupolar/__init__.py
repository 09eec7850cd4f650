"""Rate-compatible polar codes built on non-uniform channel polarization.

The package provides GA/NUPGA code construction (mother, shortened, and
extended codes), SC / SCL / CRC-aided SCL decoding, BPSK-AWGN channel
simulation, and a Monte-Carlo harness with a command-line front end.
"""

from .channel import ChannelConfig, bpsk_modulate, frame_draws, frame_rng, llr_demod
from .codec import (
    CRC24,
    CrcConfig,
    ca_scl_decode_batch,
    crc_append,
    crc_check,
    encode,
    f_exact,
    f_minsum,
    sc_decode_batch,
    scl_decode_batch,
)
from .construction import (
    CodeSpec,
    ConstructionError,
    RateMatchPattern,
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
from .harness import ExperimentConfig, PointReport, SimReport, build_spec, run_point, run_sweep
from .numerics import KNOWN_ZERO_LLR, bec_pair, nupga_pair, phi, phi_inv
from .ratematch import InvalidSpecError, dematch, tx_frame

from ._version import __version__  # noqa: F401
