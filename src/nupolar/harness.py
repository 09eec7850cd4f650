"""Monte-Carlo BER/FER experiment runner.

A run sweeps Eb/N0 points for one code/decoder configuration.  Each frame
draws its payload and noise from a counter-based stream keyed by
``(seed, frame index)`` (payload bits first, then noise samples), and
frames run in fixed-size batches: workers take whole batches, and their
counters are committed in batch order with the stopping rule checked after
each one.  So the counters are bit-for-bit the same for any worker count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from ._version import __version__ as _version
from .channel import ChannelConfig, bpsk_modulate, frame_rng, llr_demod
from .codec import CRC24, RULES, _crc_select, crc_append, encode, scl_decode_batch
from .construction import (
    CONSTRUCTION_METHODS,
    PATTERN_METHODS,
    REPEAT_RULES,
    CodeSpec,
    ConstructionError,
    bec_construct,
    build_extended_code,
    build_mother_code,
    build_shortened_code,
    RateMatchPattern,
)
from .numerics import G_MODES
from .ratematch import dematch, tx_frame

BATCH_FRAMES = 256
WORKERS_ENV = "NUPOLAR_WORKERS"

DECODERS = ("SC", "SCL", "CASCL")

# The allowed values of each enumerated ExperimentConfig field.
CHOICES = {"method": CONSTRUCTION_METHODS, "pattern_method": PATTERN_METHODS,
           "decoder": DECODERS, "g_mode": G_MODES, "rule": RULES, "repeat": REPEAT_RULES}


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one simulation run."""

    N: int
    K: int
    M: int | None = None
    method: str = "GA_uniform"
    pattern_method: str = "NAT_PD"
    decoder: str = "SC"
    list_size: int = 8
    crc_len: int = 0
    design_snr_db: float = 0.0
    ebno_sweep: tuple[float, ...] = ()
    max_frames: int = 1_000_000
    min_frame_errors: int = 100
    seed: int = 0
    g_mode: str = "sum"
    rule: str = "minsum"
    scl_threshold: float = 0.0
    repeat: str = "tail"
    bec_erasure: float | None = None
    rate_excludes_crc: bool = False
    label: str = ""

    def __post_init__(self):
        if self.M is None:
            self.M = int(self.N)
        self.ebno_sweep = tuple(float(x) for x in self.ebno_sweep)
        if not np.all(np.isfinite(self.ebno_sweep)):
            raise ConstructionError(f"ebno_sweep entries must be finite, got {self.ebno_sweep}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConstructionError(f"unknown {name} {getattr(self, name)!r}")
        if self.crc_len not in (0, CRC24.width):
            raise ConstructionError(f"crc_len must be 0 or {CRC24.width}")
        if self.decoder == "CASCL" and self.crc_len == 0:
            raise ConstructionError(f"CASCL decoding needs crc_len = {CRC24.width}")
        if self.crc_len and self.K <= self.crc_len:
            raise ConstructionError("K must exceed the CRC length")
        if self.list_size < 1:
            raise ConstructionError("list_size must be at least 1")
        if not 0.0 <= self.scl_threshold <= 1.0:
            raise ConstructionError("scl_threshold must lie in [0, 1]")
        if self.min_frame_errors < 1:
            raise ConstructionError("min_frame_errors must be at least 1")
        if self.max_frames < 1:
            raise ConstructionError("max_frames must be at least 1")

    @property
    def payload_bits(self) -> int:
        return self.K - self.crc_len

    @property
    def rate(self) -> float:
        bits = self.payload_bits if self.rate_excludes_crc else self.K
        return bits / self.M

    def as_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["ebno_sweep"] = list(self.ebno_sweep)
        return doc


@dataclass
class PointReport:
    ebno_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    wall_time_s: float


@dataclass
class SimReport:
    config: dict
    library_version: str
    points: list[PointReport] = field(default_factory=list)

    def csv_text(self) -> str:
        out = io.StringIO()
        out.write("ebno_db,frames,bit_errors,frame_errors,ber,fer\n")
        for p in self.points:
            out.write(
                f"{p.ebno_db:g},{p.frames},{p.bit_errors},{p.frame_errors},{p.ber:.12e},{p.fer:.12e}\n"
            )
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "library_version": self.library_version,
            "points": [dataclasses.asdict(p) for p in self.points],
        }


def build_spec(cfg: ExperimentConfig) -> CodeSpec:
    """Construct the CodeSpec described by an experiment configuration."""
    N, M, K = cfg.N, cfg.M, cfg.K
    if cfg.method == "GA_uniform":
        if M == N:
            return build_mother_code(N, K, cfg.design_snr_db, cfg.g_mode)
        if M < N:
            return build_shortened_code(
                N, M, K, cfg.pattern_method, cfg.design_snr_db, cfg.g_mode, repolarize=False
            )
        raise ConstructionError("GA_uniform supports M <= N only")
    if cfg.method == "NUPGA_shortened":
        return build_shortened_code(N, M, K, cfg.pattern_method, cfg.design_snr_db, cfg.g_mode)
    if cfg.method == "NUPGA_extended":
        if M <= N:
            raise ConstructionError("extension needs M > N")
        return build_extended_code(N, M - N, K, cfg.design_snr_db, cfg.g_mode, cfg.repeat)
    # BEC oracle construction: uniform erasure channel matched to the design
    # point through the Bhattacharyya parameter exp(-S) unless given.
    if M != N:
        raise ConstructionError("BEC_oracle construction supports M = N only")
    eps = cfg.bec_erasure
    if eps is None:
        eps = float(np.exp(-(10.0 ** (cfg.design_snr_db / 10.0))))
    mask = bec_construct(np.full(N, eps), K)
    return CodeSpec(
        mother_len=N,
        payload_len=K,
        tx_len=N,
        frozen_mask=mask,
        pattern=RateMatchPattern(),
        design_snr_db=cfg.design_snr_db,
        construction_method="BEC_oracle",
        g_mode=cfg.g_mode,
    )


def _sim_chunk(spec: CodeSpec, cfg: ExperimentConfig, ebno_db: float, start: int):
    """Simulate the batch of frames from ``start`` (up to ``BATCH_FRAMES``, ending
    by ``max_frames``); returns integer error counters."""
    count = min(BATCH_FRAMES, cfg.max_frames - start)
    chan = ChannelConfig(ebno_db, cfg.rate, cfg.seed)
    pay_bits = cfg.payload_bits
    M = cfg.M
    payloads = np.empty((count, pay_bits), dtype=np.uint8)
    noise = np.empty((count, M))
    for j in range(count):
        rng = frame_rng(cfg.seed, start + j)
        payloads[j] = rng.integers(0, 2, pay_bits, dtype=np.uint8)
        noise[j] = rng.normal(0.0, chan.sigma, M)
    msgs = crc_append(payloads, CRC24) if cfg.crc_len else payloads
    tx = tx_frame(spec, encode(spec, msgs))
    frames = dematch(spec, llr_demod(bpsk_modulate(tx) + noise, chan))
    L = 1 if cfg.decoder == "SC" else cfg.list_size
    lists, pm = scl_decode_batch(spec, frames, L, cfg.scl_threshold, cfg.rule)
    decoded = _crc_select(lists, pm, CRC24)[0] if cfg.decoder == "CASCL" else lists[:, 0]
    errs = decoded[:, :pay_bits] != payloads
    return count, int(errs.sum()), int(errs.any(axis=1).sum())


def run_point(
    cfg: ExperimentConfig,
    ebno_db: float,
    workers: int | None = None,
    spec: CodeSpec | None = None,
) -> PointReport:
    """Accumulate BER/FER counters for one Eb/N0 point.

    Frames run in batches of ``BATCH_FRAMES`` until ``min_frame_errors``
    frame errors have been counted or ``max_frames`` frames have been
    simulated, whichever comes first.  With ``workers`` > 1 (default: the
    ``NUPOLAR_WORKERS`` environment variable, else 1) each worker of a
    fork pool owned by this call takes whole batches; the counters are
    committed in batch order, and batches past the stopping point are
    dropped when the pool is terminated.
    """
    if spec is None:
        spec = build_spec(cfg)
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    batch = functools.partial(_sim_chunk, spec, cfg, ebno_db)
    starts = range(0, cfg.max_frames, BATCH_FRAMES)
    t0 = time.perf_counter()
    frames = bit_errors = frame_errors = 0
    with get_context("fork").Pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for n, be, fe in pool.imap(batch, starts) if pool else map(batch, starts):
            frames += n
            bit_errors += be
            frame_errors += fe
            if frame_errors >= cfg.min_frame_errors:
                break
    wall = time.perf_counter() - t0
    return PointReport(
        ebno_db=float(ebno_db),
        frames=frames,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        ber=bit_errors / (frames * cfg.payload_bits),
        fer=frame_errors / frames,
        wall_time_s=wall,
    )


def run_sweep(cfg: ExperimentConfig, workers: int | None = None) -> SimReport:
    """Map :func:`run_point` over the configured Eb/N0 sweep."""
    spec = build_spec(cfg)
    points = [run_point(cfg, ebno, workers, spec) for ebno in cfg.ebno_sweep]
    return SimReport(config=cfg.as_dict(), library_version=_version, points=points)
