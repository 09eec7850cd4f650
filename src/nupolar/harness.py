"""Monte-Carlo BER/FER experiment runner.

A run sweeps Eb/N0 points for one code/decoder configuration.  Each frame
draws its payload and noise from a counter-based stream keyed by
``(seed, frame index)`` (payload bits first, then noise samples), so the
counters are bit-for-bit reproducible no matter how frames are sharded
across the worker pool.  Frames are processed in fixed-size batches and
the stopping rule is evaluated only at batch boundaries, which keeps the
stopping decision independent of the worker count as well.
"""

from __future__ import annotations

import dataclasses
import io
import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from ._version import __version__ as _version
from .channel import ChannelConfig, bpsk_modulate, frame_rng, llr_demod
from .codec import CRC24, _crc_select, crc_append, encode, scl_decode_batch
from .construction import (
    CONSTRUCTION_METHODS,
    CodeSpec,
    ConstructionError,
    bec_construct,
    build_extended_code,
    build_mother_code,
    build_shortened_code,
    RateMatchPattern,
)
from .ratematch import dematch, tx_frame

BATCH_FRAMES = 256
WORKERS_ENV = "NUPOLAR_WORKERS"

DECODERS = ("SC", "SCL", "CASCL")


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
        if self.method not in CONSTRUCTION_METHODS:
            raise ConstructionError(f"unknown construction method {self.method!r}")
        if self.decoder not in DECODERS:
            raise ConstructionError(f"unknown decoder {self.decoder!r}")
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


def _sim_chunk(spec: CodeSpec, cfg: ExperimentConfig, ebno_db: float, start: int, count: int):
    """Simulate frames [start, start+count); returns integer error counters."""
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


def _worker_count(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    return max(1, workers)


class _Pool:
    """Tiny wrapper so a worker pool is optional and fork-safe."""

    def __init__(self, workers: int):
        self.workers = workers
        self.pool = get_context("fork").Pool(workers) if workers > 1 else None

    def run_batch(self, spec, cfg, ebno_db, start, count):
        if self.pool is None:
            return [_sim_chunk(spec, cfg, ebno_db, start, count)]
        bounds = np.linspace(start, start + count, self.workers + 1).astype(int)
        jobs = [
            (spec, cfg, ebno_db, int(lo), int(hi - lo))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        return self.pool.starmap(_sim_chunk, jobs)

    def close(self):
        if self.pool is not None:
            self.pool.close()
            self.pool.join()


def run_point(
    cfg: ExperimentConfig,
    ebno_db: float,
    workers: int | None = None,
    spec: CodeSpec | None = None,
    _pool: "_Pool | None" = None,
) -> PointReport:
    """Accumulate BER/FER counters for one Eb/N0 point.

    Frames run until ``min_frame_errors`` frame errors have been counted
    or ``max_frames`` frames have been simulated, whichever comes first;
    both checks happen at fixed batch boundaries.
    """
    if spec is None:
        spec = build_spec(cfg)
    pool = _pool if _pool is not None else _Pool(_worker_count(workers))
    t0 = time.perf_counter()
    frames = bit_errors = frame_errors = 0
    try:
        while frames < cfg.max_frames and frame_errors < cfg.min_frame_errors:
            count = min(BATCH_FRAMES, cfg.max_frames - frames)
            for n, be, fe in pool.run_batch(spec, cfg, ebno_db, frames, count):
                frames += n
                bit_errors += be
                frame_errors += fe
    finally:
        if _pool is None:
            pool.close()
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
    pool = _Pool(_worker_count(workers))
    report = SimReport(config=cfg.as_dict(), library_version=_version)
    try:
        for ebno in cfg.ebno_sweep:
            report.points.append(run_point(cfg, ebno, spec=spec, _pool=pool))
    finally:
        pool.close()
    return report
