"""Workloads of the nupolar benchmark and the traced pipeline that measures them.

Every workload runs against the public API of ``nupolar``.  The untraced
path calls the library exactly as a user does (``run_point`` and
``build_spec``).  The traced path replays the same work stage by stage
through the public functions of each layer, wrapping every call in a span,
and must reproduce the untraced counters and frozen masks exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from nupolar import (
    ChannelConfig,
    CrcConfig,
    ExperimentConfig,
    bpsk_modulate,
    build_spec,
    crc_append,
    crc_check,
    dematch,
    encode,
    frame_rng,
    llr_demod,
    run_point,
    sc_decode_batch,
    scl_decode_batch,
    tx_frame,
)
from nupolar import construction
from nupolar.construction import PATTERN_METHODS
from nupolar.harness import BATCH_FRAMES
from nupolar.oracles import dense_encode

# The public construction functions that build_spec reaches through the
# construction module's globals, and the span each call is recorded under.
CONSTRUCTION_STAGES = {
    "shortening_pattern": "construction.pattern",
    "evolve_reliabilities": "construction.evolve",
    "select_information_set": "construction.select",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.  ``cfg`` is None for the construction workload,
    whose ops are the codes of :func:`construct_family`."""

    name: str
    cfg: ExperimentConfig | None
    workers: int = 1
    traced_ops: int = 1

    @property
    def ebno_db(self) -> float:
        return self.cfg.ebno_sweep[0]


def _sim(N, M, K, method, decoder, ebno, max_frames, min_frame_errors, **kw):
    return ExperimentConfig(
        N=N, M=M, K=K, method=method, decoder=decoder, ebno_sweep=(ebno,),
        max_frames=max_frames, min_frame_errors=min_frame_errors, **kw,
    )


# Why each workload exists is recorded in BENCHMARK.json.  Each op (one
# run_point call) takes about half a second to two seconds on a 2-core
# Xeon VM, so a 25-second run has a dozen ops or more.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sc-short512",
            _sim(512, 320, 160, "NUPGA_shortened", "SC", 2.5, 8192, 200, pattern_method="NAT_PD"),
            traced_ops=8,
        ),
        Workload(
            "cascl16-short512",
            _sim(512, 280, 128, "NUPGA_shortened", "CASCL", 1.5, 256, 100,
                 pattern_method="NAT_PD", list_size=16, crc_len=24),
            traced_ops=3,
        ),
        Workload(
            "sc-ext64-w2",
            _sim(64, 80, 40, "NUPGA_extended", "SC", 3.0, 1 << 17, 1000),
            workers=2, traced_ops=6,
        ),
        Workload("construct-family1024", None),
    )
}

FAMILY_N = 1024
FAMILY_SHORT_M = (576, 704, 832, 960)
FAMILY_EXT_M = (1088, 1216, 1344, 1472)


def construct_family(seed: int) -> list[ExperimentConfig]:
    """The rate-compatible N=1024 family; the seed draws each code's K and design SNR.

    The M grid is fixed, so the cost of a family (dominated by the CW
    generator reduction, which grows with N - M) does not depend on the seed.
    """
    rng = np.random.default_rng([seed, FAMILY_N])
    shapes = [
        (M, method, pattern)
        for M in FAMILY_SHORT_M
        for pattern in PATTERN_METHODS
        for method in ("NUPGA_shortened", "GA_uniform")
    ] + [(M, "NUPGA_extended", "NAT_PD") for M in FAMILY_EXT_M]
    family = []
    for M, method, pattern in shapes:
        rate = rng.uniform(0.3, 0.7)
        snr = rng.uniform(0.0, 3.0)
        K = int(round(rate * min(M, FAMILY_N)))
        family.append(ExperimentConfig(
            N=FAMILY_N, M=M, K=K, method=method, pattern_method=pattern, design_snr_db=round(snr, 3),
        ))
    return family


def op_seed(seed: int, index: int) -> int:
    """Channel seed of op ``index`` of a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint32)[0])


def op_config(workload: Workload, seed: int, index: int) -> ExperimentConfig:
    return dataclasses.replace(workload.cfg, seed=op_seed(seed, index))


def setup_config(workload: Workload, seed: int) -> ExperimentConfig:
    """The code a user waits for before the first frame (or first code) of a run."""
    if workload.cfg is None:
        return construct_family(seed)[0]
    return op_config(workload, seed, 0)


def mask_digest(spec) -> str:
    return hashlib.sha256(np.packbits(spec.frozen_mask).tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory spans (durations per name) and counters."""

    def __init__(self):
        self.spans = defaultdict(list)
        self.counts = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name].append(time.perf_counter() - t0)

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def total(self, name: str) -> float:
        return float(sum(self.spans.get(name, ())))


class NullTracer:
    """Tracer stand-in that records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, n: int = 1):
        pass


@contextlib.contextmanager
def traced_construction(tracer: Tracer):
    """Record a span around every call build_spec makes into the construction stages."""
    saved = {name: getattr(construction, name) for name in CONSTRUCTION_STAGES}

    def timed(fn, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(span):
                return fn(*args, **kwargs)
        return wrapper

    for name, span in CONSTRUCTION_STAGES.items():
        setattr(construction, name, timed(saved[name], span))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(construction, name, fn)


def traced_build(tracer: Tracer, cfg: ExperimentConfig):
    with traced_construction(tracer), tracer.span("construction.build"):
        spec = build_spec(cfg)
    tracer.count("construction.codes")
    return spec


def list_forks_per_frame(cfg: ExperimentConfig) -> int:
    """Live paths that fork at the information leaves of one SCL frame (no pruning)."""
    if cfg.decoder == "SC":
        return 0
    return sum(min(1 << i, cfg.list_size) for i in range(cfg.K))


def sim_chunk(tr, spec, cfg: ExperimentConfig, ebno_db: float, start: int, count: int):
    """Frames [start, start+count) stage by stage; returns (frames, bit_errors, frame_errors).

    Mirrors the harness chunk: per-frame Philox payload then noise, CRC,
    encode, rate-match, BPSK/AWGN, demod, de-match, decode, error count.
    """
    chan = ChannelConfig(ebno_db, cfg.rate, cfg.seed)
    pay_bits = cfg.payload_bits
    with tr.span("channel.rng"):
        payloads = np.empty((count, pay_bits), dtype=np.uint8)
        noise = np.empty((count, cfg.M))
        for j in range(count):
            rng = frame_rng(cfg.seed, start + j)
            payloads[j] = rng.integers(0, 2, pay_bits, dtype=np.uint8)
            noise[j] = rng.normal(0.0, chan.sigma, cfg.M)
    with tr.span("codec.crc_append"):
        msgs = crc_append(payloads, CrcConfig()) if cfg.crc_len else payloads
    with tr.span("codec.encode"):
        codewords = encode(spec, msgs)
    with tr.span("ratematch.tx"):
        tx = tx_frame(spec, codewords)
    with tr.span("channel.demod"):
        llr = llr_demod(bpsk_modulate(tx) + noise, chan)
    with tr.span("ratematch.dematch"):
        frames = dematch(spec, llr)
    with tr.span("codec.decode"):
        if cfg.decoder == "SC":
            decoded, _ = sc_decode_batch(spec, frames, cfg.rule)
        else:
            lists, pm = scl_decode_batch(spec, frames, cfg.list_size, cfg.scl_threshold, cfg.rule)
    rank = np.zeros(count, dtype=np.int64)
    with tr.span("codec.crc_check"):  # CRC check and list selection; empty for SC
        if cfg.decoder == "CASCL":
            # The selection rule of ca_scl_decode_batch: the best-metric
            # candidate that passes the CRC, else the best-metric one.
            passes = crc_check(lists, CrcConfig()) & np.isfinite(pm)
            first_pass = np.argmax(passes, axis=1)
            crc_ok = passes[np.arange(count), first_pass]
            rank = np.where(crc_ok, first_pass, 0)
            tr.count("codec.cascl_crc_fail_frames", int(count - crc_ok.sum()))
        if cfg.decoder != "SC":
            decoded = lists[np.arange(count), rank]
    with tr.span("harness.count"):
        errs = decoded[:, :pay_bits] != payloads
        result = count, int(errs.sum()), int(errs.any(axis=1).sum())
    tr.count("channel.frames", count)
    tr.count("codec.rank0_frames", int(np.count_nonzero(rank == 0)))
    tr.count("codec.list_forks", count * list_forks_per_frame(cfg))
    return result


def simulate_point(tr, spec, cfg: ExperimentConfig, ebno_db: float, workers: int):
    """The run_point loop: whole batches split into one shard per worker,
    stopping rule checked at batch boundaries.  Returns the counters."""
    frames = bit_errors = frame_errors = 0
    while frames < cfg.max_frames and frame_errors < cfg.min_frame_errors:
        count = min(BATCH_FRAMES, cfg.max_frames - frames)
        tr.count("harness.batches")
        bounds = np.linspace(frames, frames + count, workers + 1).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                n, be, fe = sim_chunk(tr, spec, cfg, ebno_db, int(lo), int(hi - lo))
                frames += n
                bit_errors += be
                frame_errors += fe
    return frames, bit_errors, frame_errors


def untraced_point(spec, cfg: ExperimentConfig, ebno_db: float, workers: int):
    """One op as a user runs it; returns (counters, wall seconds)."""
    t0 = time.perf_counter()
    rep = run_point(cfg, ebno_db, workers=workers, spec=spec)
    wall = time.perf_counter() - t0
    return (rep.frames, rep.bit_errors, rep.frame_errors), wall


ROUND_TRIP_FRAMES = 32
ROUND_TRIP_EBNO_DB = 20.0


def round_trip(tr, spec, cfg: ExperimentConfig, seed: int):
    """SC-decode one batch through a constructed code at an Eb/N0 high enough
    that every frame must come back; returns the counters."""
    cfg = dataclasses.replace(cfg, decoder="SC", max_frames=ROUND_TRIP_FRAMES, seed=seed)
    return simulate_point(tr, spec, cfg, ROUND_TRIP_EBNO_DB, 1)


def encode_matches_oracle(spec, seed: int, frames: int = 4) -> bool:
    """A sample of encode outputs equals the dense Kronecker-matrix encoder."""
    rng = np.random.default_rng([seed, spec.mother_len, spec.payload_len])
    msgs = rng.integers(0, 2, (frames, spec.payload_len), dtype=np.uint8)
    return bool(np.array_equal(encode(spec, msgs), dense_encode(spec, msgs)))
