"""Monte-Carlo BER/FER experiment runner.

A run sweeps Eb/N0 points for one code/decoder configuration.  Each frame
draws its payload and noise from a counter-based stream keyed by
``(seed, frame index)`` (payload bits first, then noise samples).  Counters
are committed per batch of ``BATCH_FRAMES`` frames, in batch order, with the
stopping rule checked after each one.  The frames are decoded in work units
of one size, in whole batches (the last ends at ``max_frames``), each in one
pass through the numpy pipeline; a unit returns the counters of every batch
in it.  With several workers, each forked worker is sent units down its own
pipe, a few ahead of the commit, and the workers are terminated at the
stopping point.  Every frame depends only on its index and every decoder
step is row-wise, and the units do not depend on the worker count, so the
counters are bit-for-bit the same for any worker count and any unit size.
Every unit of a point reuses the buffers and the decoder ``run_point`` makes.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import io
import itertools
import math
import numbers
import time
import typing
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from ._version import __version__ as _version
from .channel import ChannelConfig, bpsk_modulate, frame_draws
from .codec import CRC24, DECODERS, RULES, crc_append, encode, message_decoder
from .construction import (
    CONSTRUCTION_METHODS,
    PATTERN_METHODS,
    REPEAT_RULES,
    CodeSpec,
    ConstructionError,
    _real,
    build_bec_code,
    build_extended_code,
    build_shortened_code,
)
from .numerics import G_MODES
from .ratematch import dematch, tx_frame

BATCH_FRAMES = 256
# A work unit holds at most this many decoder LLRs (frames * list size * N),
# at least one batch and at most UNIT_BATCHES.
UNIT_LLRS = 1 << 18
UNIT_BATCHES = 4
# BPSK symbols are made in row blocks of about this many (64 KB of float64).
BPSK_BLOCK = 1 << 13
FER_Z95 = 1.959963984540054  # the two-sided 95% quantile of the standard normal

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

    def __post_init__(self):
        if self.M is None:
            self.M = self.N
        for name in INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConstructionError(f"{name} must be a whole number, got {value!r}")
            setattr(self, name, int(value))
        self.design_snr_db = _real(self.design_snr_db, "design_snr_db")
        self.scl_threshold = _real(self.scl_threshold, "scl_threshold")
        self.ebno_sweep = tuple(_real(x, "ebno_sweep") for x in self.ebno_sweep)
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConstructionError(f"unknown {name} {getattr(self, name)!r}")
        if self.crc_len not in (0, CRC24.width):
            raise ConstructionError(f"crc_len must be 0 or {CRC24.width}")
        if self.decoder == "CASCL" and self.crc_len == 0:
            raise ConstructionError(f"CASCL decoding needs crc_len = {CRC24.width}")
        if self.crc_len and self.K <= self.crc_len:
            raise ConstructionError("K must exceed the CRC length")
        for name in ("list_size", "min_frame_errors", "max_frames", "M"):
            if getattr(self, name) < 1:
                raise ConstructionError(f"{name} must be at least 1")
        if not 0.0 <= self.scl_threshold <= 1.0:
            raise ConstructionError("scl_threshold must lie in [0, 1]")
        # Every sweep point must have a usable channel before the first runs.
        for ebno in self.ebno_sweep:
            try:
                ChannelConfig(ebno, self.rate)
            except ValueError as exc:
                raise ConstructionError(str(exc)) from exc

    @property
    def payload_bits(self) -> int:
        return self.K - self.crc_len

    @property
    def rate(self) -> float:
        """The code rate K/M, CRC bits included."""
        return self.K / self.M

    def as_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["ebno_sweep"] = list(self.ebno_sweep)
        return doc


# The type of each ExperimentConfig field; INT_FIELDS hold ``int`` or ``int | None``.
FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
INT_FIELDS = tuple(name for name, kind in FIELD_TYPES.items() if int in (typing.get_args(kind) or (kind,)))


@dataclass
class PointReport:
    """Counters of one Eb/N0 point.  ``stop`` says why it ended: ``"errors"``
    when the frame-error target was met, else ``"frames"`` (the frame cap);
    ``fer_ci95`` is the 95% Wilson score interval on FER.  Both go to the
    JSON report only, not to the CSV."""

    ebno_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    wall_time_s: float
    stop: str
    fer_ci95: tuple[float, float]


def _ebno_label(ebno_db: float) -> str:
    """The CSV's ``ebno_db``: the short ``g`` form (``1``, ``1.5``, ``-5``)
    when it reads back as the same float, else the shortest ``repr`` that
    does, so distinct sweep points never share a label."""
    short = f"{ebno_db:g}"
    return short if float(short) == ebno_db else repr(ebno_db)


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
                f"{_ebno_label(p.ebno_db)},{p.frames},{p.bit_errors},{p.frame_errors},{p.ber:.12e},{p.fer:.12e}\n"
            )
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def build_spec(cfg: ExperimentConfig) -> CodeSpec:
    """Construct the CodeSpec described by an experiment configuration."""
    N, M, K = cfg.N, cfg.M, cfg.K
    if cfg.method == "BEC_oracle":
        if M != N:
            raise ConstructionError("BEC_oracle construction supports M = N only")
        return build_bec_code(N, K, cfg.design_snr_db, cfg.g_mode)
    extend = cfg.method == "NUPGA_extended"
    if (M > N) != extend:
        raise ConstructionError("extension needs M > N" if extend else f"{cfg.method} supports M <= N only")
    if extend:
        return build_extended_code(N, M - N, K, cfg.design_snr_db, cfg.g_mode, cfg.repeat)
    return build_shortened_code(N, M, K, cfg.pattern_method, cfg.design_snr_db, cfg.g_mode,
                                repolarize=cfg.method == "NUPGA_shortened")


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """The 95% Wilson score interval of a binomial proportion ``errors / n``."""
    p, z = errors / n, FER_Z95
    centre = p + z * z / (2 * n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    scale = 1 + z * z / n
    return max(0.0, (centre - half) / scale), min(1.0, (centre + half) / scale)


def _work_units(cfg: ExperimentConfig, L: int):
    """The ``(start, count)`` work units of a point, in frame order.  Each holds
    the most whole batches whose decoder, walking ``L`` paths, holds at most
    ``UNIT_LLRS`` LLRs, at least one and at most ``UNIT_BATCHES`` (4 for SC at
    N = 64, 2 at N = 512, 1 for a list of 16 at N = 512); the last ends at ``max_frames``."""
    size = BATCH_FRAMES * min(UNIT_BATCHES, max(1, UNIT_LLRS // (BATCH_FRAMES * L * cfg.N)))
    for start in range(0, cfg.max_frames, size):
        yield start, min(size, cfg.max_frames - start)


def _sim_chunk(spec: CodeSpec, cfg: ExperimentConfig, chan: ChannelConfig,
               buffers: tuple[np.ndarray, np.ndarray], decode, unit: tuple[int, int]):
    """Simulate the frames of one ``(start, count)`` work unit in one pass,
    decoding them with the point's ``decode`` (see ``codec.message_decoder``);
    returns the integer error counters ``(frames, bit_errors, frame_errors)``
    of each ``BATCH_FRAMES`` batch in it, in order.  The channel stage runs
    in the leading ``count`` rows of ``buffers``: the noise, which becomes
    the received LLRs in place, ``(rows, M)``, and the de-matched frames
    ``(rows, N)``.

    The received LLRs are ``llr_demod(bpsk_modulate(tx) + noise)``, bit for
    bit, computed in place on the noise array: IEEE addition and
    multiplication commute exactly.  The symbols are made in row blocks of
    about ``BPSK_BLOCK`` symbols, so no unit-sized symbol array is held.
    The decoder reads the frames and never writes them."""
    start, count = unit
    rx, frames = (a[:count] for a in buffers)
    pay_bits = cfg.payload_bits
    payloads, _ = frame_draws(chan, start, count, pay_bits, cfg.M, out=rx)
    msgs = crc_append(payloads, CRC24) if cfg.crc_len else payloads
    tx = tx_frame(spec, encode(spec, msgs))
    step = max(1, BPSK_BLOCK // cfg.M)
    for row in range(0, count, step):
        rx[row:row + step] += bpsk_modulate(tx[row:row + step])
    rx *= chan.llr_scale
    dematch(spec, rx, out=frames)
    errs = decode(frames)[:, :pay_bits] != payloads
    return [(len(e), int(e.sum()), int(e.any(axis=1).sum()))
            for e in np.split(errs, range(BATCH_FRAMES, count, BATCH_FRAMES))]


def _serve(conn, unit):
    """A pool worker: runs each work unit received on ``conn`` and sends
    back its counters, or the exception it raised."""
    while True:
        work = conn.recv()
        try:
            out = unit(work)
        except Exception as exc:  # re-raised in the parent
            out = exc
        conn.send(out)


def _receive(conn):
    out = conn.recv()
    if isinstance(out, Exception):
        raise out
    return out


@contextlib.contextmanager
def _pool(unit, workers: int):
    """Yields a function that maps work units to the results of ``unit``, in
    order.  With ``workers`` > 1 they run in as many forked processes that
    each inherit ``unit`` and have a pipe of their own: unit ``i`` goes to
    worker ``i mod workers``, and at most ``workers + 1`` units are sent and
    not yet received.  On exit the workers are terminated and joined.  No
    lock is shared between the processes, so a worker terminated in
    mid-send cannot hang the parent (``multiprocessing.Pool.terminate``
    can: its task thread waits forever on the result queue's lock when a
    worker was killed holding it)."""
    if workers <= 1:
        yield functools.partial(map, unit)
        return
    ctx = get_context("fork")
    conns, procs = [], []

    def in_order(units):
        pending = collections.deque()
        for i, work in enumerate(units):
            conn = conns[i % workers]
            conn.send(work)
            pending.append(conn)
            if len(pending) > workers:
                yield _receive(pending.popleft())
        while pending:
            yield _receive(pending.popleft())

    try:
        for _ in range(workers):
            conn, child_conn = ctx.Pipe()
            conns.append(conn)
            procs.append(ctx.Process(target=_serve, args=(child_conn, unit), daemon=True))
            procs[-1].start()
            child_conn.close()
        yield in_order
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def run_point(
    cfg: ExperimentConfig,
    ebno_db: float,
    workers: int = 1,
    spec: CodeSpec | None = None,
) -> PointReport:
    """Accumulate BER/FER counters for one Eb/N0 point.

    Counters are committed per batch of ``BATCH_FRAMES`` frames until
    ``min_frame_errors`` frame errors have been counted or ``max_frames``
    frames have been simulated, whichever comes first.  The batches are
    decoded in the work units of :func:`_work_units`, in this process when
    ``workers`` is 1 or less (the default).  With ``workers`` > 1 each
    worker of a fork pool owned by this call (:func:`_pool`) takes whole
    units.  The point's channel, its one decoder (``codec.message_decoder``)
    and its two buffers, sized for the first (largest) unit of that
    decoder's walk, are made here before the pool forks, so a bad
    ``ebno_db`` raises ``ValueError`` before any unit runs.  Each worker
    inherits them, ``spec`` and ``cfg`` through the fork, so a unit is sent
    as its ``(start, count)`` alone; the buffers' pages are first written,
    and so made private, in the process that runs the unit.  Counters are
    committed in batch order; at the stopping point no further unit is
    sent, and the workers are terminated and joined, which drops the units
    still in flight (at most ``workers + 1``, see :func:`_pool`).
    """
    if spec is None:
        spec = build_spec(cfg)
    chan = ChannelConfig(ebno_db, cfg.rate, cfg.seed)
    decode = message_decoder(spec, cfg.decoder, cfg.list_size, cfg.scl_threshold, cfg.rule)
    rows = next(_work_units(cfg, decode.list_size))[1]
    buffers = np.empty((rows, cfg.M)), np.empty((rows, cfg.N))
    unit = functools.partial(_sim_chunk, spec, cfg, chan, buffers, decode)
    t0 = time.perf_counter()
    frames = bit_errors = frame_errors = 0
    with _pool(unit, workers) as run:
        for n, be, fe in itertools.chain.from_iterable(run(_work_units(cfg, decode.list_size))):
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
        stop="errors" if frame_errors >= cfg.min_frame_errors else "frames",
        fer_ci95=wilson_interval(frame_errors, frames),
    )


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> SimReport:
    """Map :func:`run_point` over the configured Eb/N0 sweep, on the code
    ``build_spec(cfg)`` describes, built once for every point."""
    spec = build_spec(cfg)
    points = [run_point(cfg, ebno, workers, spec) for ebno in cfg.ebno_sweep]
    return SimReport(config=cfg.as_dict(), library_version=_version, points=points)
