import collections
import faulthandler
import fractions
import functools
import itertools
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import statistics
import warnings

import numpy as np
import pytest

from nupolar import codec, construction, harness
from nupolar.channel import ChannelConfig, bpsk_modulate, frame_draws, llr_demod
from nupolar.codec import encode, sc_decode_batch
from nupolar.construction import (
    CONSTRUCTION_METHODS,
    ConstructionError,
    build_bec_code,
    build_extended_code,
    build_shortened_code,
)
from nupolar.harness import BATCH_FRAMES, ExperimentConfig, build_spec, run_point, run_sweep
from nupolar.ratematch import dematch, tx_frame
from scl_reference import walk_llrs


def small_cfg(**kw):
    base = dict(N=64, K=32, decoder="SC", ebno_sweep=(2.0,), max_frames=1024,
                min_frame_errors=30, seed=9)
    base.update(kw)
    return ExperimentConfig(**base)


# One work unit as run_point draws it: its frames, and the cap and the
# counters committed when it was drawn.
Drawn = collections.namedtuple("Drawn", "start count cap frames frame_errors")


def record_units(monkeypatch):
    """The list of :class:`Drawn` units that later ``run_point`` calls draw,
    in order.  The parent sizes every unit, so this holds at any worker count."""
    drawn, size = [], harness._unit_size

    def recorded(cfg, cap, last, start, frames, frame_errors):
        count = size(cfg, cap, last, start, frames, frame_errors)
        drawn.append(Drawn(start, count, cap, frames, frame_errors))
        return count

    monkeypatch.setattr(harness, "_unit_size", recorded)
    return drawn


def failing_every(every, until=None):
    """A stand-in for ``harness._sim_chunk`` that decodes nothing: frame ``j``
    fails, with one bit error, when ``every`` divides it and ``j < until``
    (never when ``every`` is 0).  Its counters depend only on the frame
    indices, as the real chunk's do."""
    def chunk(spec, cfg, chan, buffers, decode, unit):
        start, count = unit
        counters = []
        for a in range(start, start + count, BATCH_FRAMES):
            b = min(a + BATCH_FRAMES, start + count)
            end = b if until is None else max(a, min(b, until))
            errors = (end - 1) // every - (a - 1) // every if every else 0  # the multiples in [a, end)
            counters.append((b - a, errors, errors))
        return counters
    return chunk


def replay_sc(cfg, spec, ebno):
    """The counters ``(frames, bit_errors, frame_errors)`` of an SC point,
    batch by batch through the public functions, with fresh arrays."""
    chan = ChannelConfig(ebno, cfg.rate, cfg.seed)
    frames = bit_errors = frame_errors = 0
    while frames < cfg.max_frames and frame_errors < cfg.min_frame_errors:
        count = min(BATCH_FRAMES, cfg.max_frames - frames)
        payloads, noise = frame_draws(chan, frames, count, cfg.payload_bits, cfg.M)
        tx = tx_frame(spec, encode(spec, payloads))
        llr = dematch(spec, llr_demod(bpsk_modulate(tx) + noise, chan))
        errs = sc_decode_batch(spec, llr, cfg.rule)[0] != payloads
        frames += count
        bit_errors += int(errs.sum())
        frame_errors += int(errs.any(axis=1).sum())
    return frames, bit_errors, frame_errors


class TestConfig:
    def test_defaults_fill_m(self):
        cfg = ExperimentConfig(N=64, K=32)
        assert cfg.M == 64
        assert cfg.rate == 0.5

    def test_crc_rate_accounting_flag(self):
        # The Eb/N0 rate counts the CRC bits: K/M, not the payload's 8/48.
        cfg = ExperimentConfig(N=64, K=32, M=48, crc_len=24, decoder="CASCL", list_size=4)
        assert cfg.payload_bits == 8
        assert cfg.rate == 32 / 48

    def test_validation(self):
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, decoder="CASCL", crc_len=0)
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, crc_len=8)
        with pytest.raises(ConstructionError, match="K must exceed the CRC length"):
            ExperimentConfig(N=64, K=24, crc_len=24)
        for threshold in (-0.1, 1.5):
            with pytest.raises(ConstructionError, match="scl_threshold"):
                ExperimentConfig(N=64, K=32, decoder="SCL", scl_threshold=threshold)
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, min_frame_errors=0)
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, decoder="BP")
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, decoder="SCL", list_size=0)
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, rule="bogus")
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, g_mode="bogus")
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, pattern_method="bogus")
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, repeat="bogus")
        with pytest.raises(ConstructionError):
            ExperimentConfig(N=64, K=32, ebno_sweep=(1.0, float("inf")))
        for name in ("list_size", "min_frame_errors", "max_frames", "M"):
            with pytest.raises(ConstructionError, match=f"{name} must be at least 1"):
                ExperimentConfig(**{"N": 64, "K": 32, "decoder": "SCL", name: 0})
        # Integer fields must hold integers: rejected when the config is made,
        # not truncated or left to fail inside run_point.
        for name, value in (("N", 64.5), ("K", 32.5), ("M", 48.5), ("list_size", 2.5), ("crc_len", 24.0),
                            ("max_frames", 1000.5), ("min_frame_errors", 10.5), ("seed", 1.5),
                            ("list_size", True), ("max_frames", True), ("seed", False)):
            with pytest.raises(ConstructionError, match=f"{name} must be a whole number"):
                ExperimentConfig(**{"N": 64, "K": 32, "decoder": "SCL", name: value})
        # A boolean is not a number, though Python counts True as 1.
        for name, value in (("design_snr_db", True), ("scl_threshold", True), ("ebno_sweep", (1.0, True))):
            with pytest.raises(ConstructionError, match=f"{name} must be a number"):
                ExperimentConfig(**{"N": 64, "K": 32, "decoder": "SCL", name: value})
        # numpy integers are stored as ints, so the JSON report can echo them.
        cfg = ExperimentConfig(N=np.int64(64), K=32, seed=np.uint64(2**64 - 1))
        assert json.loads(json.dumps(cfg.as_dict()))["seed"] == 2**64 - 1 and cfg.M == 64

    def test_m_must_be_positive(self):
        with pytest.raises(ConstructionError, match="M must be"):
            ExperimentConfig(N=64, K=32, M=0, ebno_sweep=(1.0,))

    @pytest.mark.parametrize("sweep", [(1.0, 4000.0), (1.0, -4000.0), (3080.0,), (1.0, float("nan"))])
    def test_every_sweep_entry_needs_a_usable_channel(self, sweep):
        # Checked through ChannelConfig when the config is made, so an
        # extreme entry fails before any point runs.
        with pytest.raises(ConstructionError, match="Eb/N0"):
            ExperimentConfig(N=64, K=32, ebno_sweep=sweep)
        assert ExperimentConfig(N=64, K=32, ebno_sweep=(-30.0, 60.0)).ebno_sweep == (-30.0, 60.0)

    def test_sweep_needs_a_valid_rate(self):
        with pytest.raises(ConstructionError, match="code rate"):
            ExperimentConfig(N=64, K=40, M=32, ebno_sweep=(1.0,))


class TestBuildSpec:
    def test_method_dispatch(self):
        assert build_spec(ExperimentConfig(N=64, K=32)).construction_method == "GA_uniform"
        assert (
            build_spec(ExperimentConfig(N=64, K=24, M=48, method="NUPGA_shortened")).construction_method
            == "NUPGA_shortened"
        )
        ext = build_spec(ExperimentConfig(N=64, K=32, M=80, method="NUPGA_extended"))
        assert ext.construction_method == "NUPGA_extended"
        assert ext.tx_len == 80
        bec = build_spec(ExperimentConfig(N=64, K=32, method="BEC_oracle"))
        assert bec.construction_method == "BEC_oracle"

    def test_shape_errors(self):
        with pytest.raises(ConstructionError):
            build_spec(ExperimentConfig(N=64, K=32, M=80, method="GA_uniform"))
        with pytest.raises(ConstructionError):
            build_spec(ExperimentConfig(N=64, K=32, M=48, method="NUPGA_extended"))

    # The builder each method reaches, called directly, for M in {3N/4, N};
    # NUPGA_extended only for M = N + N/8.  Every other pair must raise.
    DIRECT = {
        ("GA_uniform", 48): lambda: build_shortened_code(64, 48, 24, "CW", -1.0, "product", repolarize=False),
        ("GA_uniform", 64): lambda: build_shortened_code(64, 64, 24, "CW", -1.0, "product", repolarize=False),
        ("NUPGA_shortened", 48): lambda: build_shortened_code(64, 48, 24, "CW", -1.0, "product"),
        ("NUPGA_shortened", 64): lambda: build_shortened_code(64, 64, 24, "CW", -1.0, "product"),
        ("NUPGA_extended", 72): lambda: build_extended_code(64, 8, 24, -1.0, "product", "weak_info"),
        ("BEC_oracle", 64): lambda: build_bec_code(64, 24, -1.0, "product"),
    }

    @pytest.mark.parametrize("M", [48, 64, 72])
    @pytest.mark.parametrize("method", CONSTRUCTION_METHODS)
    def test_equals_direct_builder(self, method, M):
        cfg = ExperimentConfig(N=64, K=24, M=M, method=method, pattern_method="CW",
                               design_snr_db=-1.0, g_mode="product", repeat="weak_info")
        if (method, M) in self.DIRECT:
            assert build_spec(cfg) == self.DIRECT[method, M]()
        else:
            with pytest.raises(ConstructionError):
                build_spec(cfg)

    # build_spec's calls (pattern, evolve, select) to the construction
    # functions that perfbench's traced build wraps in the construction
    # module, one code per rule: a call that stopped going through the
    # module would leave that stage's time at zero.
    @pytest.mark.parametrize("kw, counts", [
        (dict(M=48, method="NUPGA_shortened", pattern_method="RQUP"), (1, 1, 1)),
        (dict(M=48, method="GA_uniform", pattern_method="CW"), (1, 1, 1)),
        (dict(), (0, 1, 1)),
        (dict(M=80, method="NUPGA_extended"), (0, 1, 1)),
        (dict(M=80, method="NUPGA_extended", repeat="weak_info"), (0, 2, 2)),
        (dict(method="BEC_oracle"), (0, 0, 0)),
    ], ids=["shortened", "shortened_baseline", "mother", "tail", "weak_info", "bec"])
    def test_calls_through_the_construction_module(self, kw, counts, monkeypatch):
        calls = {name: 0 for name in ("shortening_pattern", "evolve_reliabilities", "select_information_set")}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(construction, name, counted(name, getattr(construction, name)))
        build_spec(ExperimentConfig(N=64, K=32, **kw))
        assert tuple(calls.values()) == counts

    def test_bec_oracle_rejects_empty_payload(self):
        with pytest.raises(ConstructionError):
            build_spec(ExperimentConfig(N=64, K=0, method="BEC_oracle"))


class TestRunPoint:
    def test_high_snr_is_clean(self):
        p = run_point(small_cfg(max_frames=1000, min_frame_errors=1000), 12.0)
        assert p.frames == 1000
        assert p.fer == 0.0
        assert p.bit_errors == 0

    def test_low_snr_fails_every_frame(self):
        p = run_point(small_cfg(), -5.0)
        assert p.fer > 0.95

    def test_stops_on_error_budget(self):
        cfg = small_cfg(max_frames=100_000, min_frame_errors=25)
        p = run_point(cfg, 0.0)
        assert p.frame_errors >= 25
        assert p.frames < 100_000

    def test_stop_reason(self):
        # The frame cap ends a clean point, the error target a noisy one;
        # the reason reaches the JSON report and leaves the CSV as it was.
        cfg = small_cfg(ebno_sweep=(12.0, -5.0), max_frames=512, min_frame_errors=30)
        rep = run_sweep(cfg)
        assert [p.stop for p in rep.points] == ["frames", "errors"]
        assert [p["stop"] for p in rep.to_json_dict()["points"]] == ["frames", "errors"]
        assert rep.points[0].frames == 512 and rep.points[0].frame_errors < 30
        assert rep.points[1].frame_errors >= 30
        assert all(len(row.split(",")) == 6 for row in rep.csv_text().splitlines())

    @pytest.mark.parametrize("ebno", [float("nan"), 4000.0])
    def test_bad_ebno_is_rejected_before_the_pool_starts(self, monkeypatch, ebno):
        monkeypatch.setattr(harness, "_pool", None)  # reaching the pool would raise TypeError
        with pytest.raises(ValueError):
            run_point(small_cfg(), ebno, workers=2)

    def test_pool_is_gone_after_return(self):
        run_point(small_cfg(max_frames=100_000, min_frame_errors=300), 0.0, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("ebno, stop", [(-5.0, "errors"), (12.0, "frames")])
    def test_pool_is_gone_after_either_stop(self, ebno, stop):
        # -5 dB meets the error target in the first unit, with units still
        # in flight; 12 dB runs every unit up to the frame cap.
        p = run_point(small_cfg(max_frames=4096, min_frame_errors=10), ebno, workers=2)
        assert p.stop == stop and p.frames == (BATCH_FRAMES if stop == "errors" else 4096)
        assert multiprocessing.active_children() == []

    def test_repeated_early_stops_with_more_workers_than_cores(self):
        # Each point stops in its first unit while the other workers are
        # still busy with theirs, and may be sending them back, when they
        # are terminated: the moment at which a multiprocessing.Pool can hang.
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            points = [run_point(small_cfg(max_frames=4096, min_frame_errors=10), -5.0, workers=3)
                      for _ in range(20)]
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert len({(p.frames, p.bit_errors, p.frame_errors) for p in points}) == 1
        assert points[0].frames == BATCH_FRAMES
        assert multiprocessing.active_children() == []

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        def failing(spec, cfg, chan, buffers, decode, unit):
            raise ValueError(f"unit {unit}")

        monkeypatch.setattr(harness, "_sim_chunk", failing)
        with pytest.raises(ValueError, match=r"unit \(0, 1024\)"):
            run_point(small_cfg(), 2.0, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_units_in_flight_are_bounded(self, monkeypatch, workers):
        # The parent sends each unit down a worker's pipe and receives its
        # counters back; between the two the unit is in flight.  (The
        # workers count their own copies, which the parent never reads.)
        sent = received = peak = 0
        send, recv = multiprocessing.connection.Connection.send, multiprocessing.connection.Connection.recv

        def counted_send(conn, obj):
            nonlocal sent, peak
            sent += 1
            peak = max(peak, sent - received)
            return send(conn, obj)

        def counted_recv(conn):
            nonlocal received
            out = recv(conn)
            received += 1
            return out

        monkeypatch.setattr(multiprocessing.connection.Connection, "send", counted_send)
        monkeypatch.setattr(multiprocessing.connection.Connection, "recv", counted_recv)
        drawn = record_units(monkeypatch)
        cfg = small_cfg(max_frames=100_000, min_frame_errors=300)
        p = run_point(cfg, 3.0, workers=workers)
        assert p.stop == "errors" and sent == len(drawn)
        committed = sum(unit.start < p.frames for unit in drawn)
        assert committed > workers + 1
        assert peak == workers + 1
        # Nothing is sent past the stopping point but the units already in flight.
        assert received == committed and sent <= committed + workers
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_frames_sent(self, monkeypatch, workers):
        # 12 dB stops at the frame cap, 2 dB on the error target.  A point
        # hands out at least the frames it commits and never a frame past
        # max_frames; at one worker, an error stop leaves less than its
        # last unit uncommitted.
        drawn = record_units(monkeypatch)
        cfg = small_cfg(ebno_sweep=(12.0, 2.0), max_frames=5000, min_frame_errors=300)
        rep = run_sweep(cfg, workers=workers)
        clean, noisy = rep.points
        assert (clean.stop, noisy.stop) == ("frames", "errors")
        assert clean.frames_sent == clean.frames == 5000
        assert noisy.frames_sent >= noisy.frames
        if workers == 1:
            assert noisy.frames_sent - noisy.frames < drawn[-1].count
        # The count goes to the JSON report only.
        assert [p["frames_sent"] for p in rep.to_json_dict()["points"]] == [clean.frames_sent, noisy.frames_sent]
        assert all(len(row.split(",")) == 6 for row in rep.csv_text().splitlines())
        # The units, and so frames_sent, depend on the committed counters
        # and the worker count alone, not on the workers' timing.
        first = list(drawn)
        drawn.clear()
        again = run_sweep(cfg, workers=workers)
        assert drawn == first and [p.frames_sent for p in again.points] == [clean.frames_sent, noisy.frames_sent]

    def test_fer_at_least_ber(self):
        p = run_point(small_cfg(), 1.0)
        assert p.fer >= p.ber
        assert p.ber == p.bit_errors / (p.frames * 32)

    @pytest.mark.parametrize("ebno", [12.0, 1.0, -5.0])
    def test_fer_wilson_interval(self, ebno):
        # Recomputed as the roots of (fer - p)^2 = z^2 p (1 - p) / n, the
        # score test the Wilson interval inverts.
        rep = run_sweep(small_cfg(ebno_sweep=(ebno,), max_frames=700, min_frame_errors=50))
        p = rep.points[0]
        n, z = p.frames, statistics.NormalDist().inv_cdf(0.975)
        a = 1 + z * z / n
        roots = np.sort(np.roots([a, -(2 * p.fer + z * z / n), p.fer ** 2]).real)
        assert p.fer_ci95 == pytest.approx(tuple(roots), abs=1e-12)
        assert p.fer_ci95[0] <= p.fer <= p.fer_ci95[1]
        assert json.loads(json.dumps(rep.to_json_dict()))["points"][0]["fer_ci95"] == list(p.fer_ci95)
        assert rep.csv_text().splitlines()[0] == "ebno_db,frames,bit_errors,frame_errors,ber,fer"

    @pytest.mark.parametrize("rule", ["minsum", "exact"])
    @pytest.mark.parametrize("code", [
        dict(N=512, M=320, K=160, method="NUPGA_shortened", pattern_method="NAT_PD"),
        dict(N=64, M=80, K=40, method="NUPGA_extended"),
    ])
    def test_sc_counters_replay_the_public_chain(self, code, rule):
        # 2 dB stops on the error target, 3 dB at the frame cap.
        cfg = ExperimentConfig(decoder="SC", rule=rule, max_frames=1024, min_frame_errors=100, seed=5, **code)
        spec = build_spec(cfg)
        for ebno in (2.0, 3.0):
            p = run_point(cfg, ebno, workers=1, spec=spec)
            assert (p.frames, p.bit_errors, p.frame_errors) == replay_sc(cfg, spec, ebno), ebno
            assert p.stop == ("errors" if ebno == 2.0 else "frames")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reused_workspace_replays_the_public_chain(self, workers, monkeypatch):
        # 2000 frames at N = 512 run in units of 1024 and 976 frames: the
        # point's buffers hold 1024 rows, the last unit uses their leading
        # rows, and RQUP leaves scattered positions never sent, which
        # dematch must refill in every unit.
        cfg = ExperimentConfig(N=512, M=400, K=200, method="NUPGA_shortened", pattern_method="RQUP",
                               decoder="SC", max_frames=2000, min_frame_errors=10**6, seed=8)
        spec = build_spec(cfg)
        assert np.diff(spec.pattern.indices).max() > 1
        drawn = record_units(monkeypatch)
        for ebno in (1.5, 2.5):
            drawn.clear()
            p = run_point(cfg, ebno, workers=workers, spec=spec)
            assert [unit.count for unit in drawn] == [1024, 976]
            assert (p.frames, p.bit_errors, p.frame_errors) == replay_sc(cfg, spec, ebno), ebno
            assert p.frames == 2000 and p.frame_errors > 0


class TestSimChunk:
    # Exact zeros of both signs, subnormals, magnitudes near the float
    # maximum, and +-1, which cancels a BPSK symbol to an exact zero.
    SALT = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308, 1.0, -1.0]

    @pytest.mark.parametrize("code", [
        dict(N=512, M=320, K=160, method="NUPGA_shortened", pattern_method="NAT_PD"),
        dict(N=64, M=80, K=40, method="NUPGA_extended"),
    ], ids=["short-512-320-160", "ext-64-80-40"])
    def test_in_place_llrs_equal_the_public_chain(self, code, monkeypatch):
        # At -4 dB and rate 1/2 the demodulator gain 2 / sigma^2 is below 1,
        # so the salted 1e308 stays finite and nothing may warn.  The frames
        # buffer has the walk's dtype, as run_point's does: each frame is the
        # float64 chain's, cast with its finite values clipped to float32's
        # range.
        cfg = ExperimentConfig(decoder="SC", seed=3, **code)
        spec, ebno = build_spec(cfg), -4.0
        chan = ChannelConfig(ebno, cfg.rate, cfg.seed)
        assert chan.llr_scale < 1
        rng = np.random.default_rng(12)
        drawn, decoded = [], []

        def salted_draws(*args, **kwargs):
            payloads, noise = frame_draws(*args, **kwargs)
            noise[...] = np.where(rng.random(noise.shape) < 0.2, rng.choice(self.SALT, noise.shape), noise)
            drawn.append((payloads, noise.copy()))
            return payloads, noise

        def decoder(frames):
            decoded.append(frames.copy())
            return np.zeros((len(frames), spec.payload_len), dtype=np.uint8)

        monkeypatch.setattr(harness, "frame_draws", salted_draws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            buffers = np.empty((2 * BATCH_FRAMES, cfg.M)), np.empty((2 * BATCH_FRAMES, cfg.N), codec.LLR_DTYPE)
            harness._sim_chunk(spec, cfg, chan, buffers, decoder, (BATCH_FRAMES, 2 * BATCH_FRAMES))
            payloads, noise = drawn[0]
            tx = tx_frame(spec, encode(spec, payloads))
            want = walk_llrs(dematch(spec, llr_demod(bpsk_modulate(tx) + noise, chan)))
        got = decoded[0]
        assert got.shape == want.shape == (2 * BATCH_FRAMES, cfg.N)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        # The salt reached the frames: exact zeros and finite extremes, clipped.
        assert (got == 0).any() and (np.abs(got) == np.finfo(codec.LLR_DTYPE).max).any()


class TestLlrsBeyondTheWalkRange:
    @pytest.mark.parametrize("decoder", ["SC", "SCL"])
    @pytest.mark.parametrize("code", [
        dict(N=64, M=48, K=24, method="NUPGA_shortened", pattern_method="NAT_PD"),
        dict(N=64, M=80, K=40, method="NUPGA_extended"),
    ], ids=["short-64-48-24", "ext-64-80-40"])
    def test_run_point_at_an_ebno_beyond_float32(self, code, decoder, monkeypatch):
        # At 400 dB and rate 1/2 the received LLRs are about 2e40: finite in
        # float64, beyond float32.  Each reaches the walk as float32's
        # largest finite value of its sign, so the known-zero +inf stay the
        # only infinities, and every frame decodes to the message sent.
        cfg = ExperimentConfig(decoder=decoder, list_size=4, max_frames=2 * BATCH_FRAMES, seed=4, **code)
        assert cfg.rate == 0.5 and ChannelConfig(400.0, cfg.rate).llr_scale > 1e40
        spec = build_spec(cfg)
        known_zero = ~np.isin(np.arange(cfg.N), spec.tx_positions)
        seen, real = [], harness.message_decoder

        def recording(*args):
            decode = real(*args)

            def recorded(frames):
                seen.append(frames.copy())
                return decode(frames)
            recorded.list_size = decode.list_size
            return recorded

        monkeypatch.setattr(harness, "message_decoder", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = run_point(cfg, 400.0, spec=spec)
        assert p.frames == 2 * BATCH_FRAMES and p.bit_errors == p.frame_errors == 0
        top = np.finfo(codec.LLR_DTYPE).max
        for frames in seen:
            assert frames.dtype == codec.LLR_DTYPE
            assert np.array_equal(np.isinf(frames), np.broadcast_to(known_zero, frames.shape))
            assert (np.abs(frames[:, ~known_zero]) == top).all()


class TestPointDecoder:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("decoder", ["SC", "SCL", "CASCL"])
    def test_one_decoder_per_point(self, monkeypatch, decoder, workers):
        # Four units of up to four batches: the parent builds the point's
        # one decoder before the pool forks, and no worker builds another
        # (one that tried would raise in the caller).
        cfg = small_cfg(decoder=decoder, list_size=4, crc_len=24 if decoder == "CASCL" else 0,
                        max_frames=3 * 4 * BATCH_FRAMES + 100, min_frame_errors=10**6)
        drawn = record_units(monkeypatch)
        parent, built = os.getpid(), []
        init = codec._ListDecoder.__init__

        def counted(self, *args, **kwargs):
            assert os.getpid() == parent, "a worker built a decoder"
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(codec._ListDecoder, "__init__", counted)
        p = run_point(cfg, 2.0, workers=workers)
        assert p.frames == cfg.max_frames and len(built) == 1 and len(drawn) == 4
        assert multiprocessing.active_children() == []


class TestWorkUnits:
    @staticmethod
    def run_failing(monkeypatch, cfg, every, workers=1, until=None):
        """run_point on ``cfg`` at 2 dB with :func:`failing_every` in place
        of the chunk: the unit policy at a set FER, without decoding."""
        monkeypatch.setattr(harness, "_sim_chunk", failing_every(every, until))
        return run_point(cfg, 2.0, workers=workers)

    @pytest.mark.parametrize("max_frames", [1, 255, 256, 1000, 4096, 10_000])
    @pytest.mark.parametrize("N", [16, 64, 512])
    def test_units_tile_the_frames(self, N, max_frames, monkeypatch):
        # Units are whole batches from frame 0 and the last ends at
        # max_frames, whether they hold the cap throughout (no frame fails)
        # or shrink as the error target nears (every third frame fails, so
        # the target is met by the last batch).
        drawn = record_units(monkeypatch)
        cfg = small_cfg(N=N, K=N // 2, max_frames=max_frames, min_frame_errors=-(-max_frames // 3))
        for every in (0, 3):
            drawn.clear()
            p = self.run_failing(monkeypatch, cfg, every)
            starts = [unit.start for unit in drawn]
            ends = list(itertools.accumulate(unit.count for unit in drawn))
            assert starts == [0] + ends[:-1]
            assert ends[-1] == p.frames == p.frames_sent == max_frames
            assert all(start % BATCH_FRAMES == 0 for start in starts)
            assert p.stop == ("errors" if every else "frames")

    @pytest.mark.parametrize("N, L, batches", [
        (16, 1, 4), (32, 1, 4), (64, 1, 4), (64, 2, 4), (128, 1, 4),
        (256, 1, 4), (512, 1, 4), (64, 8, 4), (1024, 1, 2),
    ])
    def test_units_have_the_cap_size(self, N, L, batches, monkeypatch):
        # The cap is the most whole batches with frames * L * N <= 2^19, at
        # most 4.  While no frame fails, every unit but the last holds it;
        # the last ends at max_frames.
        drawn = record_units(monkeypatch)
        cfg = small_cfg(N=N, K=N // 2, decoder="SCL" if L > 1 else "SC", list_size=L,
                        max_frames=3 * batches * BATCH_FRAMES + 100)
        self.run_failing(monkeypatch, cfg, 0)
        size = batches * BATCH_FRAMES
        assert [(unit.start, unit.count) for unit in drawn] == [(0, size), (size, size), (2 * size, size),
                                                                (3 * size, 100)]
        assert {unit.cap for unit in drawn} == {size}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_units_shrink_as_the_target_nears(self, monkeypatch, workers):
        # Every fifth frame fails, so the 1900th error is frame 9495.  Units
        # hold the cap until the running FER predicts that the frames
        # handed out (committed plus in flight) plus one full unit meet the
        # target; from then on each holds the whole batches that prediction
        # still needs, at least one.  They never grow.
        drawn = record_units(monkeypatch)
        cfg = small_cfg(max_frames=100_000, min_frame_errors=1900)
        p = self.run_failing(monkeypatch, cfg, 5, workers)
        assert p.stop == "errors" and p.frames == 38 * BATCH_FRAMES
        counts = [unit.count for unit in drawn]
        assert counts == sorted(counts, reverse=True)
        predicted = [unit.frame_errors * (unit.start + unit.cap) >= unit.frames * cfg.min_frame_errors > 0
                     for unit in drawn]
        first = predicted.index(True)
        assert 0 < first and not any(predicted[:first]) and all(predicted[first:])
        assert set(counts[:first]) == {4 * BATCH_FRAMES}
        for unit in drawn[first:]:
            need = fractions.Fraction(unit.frames * cfg.min_frame_errors, unit.frame_errors) - unit.start
            assert BATCH_FRAMES <= unit.count <= BATCH_FRAMES * max(1, math.ceil(need / BATCH_FRAMES))
        assert counts[-1] < 4 * BATCH_FRAMES
        # The frames past the stop are at most the units in flight.
        assert p.frames_sent == sum(counts) and p.frames_sent - p.frames < sum(counts[-workers - 1:])

    def test_units_do_not_grow_back_when_the_fer_falls(self, monkeypatch):
        # Every fifth frame before frame 6000 fails and none after, so the
        # 1300-error target is never met.  The prediction first holds at
        # frame 6144 (2 batches needed); as clean batches commit, it asks
        # for more, then fails, but no unit holds more than the one before.
        drawn = record_units(monkeypatch)
        cfg = small_cfg(max_frames=20_000, min_frame_errors=1300)
        p = self.run_failing(monkeypatch, cfg, 5, until=6000)
        assert p.stop == "frames" and p.frames_sent == 20_000
        counts = [unit.count for unit in drawn]
        assert counts[:7] == [1024] * 6 + [512] and set(counts[7:-1]) == {512}

    def test_units_follow_the_built_decoder(self, monkeypatch):
        # SC walks one path whatever list_size says, so its units hold 4
        # batches at N = 128.  Built as SCL from the same config, the
        # decoder walks 8, and the units and buffers hold 2 batches.
        cfg = small_cfg(N=128, K=64, list_size=8, max_frames=1100, min_frame_errors=10**6)
        build, chunk, seen = harness.message_decoder, harness._sim_chunk, []

        def recorded(spec, cfg, chan, buffers, decode, unit):
            seen.append((len(buffers[1]), unit[1]))
            return chunk(spec, cfg, chan, buffers, decode, unit)

        monkeypatch.setattr(harness, "_sim_chunk", recorded)
        sc = run_point(cfg, 2.0)
        assert seen == [(1024, 1024), (1024, 76)]
        seen.clear()
        monkeypatch.setattr(harness, "message_decoder", lambda spec, decoder, *args: build(spec, "SCL", *args))
        scl = run_point(cfg, 2.0)
        assert seen == [(512, 512), (512, 512), (512, 76)]
        assert sc.frames == scl.frames == 1100

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(N=512, K=256, decoder="SCL", list_size=8, max_frames=8192),
        ExperimentConfig(N=512, M=280, K=128, method="NUPGA_shortened", decoder="CASCL",
                         list_size=16, crc_len=24, max_frames=8192),
        ExperimentConfig(N=128, K=64, decoder="CASCL", list_size=16, crc_len=24, max_frames=8192),
    ])
    def test_one_batch_cap(self, cfg, monkeypatch):
        # A list of 8 at N = 512 or of 16 at N = 128 or more holds more than
        # 2^19 LLRs in two batches.
        drawn = record_units(monkeypatch)
        self.run_failing(monkeypatch, cfg, 0)
        assert {unit.count for unit in drawn} == {BATCH_FRAMES} and len(drawn) == 32

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unit_size_does_not_change_results(self, monkeypatch, workers):
        # The counters equal those of one-batch units.
        cfgs = [small_cfg(ebno_sweep=(2.0,), max_frames=100_000, min_frame_errors=300),
                small_cfg(N=512, M=320, K=160, method="NUPGA_shortened", pattern_method="NAT_PD",
                          ebno_sweep=(2.0,), max_frames=8192, min_frame_errors=300)]
        drawn = record_units(monkeypatch)
        multi = []
        for cfg in cfgs:
            drawn.clear()
            multi.append(run_sweep(cfg, workers=workers))
            # The point stops on its error target after its units shrank,
            # the shrinking path: full units, then smaller ones before the
            # frame cap.
            counts = [unit.count for unit in drawn]
            assert multi[-1].points[0].stop == "errors"
            assert counts[0] == drawn[0].cap > min(counts) and sum(counts) < cfg.max_frames
        monkeypatch.setattr(harness, "UNIT_LLRS", 0)
        strip = lambda p: {k: v for k, v in vars(p).items() if k not in ("wall_time_s", "frames_sent")}  # noqa: E731
        for cfg, rep in zip(cfgs, multi):
            drawn.clear()
            single = run_sweep(cfg, workers=workers)
            assert {unit.count for unit in drawn} == {BATCH_FRAMES}
            assert strip(single.points[0]) == strip(rep.points[0])
            assert single.csv_text() == rep.csv_text()

    def test_first_batch_stop_commits_one_batch(self, monkeypatch):
        # The unit decodes all four of its batches; only the first is committed.
        rows = []
        build = harness.message_decoder

        def counted(*args):
            decode = build(*args)

            @functools.wraps(decode)
            def decode_counted(frames):
                rows.append(len(frames))
                return decode(frames)
            return decode_counted

        monkeypatch.setattr(harness, "message_decoder", counted)
        cfg = small_cfg(max_frames=100_000, min_frame_errors=10)
        p = run_point(cfg, -5.0, workers=1)
        assert p.frames == BATCH_FRAMES and p.stop == "errors"
        assert (p.frames, p.bit_errors, p.frame_errors) == replay_sc(cfg, build_spec(cfg), -5.0)
        assert rows == [4 * BATCH_FRAMES]

    @pytest.mark.parametrize("max_frames", [100, 5000])
    def test_buffers_hold_the_first_unit(self, monkeypatch, max_frames):
        shapes = set()

        def recorded(spec, cfg, chan, buffers, decode, unit):
            shapes.add(tuple(a.shape for a in buffers))
            return [(unit[1], 0, 0)]

        monkeypatch.setattr(harness, "_sim_chunk", recorded)
        cfg = small_cfg(N=64, M=80, K=40, method="NUPGA_extended", max_frames=max_frames)
        run_point(cfg, 2.0, workers=1)
        rows = min(4 * BATCH_FRAMES, max_frames)
        assert shapes == {((rows, 80), (rows, 64))}


class TestRunSweep:
    def test_empty_sweep_gives_header_only_csv(self):
        rep = run_sweep(small_cfg(ebno_sweep=()))
        assert rep.csv_text() == "ebno_db,frames,bit_errors,frame_errors,ber,fer\n"

    def test_distinct_sweep_points_have_distinct_labels(self):
        # Six significant digits would print 1, 1 and 2.12346.
        sweep = (1.0000001, 1.0000002, 2.1234567, 1.5, -5.0)
        rep = run_sweep(small_cfg(ebno_sweep=sweep, max_frames=256))
        labels = [row.split(",")[0] for row in rep.csv_text().splitlines()[1:]]
        assert [float(label) for label in labels] == list(sweep)
        assert labels[3:] == ["1.5", "-5"]

    def test_same_seed_reproduces_csv(self):
        cfg = small_cfg(ebno_sweep=(1.0, 2.0))
        a = run_sweep(cfg).csv_text()
        b = run_sweep(cfg).csv_text()
        assert a == b

    def test_worker_count_does_not_change_results(self):
        cfg = small_cfg(ebno_sweep=(1.5,), max_frames=512, min_frame_errors=512)
        texts = {run_sweep(cfg, workers=w).csv_text() for w in (1, 3, 4)}
        assert len(texts) == 1
        # Stops on the error target long before max_frames, so the batches
        # that workers ran past the stopping point must be dropped.
        cfg = small_cfg(ebno_sweep=(0.0,), max_frames=100_000, min_frame_errors=300)
        reports = [run_sweep(cfg, workers=w) for w in (1, 2, 3)]
        assert len({rep.csv_text() for rep in reports}) == 1
        p = reports[0].points[0]
        assert p.frame_errors >= 300 and p.frames < 100_000

    def test_cascl_worker_count_does_not_change_results(self):
        cfg = ExperimentConfig(N=64, K=40, decoder="CASCL", crc_len=24, list_size=4,
                               ebno_sweep=(1.0,), max_frames=512, min_frame_errors=512, seed=11)
        one, two = (run_sweep(cfg, workers=w) for w in (1, 2))
        counters = [(p.frames, p.bit_errors, p.frame_errors) for p in (one.points[0], two.points[0])]
        assert counters[0] == counters[1]
        assert counters[0][0] == 512 and counters[0][2] > 0
        assert one.csv_text() == two.csv_text()

    def test_report_echoes_config_and_version(self):
        rep = run_sweep(small_cfg(ebno_sweep=(3.0,), seed=4))
        doc = rep.to_json_dict()
        assert doc["config"]["N"] == 64
        assert doc["config"]["seed"] == 4
        assert "label" not in doc["config"]  # compare names a run after its config file
        assert doc["library_version"]
        assert doc["points"][0]["ebno_db"] == 3.0
        assert doc["points"][0]["wall_time_s"] > 0

    def test_fer_decreases_with_snr(self):
        cfg = small_cfg(ebno_sweep=(0.0, 4.0), max_frames=2048, min_frame_errors=2048)
        fers = [p.fer for p in run_sweep(cfg).points]
        assert fers[0] > fers[1]

    def test_cascl_path_runs(self):
        cfg = ExperimentConfig(N=64, K=32, decoder="CASCL", crc_len=24, list_size=4,
                               ebno_sweep=(2.0,), max_frames=256, min_frame_errors=20, seed=2)
        p = run_sweep(cfg).points[0]
        assert p.frames > 0

    def test_scl_path_runs(self):
        cfg = ExperimentConfig(N=64, K=32, decoder="SCL", list_size=4,
                               ebno_sweep=(2.0,), max_frames=256, min_frame_errors=20, seed=2)
        p = run_sweep(cfg).points[0]
        assert p.frames > 0

    @pytest.mark.slow
    def test_low_rate_cascl_smoke_sweep_is_monotone(self):
        # Reduced-frame smoke run of the low-rate list-decoding setup:
        # FER must not increase with Eb/N0 beyond counting noise.
        cfg = ExperimentConfig(N=512, M=400, K=50, method="NUPGA_shortened",
                               decoder="CASCL", list_size=16, crc_len=24,
                               ebno_sweep=(0.0, 1.5, 3.0), max_frames=1024,
                               min_frame_errors=1024, seed=13)
        fers = [p.fer for p in run_sweep(cfg).points]
        assert fers[0] >= fers[1] >= fers[2] - 0.01
        assert fers[0] > fers[2]
