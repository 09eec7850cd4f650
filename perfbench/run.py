#!/usr/bin/env python3
"""The nupolar benchmark: Monte-Carlo frames/s, construction codes/s, set-up
time and peak memory, plus per-layer stage times from a separate traced run.

One workload, from the repository root:

    python3 perfbench/run.py --workload sc-short512 --seed 3 --seconds 25 --trace 0

prints a human-readable summary, writes a report with an environment
fingerprint to ``perfbench/out/``, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones.

Every workload, untraced and traced, in one command (writes a combined
report; ``perfbench/BENCH_0.json`` was made this way):

    python3 perfbench/run.py --all [--seed 0] [--seconds 25] [--report PATH]

Quick self-test of the benchmark (every workload tiny, every metric named
in BENCHMARK.json must appear with its unit):

    python3 perfbench/run.py --smoke

Reference counters and frozen-mask digests at the default seed, checked by
every run at that seed, are regenerated with ``--write-reference``.

End-to-end metrics (untraced run, ``--seconds`` of ops after a warm-up):
``ops_per_s`` is frames/s on the simulation workloads (committed frames
of all timed ops / their summed run_point wall, so that every second of the
run counts alike: a shared host's speed drifts over tens of seconds, and a
median of a few long ops follows that drift more than the whole-run rate)
and codes/s on the construction workload (family size / sum over codes of
the median build_spec time); ``setup_s``
is the median over fresh interpreters of ``import nupolar`` plus
``build_spec``; ``peak_rss_mb`` is the high-water RSS of the process plus
its largest child (worker) after the timed ops.  An op that raises or
whose output differs from the reference counts as failed.

Per-layer metrics (traced run, a fixed number of ops per workload so that
totals compare across commits): each op runs untraced, then again stage by
stage with a span around every call into a layer.  Stage times are totals
in seconds; ``<layer>.share`` is a layer's part of the untraced wall (stages
inside workers divided by the worker count), and with
``harness.overhead_s`` (untraced wall minus traced stage time) the shares
sum to one.
"""

import os

# BLAS / OpenMP pools would compete with the worker processes for the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 7
REFERENCE_OPS = 48

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Stages of the simulation chunk, by layer; construction.build is the
# serial stage (one process), the rest run inside the workers.
LAYER_STAGES = {
    "codec": ("codec.encode", "codec.crc_append", "codec.crc_check", "codec.decode"),
    "channel": ("channel.rng", "channel.demod"),
    "ratematch": ("ratematch.tx", "ratematch.dematch"),
    "harness": ("harness.count",),
}
STAGE_METRICS = {
    "codec.decode_s": "codec.decode",
    "codec.encode_s": "codec.encode",
    "codec.crc_append_s": "codec.crc_append",
    "codec.crc_check_s": "codec.crc_check",
    "channel.rng_s": "channel.rng",
    "channel.demod_s": "channel.demod",
    "ratematch.tx_s": "ratematch.tx",
    "ratematch.dematch_s": "ratematch.dematch",
    "harness.count_s": "harness.count",
    "construction.pattern_s": "construction.pattern",
    "construction.evolve_s": "construction.evolve",
    "construction.select_s": "construction.select",
    "construction.build_s": "construction.build",
}
COUNT_METRICS = {
    "codec.list_forks": "codec.list_forks",
    "codec.cascl_crc_fail_frames": "codec.cascl_crc_fail_frames",
    "channel.frames": "channel.frames",
    "harness.batches": "harness.batches",
    "construction.codes": "construction.codes",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in STAGE_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "codec.decode_batch_ms_p50": "ms",
    "codec.decode_batch_ms_p90": "ms",
    "codec.cascl_rank0_share": "ratio",
    "harness.overhead_s": "s",
    "harness.worker_efficiency": "ratio",
    **{f"{layer}.share": "ratio" for layer in ("construction", *LAYER_STAGES)},
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import nupolar from this checkout's src/, never from anywhere else."""
    if not (SRC / "nupolar" / "__init__.py").is_file():
        die(f"no nupolar sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nupolar

    if Path(nupolar.__file__).resolve().parent != SRC / "nupolar":
        die(f"imported nupolar from {nupolar.__file__}, not from {SRC}")
    import workloads

    return workloads


def fingerprint(workers: int) -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    cores = len(CORES)
    return {
        "cpu_model": model or platform.processor(),
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workers": workers,
        "oversubscribed": workers > cores,
    }


SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import json, sys
import nupolar
nupolar.build_spec(nupolar.ExperimentConfig(**json.loads(sys.argv[1])))
print(time.perf_counter() - t0)
"""


# The cores this process may use.  A shared host's cores drift apart in
# speed for minutes at a time and the scheduler keeps an idle-machine
# process on one core, so single-process ops take the cores in turn
# (see on_core) and a run samples each core alike.
CORES = sorted(os.sched_getaffinity(0))


def on_core(op: int):
    """Pin this process (and children it starts) to core ``op`` modulo the core count."""
    os.sched_setaffinity(0, {CORES[op % len(CORES)]})


def all_cores():
    os.sched_setaffinity(0, CORES)


def measure_setup(cfg) -> list[float]:
    """Seconds from ``import nupolar`` to a built spec, each in a fresh interpreter.

    The first run is a warm-up (it may write byte-code caches) and is dropped.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    arg = json.dumps(cfg.as_dict())
    times = []
    for i in range(SETUP_REPEATS + 1):
        on_core(i)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, arg],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    all_cores()
    return times[1:]


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def workload_why(name: str) -> str:
    """Why the workload was chosen, as BENCHMARK.json records it."""
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    return next(w["why"] for w in benchmark["workloads"] if w["name"] == name)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


class Ledger:
    """Ops attempted and the reasons any of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}

    def fail(self, op: int, reason: str):
        self.failures.setdefault(op, reason)
        print(f"perfbench: op {op} failed: {reason}", file=sys.stderr)

    def guard(self, op: int, fn, *args):
        try:
            return fn(*args)
        except Exception:
            self.fail(op, traceback.format_exc(limit=3).strip().splitlines()[-1])
            traceback.print_exc()
            return None


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics


def warm_up(cfg):
    """A short point that lets lazy set-up and caches settle before timing."""
    return dataclasses.replace(cfg, max_frames=min(cfg.max_frames, 64))


def run_simulation(wl, w, seed: int, seconds: float, ledger: Ledger, ref: dict) -> tuple[dict, dict]:
    cfg0 = wl.op_config(w, seed, 0)
    spec = wl.build_spec(cfg0)
    expected = ref["counters"][w.name] if seed == ref["seed"] else []
    wl.untraced_point(spec, warm_up(cfg0), w.ebno_db, w.workers)

    counters, rates, frames, wall = [], [], 0, 0.0
    start = time.perf_counter()
    while not counters or time.perf_counter() - start < seconds:
        i = len(counters)
        ledger.attempted += 1
        if w.workers == 1:
            on_core(i)
        out = ledger.guard(i, wl.untraced_point, spec, wl.op_config(w, seed, i), w.ebno_db, w.workers)
        counters.append(out and out[0])
        if out is None:
            continue
        rates.append(out[0][0] / out[1])
        frames += out[0][0]
        wall += out[1]
        if i < len(expected) and list(out[0]) != expected[i]:
            ledger.fail(i, f"counters {out[0]} != reference {expected[i]}")
    all_cores()
    peak = peak_rss_mb()

    if counters[0] is not None:
        replay = wl.simulate_point(wl.NullTracer(), spec, cfg0, w.ebno_db, w.workers)
        if replay != counters[0]:
            ledger.fail(0, f"stage-by-stage replay {replay} != run_point {counters[0]}")
        if w.workers > 1:
            single, _ = wl.untraced_point(spec, cfg0, w.ebno_db, 1)
            if single != counters[0]:
                ledger.fail(0, f"1-worker run {single} != {w.workers}-worker run {counters[0]}")
    if not wl.encode_matches_oracle(spec, seed):
        ledger.fail(0, "encode differs from oracles.dense_encode")

    metrics = {"ops_per_s": frames / wall if wall else 0.0, "peak_rss_mb": peak}
    stop_on_errors = sum(1 for c in counters if c and c[2] >= w.cfg.min_frame_errors)
    details = {
        "op": "one run_point call (one sweep point)",
        "ops": len(counters),
        "frames": frames,
        "run_point_wall_s": wall,
        "frames_per_s_from": "frames / run_point_wall_s over every timed op",
        "ops_stopped_by_error_target": stop_on_errors,
        "ops_stopped_by_frame_cap": len(rates) - stop_on_errors,
        "per_op_rate_samples": len(rates),
        "per_op_rate_quartiles": statistics.quantiles(rates, n=4) if len(rates) > 1 else rates,
        "counters": counters,
    }
    return metrics, details


def run_construct(wl, seed: int, seconds: float, ledger: Ledger, ref: dict) -> tuple[dict, dict]:
    family = wl.construct_family(seed)
    expected = ref["digests"] if seed == ref["seed"] else []
    wl.build_spec(family[0])

    times = [[] for _ in family]
    specs = [None] * len(family)
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for k, cfg in enumerate(family):
            op = passes * len(family) + k
            ledger.attempted += 1
            on_core(k + passes)
            t0 = time.perf_counter()
            spec = ledger.guard(op, wl.build_spec, cfg)
            elapsed = time.perf_counter() - t0
            if spec is None:
                continue
            times[k].append(elapsed)
            specs[k] = specs[k] or spec
            digest = wl.mask_digest(spec)
            if digest != wl.mask_digest(specs[k]) or (expected and digest != expected[k]):
                ledger.fail(op, f"frozen mask digest {digest} of code {k} != reference")
        passes += 1
    all_cores()
    peak = peak_rss_mb()

    for k, (cfg, spec) in enumerate(zip(family, specs)):
        if spec is None:
            continue
        if not wl.encode_matches_oracle(spec, seed):
            ledger.fail(k, "encode differs from oracles.dense_encode")
        counters = ledger.guard(k, wl.round_trip, wl.NullTracer(), spec, cfg, wl.op_seed(seed, k))
        if counters and counters[2]:
            ledger.fail(k, f"round trip at high SNR lost frames: {counters}")

    medians = [statistics.median(t) for t in times if t]
    metrics = {"ops_per_s": len(medians) / sum(medians) if medians else 0.0, "peak_rss_mb": peak}
    details = {
        "op": "one build_spec call (one code of the family)",
        "ops": ledger.attempted,
        "family_size": len(family),
        "passes": passes,
        "codes_per_s_from": "family size / sum over codes of the median build time",
        "digests": [spec and wl.mask_digest(spec) for spec in specs],
    }
    return metrics, details


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics


def _percentile_ms(samples, q: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return 1e3 * samples[0]
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(tr, untraced_wall: float, traced_wall: float, workers: int) -> tuple[dict, dict]:
    """Per-layer metrics; shares of the untraced wall sum to one with the overhead."""
    serial = tr.total("construction.build")
    layer_time = {layer: sum(tr.total(s) for s in stages) for layer, stages in LAYER_STAGES.items()}
    parallel = sum(layer_time.values())
    overhead = untraced_wall - serial - parallel / workers
    frames = tr.counts["channel.frames"]
    metrics = {name: tr.total(span) for name, span in STAGE_METRICS.items()}
    metrics.update({name: tr.counts[key] for name, key in COUNT_METRICS.items()})
    decode_calls = tr.spans.get("codec.decode", [])
    metrics.update({
        "codec.decode_batch_ms_p50": _percentile_ms(decode_calls, 50),
        "codec.decode_batch_ms_p90": _percentile_ms(decode_calls, 90),
        "codec.cascl_rank0_share": tr.counts["codec.rank0_frames"] / frames if frames else 1.0,
        "harness.overhead_s": overhead,
        "harness.worker_efficiency": (serial + parallel) / (serial + workers * (untraced_wall - serial)),
        "construction.share": serial / untraced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    for layer, seconds in layer_time.items():
        metrics[f"{layer}.share"] = seconds / workers / untraced_wall
    metrics["harness.share"] += overhead / untraced_wall
    bases = {
        "shares": f"of trace.untraced_wall_s = {untraced_wall:.4f} s; parallel stages divided by "
                  f"{workers} worker(s); harness.share includes harness.overhead_s",
        "codec.cascl_rank0_share": f"of {frames} decoded frames",
        "codec.decode_batch_ms": f"{len(decode_calls)} decode calls",
        "harness.worker_efficiency": f"stage seconds {serial + parallel:.4f} over available "
                                     f"worker seconds with {workers} worker(s)",
        "trace.overhead_s": "traced (single-process) minus untraced wall over the same ops",
    }
    return metrics, bases


def trace_simulation(wl, w, seed: int, ops: int, ledger: Ledger, ref: dict) -> tuple[dict, dict]:
    tr = wl.Tracer()
    expected = ref["counters"][w.name] if seed == ref["seed"] else []
    cfg0 = wl.op_config(w, seed, 0)
    wl.simulate_point(wl.NullTracer(), wl.build_spec(cfg0), warm_up(cfg0), w.ebno_db, w.workers)

    t0 = time.perf_counter()
    spec = wl.build_spec(cfg0)
    untraced = time.perf_counter() - t0
    t0 = time.perf_counter()
    traced_spec = wl.traced_build(tr, cfg0)
    traced = time.perf_counter() - t0
    if wl.mask_digest(traced_spec) != wl.mask_digest(spec):
        ledger.fail(0, "traced build_spec gave another frozen mask")

    def op(i):
        nonlocal untraced, traced
        cfg = wl.op_config(w, seed, i)
        counters, wall = wl.untraced_point(spec, cfg, w.ebno_db, w.workers)
        untraced += wall
        t0 = time.perf_counter()
        replay = wl.simulate_point(tr, spec, cfg, w.ebno_db, w.workers)
        traced += time.perf_counter() - t0
        if replay != counters:
            ledger.fail(i, f"stage-by-stage counters {replay} != run_point {counters}")
        if i < len(expected) and list(counters) != expected[i]:
            ledger.fail(i, f"counters {counters} != reference {expected[i]}")

    for i in range(ops):
        ledger.attempted += 1
        ledger.guard(i, op, i)
    return layer_metrics(tr, untraced, traced, w.workers)


def trace_construct(wl, seed: int, ops: int, ledger: Ledger, ref: dict) -> tuple[dict, dict]:
    """Each op builds one code and carries one batch through it (the round-trip check)."""
    tr = wl.Tracer()
    family = wl.construct_family(seed)
    expected = ref["digests"] if seed == ref["seed"] else []
    wl.build_spec(family[0])
    untraced = traced = 0.0

    def op(i, k, cfg):
        nonlocal untraced, traced
        t0 = time.perf_counter()
        spec = wl.build_spec(cfg)
        counters = wl.round_trip(wl.NullTracer(), spec, cfg, wl.op_seed(seed, k))
        untraced += time.perf_counter() - t0
        t0 = time.perf_counter()
        traced_spec = wl.traced_build(tr, cfg)
        traced_counters = wl.round_trip(tr, traced_spec, cfg, wl.op_seed(seed, k))
        traced += time.perf_counter() - t0
        digest = wl.mask_digest(spec)
        if wl.mask_digest(traced_spec) != digest or (expected and digest != expected[k]):
            ledger.fail(i, f"frozen mask of code {k} differs from the reference")
        if counters[2] or traced_counters != counters:
            ledger.fail(i, f"round trip at high SNR: {counters} untraced, {traced_counters} traced")

    for p in range(ops):
        for k, cfg in enumerate(family):
            ledger.attempted += 1
            ledger.guard(p * len(family) + k, op, p * len(family) + k, k, cfg)
    return layer_metrics(tr, untraced, traced, 1)


# ---------------------------------------------------------------------------
# command line


def run_one(args) -> int:
    wl = load_library()
    if args.workload not in wl.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    env = fingerprint(w.workers)
    if env["oversubscribed"]:
        print(f"perfbench: warning: {w.workers} workers on {env['nproc']} cores", file=sys.stderr)
    ref = load_reference()
    ledger = Ledger()
    report = {"workload": w.name, "why": workload_why(w.name), "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": env}

    if args.trace:
        ops = args.ops or w.traced_ops
        if w.cfg is None:
            metrics, details = trace_construct(wl, args.seed, ops, ledger, ref)
        else:
            metrics, details = trace_simulation(wl, w, args.seed, ops, ledger, ref)
        units = PER_LAYER_UNITS
    else:
        setup = measure_setup(wl.setup_config(w, args.seed))
        if w.cfg is None:
            metrics, details = run_construct(wl, args.seed, args.seconds, ledger, ref)
        else:
            metrics, details = run_simulation(wl, w, args.seed, args.seconds, ledger, ref)
        metrics["setup_s"] = statistics.median(setup)
        details["setup_s_samples"] = setup
        units = END_TO_END_UNITS

    failed = len(ledger.failures)
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report.update(result=result, details=details, failures=ledger.failures)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{w.name}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    alias = "codes_per_s" if w.cfg is None else "frames_per_s"
    print(f"{w.name} seed={args.seed} trace={args.trace}: {report['why']}")
    for name, entry in result["metrics"].items():
        label = f"{name} ({alias})" if name == "ops_per_s" else name
        print(f"  {label:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_ops':34s} {failed}\n  {'attempted_ops':34s} {ledger.attempted}")
    print(f"  report: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int, ops: int | None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if ops:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    with open(OUT / f"{workload}.seed{seed}.trace{trace}.json") as fh:
        report = json.load(fh)
    if json.loads(proc.stdout.strip().splitlines()[-1]) != report["result"]:
        raise RuntimeError(f"{workload} trace={trace}: last stdout line differs from its report")
    return report


def run_all(args) -> int:
    wl = load_library()
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    wanted = {0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
              1: {m["name"]: m["unit"] for m in benchmark["per_layer"]}}
    seconds, ops = (0, 1) if args.smoke else (args.seconds, args.ops)
    workers = max(w.workers for w in wl.WORKLOADS.values())
    combined = {"seed": args.seed, "seconds": seconds, "fingerprint": fingerprint(workers), "workloads": {}}
    problems = []
    print(f"{'workload':22s} {'rate':>24s} {'setup_s':>9s} {'peak_rss_mb':>12s} {'failed_ops':>11s} "
          f"{'attempted_ops':>14s}")
    for name, w in wl.WORKLOADS.items():
        entry = combined["workloads"][name] = {"why": workload_why(name)}
        for trace in (0, 1):
            report = run_child(name, args.seed, seconds, trace, ops)
            result = report["result"]
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != BENCHMARK.json {wanted[trace]}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed ops {report['failures']}")
            entry["per_layer" if trace else "end_to_end"] = {
                m: v["value"] for m, v in result["metrics"].items()}
            entry[f"trace{trace}"] = {k: report[k] for k in ("result", "details", "failures")}
            entry["workers"] = report["fingerprint"]["workers"]
        e2e = entry["end_to_end"]
        rate = f"{e2e['ops_per_s']:.1f} {'codes' if w.cfg is None else 'frames'}_per_s"
        fails = entry["trace0"]["result"]["failed"] + entry["trace1"]["result"]["failed"]
        attempts = entry["trace0"]["result"]["attempted"] + entry["trace1"]["result"]["attempted"]
        print(f"{name:22s} {rate:>24s} {e2e['setup_s']:9.4f} {e2e['peak_rss_mb']:12.1f} {fails:11d} "
              f"{attempts:14d}")
    if args.report:
        Path(args.report).write_text(json.dumps(combined, indent=1) + "\n")
        print(f"report: {args.report}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.smoke:
        print("smoke: " + ("FAILED" if problems else "every workload ran and every metric appeared with its unit"))
    return 1 if problems else 0


def write_reference() -> int:
    wl = load_library()
    ref = {"seed": DEFAULT_SEED, "counters": {}, "digests": []}
    for name, w in wl.WORKLOADS.items():
        if w.cfg is None:
            ref["digests"] = [wl.mask_digest(wl.build_spec(c)) for c in wl.construct_family(DEFAULT_SEED)]
            continue
        spec = wl.build_spec(w.cfg)
        ref["counters"][name] = [
            list(wl.untraced_point(spec, wl.op_config(w, DEFAULT_SEED, i), w.ebno_db, w.workers)[0])
            for i in range(REFERENCE_OPS)
        ]
    REFERENCE.write_text(json.dumps(ref) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="ops in a traced run (default: per workload)")
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--report", help="with --all: write the combined report here")
    parser.add_argument("--smoke", action="store_true", help="every workload tiny; check every metric")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.all or args.smoke:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload, --all, --smoke or --write-reference")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
