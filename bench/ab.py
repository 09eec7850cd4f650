#!/usr/bin/env python3
"""In-process A/B timing of two nupolar source trees on the benchmark workloads.

A shared host's speed drifts by up to 2x over minutes, which separate
benchmark runs cannot tell from a change in the code.  This script loads
both trees into one process, each tree's ``nupolar`` package under its own
name, and alternates one op between the two sides, so drift hits both
alike.  For each workload of ``perfbench/workloads.py`` one op is:

* ``construct-family1024``: ``build_spec`` over the whole seed-0 family;
* the simulation workloads: one ``run_point`` call (one sweep point, as the
  benchmark times it) at the workload's worker count, with op ``i``'s
  configuration, on the spec each side builds.

Each workload runs on as many of the process's allowed cores as it has
workers (the last ones), so a 1-worker workload keeps to one core.  Each
pair times the two sides back to back, the order flipping every pair.
The report gives per workload the median of the per-pair time ratios
(head / base) and its quartiles, each side's per-op times and their
quartiles (so the base side's own spread shows beside a claimed gain), and
checks that both sides give equal
frozen masks and rate-matching patterns (every workload) and error
counters ``(frames, bit_errors, frame_errors)`` (the simulation
workloads).  Beside each op's time it reports each side's median frames
sent per op, the frames the op handed to work units
(``PointReport.frames_sent``, at least the frames committed), so a report
tells less work from faster work; the construction workload reports
none.  It also counts the minor page
faults the op took (the ``ru_minflt`` delta of ``RUSAGE_SELF``, plus that
of ``RUSAGE_CHILDREN`` for a multi-worker workload, whose pool is joined
before the op returns) and reports each side's median.  The faults per op
describe the pair, not one tree: both sides share this process's heap, so
what one side frees moves glibc's mmap and trim thresholds for the other
(a tree's faults per op can differ severalfold beside two different
partners).  For a multi-worker workload it also reports each side's
median CPU seconds of the op's workers: the delta of ``RUSAGE_CHILDREN``'s
user plus system time, the figure ``os.times()`` gives as
``children_user + children_system`` but in microseconds, not in clock
ticks of 10 ms.  After the timed
pairs it runs one more op per side, untimed, under ``tracemalloc`` and
reports each side's peak traced memory: what numpy and Python allocate in
this process, so for a multi-worker workload the pool's parent process
only.  Each side keeps one record of its per-op samples (``SAMPLES``),
and the report writes the same keys for both sides.

The head side is this checkout's ``src``.  Compare the parent commit with
it (``git archive`` output unpacked anywhere outside the repository):

    git archive <parent> src | tar -x -C /tmp/parent
    python3 bench/ab.py --base /tmp/parent/src \\
        --base-label "$(git rev-parse --short <parent>)" --head-label <head> \\
        --pairs 30 --out bench/BENCH_<n>.json

where ``<head>`` names the working tree, for example the head commit's
short sha, or that sha with "+ working tree" while the change is
uncommitted.  ``--base src`` times the checkout against itself (A/A).

Run the tree against itself for a few pairs, as a quick check that the
script works (no report unless ``--out`` is given):

    python3 bench/ab.py --smoke

Exit status 1 when the two sides' outputs differ; the differences are
listed in the report.
"""

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (the configurations only; ops run on the loaded sides)

SMOKE_PAIRS = 2
SEED = 0  # the benchmark's default seed, whose reference.json pins the masks
ALLOWED_CORES = os.sched_getaffinity(0)
SIDES = ("base", "head")
# An op's samples, in the order ``timed`` gives them.
SAMPLES = ("s", "minor_faults", "workers_cpu_s", "frames_sent")


def load_tree(src: Path, name: str):
    """Import the ``nupolar`` package under ``src`` as the module ``name``."""
    pkg = src / "nupolar"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"ab: no nupolar package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def spec_digest(spec) -> str:
    return hashlib.sha256(spec.to_json().encode()).hexdigest()[:16]


def make_op(lib, workload):
    """One op of ``workload`` on one tree: ``op(i)`` runs op ``i`` and returns
    what both trees must agree on, and the frames the op handed to work
    units (``PointReport.frames_sent``; None for the construction workload)."""
    cfg_of = lambda cfg: lib.ExperimentConfig(**dataclasses.asdict(cfg))  # noqa: E731
    if workload.cfg is None:
        family = [cfg_of(cfg) for cfg in workloads.construct_family(SEED)]
        return lambda i: ([spec_digest(lib.build_spec(cfg)) for cfg in family], None)
    spec = lib.build_spec(cfg_of(workload.cfg))
    digest = spec_digest(spec)

    def op(i):
        cfg = cfg_of(workloads.op_config(workload, SEED, i))
        p = lib.run_point(cfg, workload.ebno_db, workers=workload.workers, spec=spec)
        return (digest, p.frames, p.bit_errors, p.frame_errors), p.frames_sent
    return op


def usage(children: bool) -> np.ndarray:
    """Minor page faults of this process so far, plus those of its reaped
    children when ``children`` is set, and those children's CPU seconds
    (user plus system; 0 unless ``children`` is set)."""
    faults, cpu = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, 0.0
    if children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        faults, cpu = faults + ru.ru_minflt, ru.ru_utime + ru.ru_stime
    return np.array([faults, cpu])


def timed(op, i: int, children: bool = False):
    """Op ``i``'s output and its samples: wall time, minor page faults,
    workers' CPU seconds and frames sent."""
    u0 = usage(children)
    t0 = time.perf_counter()
    out, sent = op(i)
    t = time.perf_counter() - t0
    faults, cpu = usage(children) - u0
    return out, (t, int(faults), float(cpu), sent)


def traced_peak_mb(op, i: int) -> float:
    """Peak memory traced while op ``i`` runs, in MB."""
    tracemalloc.start()
    try:
        op(i)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def median(samples):
    """The median of a side's samples, or None when the side has none."""
    return None if samples is None or None in samples else statistics.median(samples)


def compare(workload, base, head, pairs: int) -> dict:
    cores = sorted(ALLOWED_CORES)[-workload.workers:]
    os.sched_setaffinity(0, cores)
    ops = {"base": make_op(base, workload), "head": make_op(head, workload)}
    children = workload.workers > 1
    for op in ops.values():
        timed(op, 0)  # warm-up
    sides = {side: {key: [] for key in SAMPLES} for side in SIDES}
    diffs = []
    for i in range(pairs):
        out = {}
        for side in SIDES[::-1] if i % 2 else SIDES:
            out[side], samples = timed(ops[side], i, children)
            for key, value in zip(SAMPLES, samples):
                sides[side][key].append(value)
        if out["base"] != out["head"]:
            diffs.append({"op": i, "base": out["base"], "head": out["head"]})
    if not children:
        for record in sides.values():
            record["workers_cpu_s"] = None  # the op has no workers
    peak_mb = {side: traced_peak_mb(ops[side], 0) for side in SIDES}
    med = {side: {key: median(samples) for key, samples in record.items()} for side, record in sides.items()}
    scope = "this process" if workload.workers == 1 else "the parent process only"
    faults_scope = "this process" if workload.workers == 1 else "this process and its reaped workers"
    ratios = np.array(sides["head"]["s"]) / np.array(sides["base"]["s"])
    q1, ratio, q3 = np.percentile(ratios, [25, 50, 75])
    workers_cpu = (f"  workers' CPU/op {med['base']['workers_cpu_s'] * 1e3:.1f} -> "
                   f"{med['head']['workers_cpu_s'] * 1e3:.1f} ms" if children else "")
    shown = ["none" if med[side]["frames_sent"] is None else f"{med[side]['frames_sent']:.0f}" for side in SIDES]
    base_q = np.percentile(sides["base"]["s"], [25, 50, 75])
    print(f"{workload.name:22s} base {base_q[1] * 1e3:9.2f} ms (IQR {base_q[0] * 1e3:.2f}-{base_q[2] * 1e3:.2f})  head "
          f"{med['head']['s'] * 1e3:9.2f} ms  frames sent/op {shown[0]} -> {shown[1]}"
          f"  ratio {ratio:.3f} (IQR {q1:.3f}-{q3:.3f})"
          f"  speed-up {1 / ratio:.2f}x  {'equal' if not diffs else f'{len(diffs)} DIFFER'}"
          f"  minor faults/op {med['base']['minor_faults']:.0f} -> {med['head']['minor_faults']:.0f}{workers_cpu}"
          f"  traced peak {peak_mb['base']:.2f} -> {peak_mb['head']:.2f} MB ({scope})")
    report = {
        "op": "build_spec over the seed-0 family" if workload.cfg is None else "one run_point call",
        "workers": workload.workers,
        "cores": cores,
        "pairs": pairs,
        "ratio_median": ratio,
        "ratio_iqr": [q1, q3],
        "speedup_median": 1 / ratio,
        "head_faster_pairs": int(np.sum(ratios < 1)),
        "minor_faults_scope": faults_scope,
        "peak_traced_scope": scope,
        "equal": not diffs,
        "differences": diffs,
        "ratios": ratios.tolist(),
    }
    for side, record in sides.items():
        report |= {f"{side}_median_s": med[side]["s"], f"{side}_peak_traced_mb": peak_mb[side],
                   f"{side}_quartiles_s": np.percentile(record["s"], [25, 50, 75]).tolist()}
        report |= {f"{side}_{key}_median": med[side][key] for key in SAMPLES[1:]}
        report |= {f"{side}_{key}": samples for key, samples in record.items()}
    return report


def fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    # No abbreviations: the retired ``--head`` must not pass as ``--head-label``.
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
                                     allow_abbrev=False)
    parser.add_argument("--base", type=Path, help="the base tree's src directory")
    parser.add_argument("--base-label", default="", help="what the base tree is, for the report (e.g. a commit)")
    parser.add_argument("--head-label", default="", help="what this checkout, the head tree, is, for the report")
    parser.add_argument("--pairs", type=int, default=30, help="timed pairs per workload (default 30)")
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument("--smoke", action="store_true",
                        help=f"this checkout against itself, {SMOKE_PAIRS} pairs per workload")
    args = parser.parse_args(argv)
    if args.smoke:
        args.base, args.pairs = ROOT / "src", SMOKE_PAIRS
    if args.base is None:
        parser.error("--base is required (or --smoke)")
    base, head = load_tree(args.base.resolve(), "nupolar_base"), load_tree(ROOT / "src", "nupolar_head")
    report = {
        "tool": "bench/ab.py",
        "base": {"label": args.base_label, "version": base.__version__},
        "head": {"label": args.head_label, "version": head.__version__},
        "fingerprint": fingerprint(),
        "ratio": "head time / base time per pair; below 1 means the head is faster",
        "workloads": {},
    }
    for name, workload in workloads.WORKLOADS.items():
        report["workloads"][name] = compare(workload, base, head, args.pairs)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    differ = [name for name, r in report["workloads"].items() if not r["equal"]]
    if differ:
        print(f"ab: outputs differ on {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
