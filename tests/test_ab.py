"""``bench/ab.py`` writes the per-workload keys of its committed reports."""

import importlib.util
import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_compare_writes_the_keys_of_the_committed_report(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # ab.py prepends src and perfbench
    spec = importlib.util.spec_from_file_location("ab", BENCH / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    # A trivial op on no tree, and no pinning: the test process keeps its cores.
    monkeypatch.setattr(ab, "make_op", lambda lib, workload: lambda i: ((i,), 256))
    monkeypatch.setattr(ab.os, "sched_setaffinity", lambda pid, cores: None)
    report = ab.compare(types.SimpleNamespace(name="stub", workers=1, cfg=None), None, None, 2)
    committed = json.loads((BENCH / "BENCH_26.json").read_text())["workloads"]
    for name, entry in committed.items():
        assert sorted(report) == sorted(entry), name
    assert report["equal"] and report["base_frames_sent"] == report["head_frames_sent"] == [256, 256]
