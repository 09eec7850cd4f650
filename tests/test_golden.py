import re
from pathlib import Path

import pytest

from golden_csv import GOLDEN, RUNS, simulate_csv

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize("name", RUNS)
def test_csv_bytes_equal_the_golden_file(name):
    assert simulate_csv(RUNS[name]).encode() == (GOLDEN / f"{name}.csv").read_bytes()


def test_golden_runs_are_the_ci_worker_count_runs():
    # The quoted entries of the workflow's `runs=( ... )` array.
    block = re.search(r"runs=\((.*?)\n\s*\)", WORKFLOW.read_text(), re.S).group(1)
    assert re.findall(r'^\s*"(.+)"$', block, re.M) == list(RUNS.values())
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(RUNS)
