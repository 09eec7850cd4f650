import contextlib
import io
from pathlib import Path

import pytest

from golden_csv import GOLDEN, ODD_WORKERS, RUNS, ci_runs, main, simulate_csv

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize("name", RUNS)
def test_csv_bytes_equal_the_golden_file(name):
    assert simulate_csv(RUNS[name]).encode() == (GOLDEN / f"{name}.csv").read_bytes()


def test_list_prints_every_run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--list"]) == 0
    runs = [line.split(" ", 2) for line in out.getvalue().splitlines()]
    assert runs == [[name, str(workers), args] for name, workers, args in ci_runs()]
    assert {(name, workers) for name, workers, _ in runs} == \
        {(name, w) for name in RUNS for w in ("1", "2")} | {(name, "3") for name in ODD_WORKERS}
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(RUNS)


def test_ci_reads_its_runs_from_the_list():
    # CI's worker-count loop takes each run from `golden_csv.py --list` and
    # compares its CSV with the golden file, so no second copy of the
    # configurations can drift from RUNS.
    text = WORKFLOW.read_text()
    for line in ('python3 tests/golden_csv.py --list > "$RUNNER_TEMP/runs.txt"',
                 "while read -r name workers args; do",
                 'nupolar simulate $args --workers "$workers" --out-csv "$out"',
                 'cmp "$out" "tests/golden/$name.csv" || exit 1',
                 'done < "$RUNNER_TEMP/runs.txt"'):
        assert line in text, line
    for args in RUNS.values():
        assert args not in text
