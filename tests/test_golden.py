import contextlib
import io
from pathlib import Path

import pytest

from golden_csv import GOLDEN, ODD_WORKERS, RUNS, ci_runs, main, simulate_csv
from nupolar import cli

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# The ``nupolar construct`` arguments of one code per named rule, whose spec
# JSON is ``tests/golden/<name>.json``.  After a declared output change,
# regenerate a file with ``nupolar construct <arguments> --out <file>``.
CONSTRUCT = {
    "natpd512": "--N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method NAT_PD",
    "natpd512-baseline": "--N 512 --M 320 --K 160 --method GA_uniform --pattern-method NAT_PD",
    "rqup512": "--N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method RQUP",
    "rqup512-baseline": "--N 512 --M 320 --K 160 --method GA_uniform --pattern-method RQUP",
    "cw512": "--N 512 --M 320 --K 160 --method NUPGA_shortened --pattern-method CW",
    "cw512-baseline": "--N 512 --M 320 --K 160 --method GA_uniform --pattern-method CW",
    "ext64-tail": "--N 64 --M 80 --K 40 --method NUPGA_extended --repeat tail",
    "ext64-weak-info": "--N 64 --M 80 --K 40 --method NUPGA_extended --repeat weak_info --design-snr-db 1 "
                       "--g-mode product",
    "mother64": "--N 64 --K 32",
    "bec64": "--N 64 --K 32 --method BEC_oracle --design-snr-db 2",
}


@pytest.mark.parametrize("name", RUNS)
def test_csv_bytes_equal_the_golden_file(name):
    assert simulate_csv(RUNS[name]).encode() == (GOLDEN / f"{name}.csv").read_bytes()


def test_sc_walk_equals_scl_at_list_size_one():
    # The metric-free SC walk decodes as SC with its path metric, byte for byte.
    args = RUNS["short512-scl1"].replace("--decoder SCL --list-size 1", "--decoder SC")
    assert args != RUNS["short512-scl1"]
    assert simulate_csv(args).encode() == (GOLDEN / "short512-scl1.csv").read_bytes()


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


@pytest.mark.parametrize("name", CONSTRUCT)
def test_construct_bytes_equal_the_golden_file(name, tmp_path):
    out = tmp_path / "spec.json"
    assert cli.main(["construct", *CONSTRUCT[name].split(), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_every_golden_spec_has_its_arguments():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CONSTRUCT)


def test_ci_compares_the_construct_outputs():
    text = WORKFLOW.read_text()
    for name in ("natpd512", "bec64"):
        line = f'nupolar construct {CONSTRUCT[name]} --out "$RUNNER_TEMP/{name}.json"'
        assert line in text, line
        assert f'cmp "$RUNNER_TEMP/{name}.json" tests/golden/{name}.json' in text
