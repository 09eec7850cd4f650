import re
from pathlib import Path

import pytest

import golden
from golden import GOLDEN, ODD_WORKERS, RUNS, ci_runs, main, output

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize("name", RUNS)
def test_bytes_equal_the_golden_file(name):
    assert output(RUNS[name]).encode() == (GOLDEN / name).read_bytes()


def test_sc_walk_equals_scl_at_list_size_one():
    # The metric-free SC walk decodes as SC with its path metric, byte for byte.
    args = RUNS["short512-scl1.csv"].replace("--decoder SCL --list-size 1", "--decoder SC")
    assert args != RUNS["short512-scl1.csv"]
    assert output(args).encode() == (GOLDEN / "short512-scl1.csv").read_bytes()


def test_regeneration_rewrites_the_files_and_prints_what_moved(monkeypatch, tmp_path, capsys):
    names = ("mother64.json", "scl64-exact.csv")
    monkeypatch.setattr(golden, "RUNS", {name: RUNS[name] for name in names})
    monkeypatch.setattr(golden, "GOLDEN", tmp_path)
    (tmp_path / "mother64.json").write_text((GOLDEN / "mother64.json").read_text().replace(
        '"tx_len": 64,', '"tx_len": 63,'))
    (tmp_path / "scl64-exact.csv").write_text((GOLDEN / "scl64-exact.csv").read_text())
    assert main([]) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    diff = capsys.readouterr().out.splitlines()
    assert [line for line in diff if line[:1] in "-+"] == [
        "--- old/mother64.json", "+++ new/mother64.json", '-  "tx_len": 63,', '+  "tx_len": 64,']


def test_list_prints_every_run(capsys):
    assert main(["--list"]) == 0
    runs = [tuple(line.split(" ", 1)) for line in capsys.readouterr().out.splitlines()]
    assert runs == list(ci_runs())
    workers = {}
    for name, args in runs:
        base, _, count = args.partition(" --workers ")
        assert base == RUNS[name]
        workers.setdefault(name, []).append(count)
    assert workers == {name: [""] if name.endswith(".json") else ["1", "2", "3"] if name in ODD_WORKERS
                       else ["1", "2"] for name in RUNS}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(RUNS)


def test_ci_reads_its_runs_from_the_list():
    # CI's golden loop takes each run from `golden.py --list` and compares
    # its output with the golden file, so no second copy of the arguments
    # can drift from RUNS.
    text = WORKFLOW.read_text()
    for line in ('python3 tests/golden.py --list > "$RUNNER_TEMP/runs.txt"',
                 "while read -r file args; do",
                 'timeout --signal=ABRT 300 nupolar $args > "$out" < /dev/null &&',
                 'cmp "$out" "tests/golden/$file" || { echo "golden run failed: $file: nupolar $args"; exit 1; }',
                 'done < "$RUNNER_TEMP/runs.txt"'):
        assert line in text, line
    # A run's arguments may begin a longer command, as mother64's begin the
    # exit-2 step's; a copy is what ends where a run's command line would.
    for args in RUNS.values():
        assert not re.search(re.escape(args) + r" *($|>|--workers)", text, re.M), args
