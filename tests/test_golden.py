import pytest

import golden
from golden import GOLDEN, ODD_WORKERS, RUNS, comparisons, main, output


def _case(name, args):
    # A run at one worker, the file's own run, keeps the file's name as its id.
    workers = args.partition(" --workers ")[2]
    return pytest.param(name, args, id=name if workers in ("", "1") else f"{name}-{workers}workers")


@pytest.mark.parametrize("name, args", [_case(*run) for run in comparisons()])
def test_bytes_equal_the_golden_file(name, args):
    assert output(args).encode() == (GOLDEN / name).read_bytes(), f"nupolar {args}"


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


def test_an_argument_rewrites_nothing(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(golden, "GOLDEN", tmp_path)
    assert main(["--list"]) == 2
    assert list(tmp_path.iterdir()) == [] and capsys.readouterr().out == ""


def test_every_run_is_compared_and_every_file_has_a_run():
    workers = {}
    for name, args in comparisons():
        base, _, count = args.partition(" --workers ")
        assert base == RUNS[name]
        workers.setdefault(name, []).append(count)
    assert workers == {name: [""] if name.endswith(".json") else ["1", "2", "3"] if name in ODD_WORKERS
                       else ["1", "2"] for name in RUNS}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(RUNS)
