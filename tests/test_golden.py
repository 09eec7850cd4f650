import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import digest_grid
import golden
from golden import DIGESTS, GOLDEN, ODD_WORKERS, RUNS, comparisons, main, output


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
    monkeypatch.setattr(golden, "DIGESTS", tmp_path / "digest_grid.txt")
    monkeypatch.setattr(digest_grid, "LENGTHS", (64,))
    first = digest_grid.codes
    monkeypatch.setattr(digest_grid, "codes", lambda N: list(first(N))[:2])
    spec = (GOLDEN / "mother64.json").read_text()
    (tmp_path / "mother64.json").write_text(spec.replace('"tx_len": 64,', '"tx_len": 63,'))
    (tmp_path / "scl64-exact.csv").write_text((GOLDEN / "scl64-exact.csv").read_text())
    digests = DIGESTS.read_text().splitlines(True)[:2]
    stale = digests[1].replace(": spec ", ": spec 0")
    (tmp_path / "digest_grid.txt").write_text(digests[0] + stale)
    assert main([]) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    assert (tmp_path / "digest_grid.txt").read_text() == "".join(digests)
    row = spec.splitlines().index('  "tx_len": 64,') + 1
    assert capsys.readouterr().out.splitlines(True) == [
        "--- old/mother64.json\n", "+++ new/mother64.json\n", f"@@ -{row} +{row} @@\n",
        '-  "tx_len": 63,\n', '+  "tx_len": 64,\n',
        "--- old/digest_grid.txt\n", "+++ new/digest_grid.txt\n", "@@ -2 +2 @@\n", "-" + stale, "+" + digests[1]]


def test_an_argument_rewrites_nothing(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden")
    monkeypatch.setattr(golden, "DIGESTS", tmp_path / "digest_grid.txt")
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


# numpy runs float64 exp, log, log1p and power on AVX-512 loops where the CPU
# has them, and their last bits differ from those of its other loops.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def exp_digest() -> str:
    """A digest of ``np.exp`` on fixed inputs: it tells numpy's loops apart."""
    return hashlib.sha256(np.exp(np.linspace(-700, 700, 100_001)).tobytes()).hexdigest()[:16]


def test_masks_and_csvs_do_not_depend_on_the_simd_dispatch(capsys):
    # numpy reads the variable when it loads, so a child Python that sets it
    # first reruns the one-worker golden runs and the fast digest grid.
    tests = GOLDEN.parent
    child = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import pytest, test_golden; "
         "print(test_golden.exp_digest(), flush=True); sys.exit(pytest.main(sys.argv[2:]))",
         str(tests), "-q", "-p", "no:cacheprovider", "-m", "not slow",
         *(f"{tests}/test_golden.py::test_bytes_equal_the_golden_file[{name}]" for name in RUNS),
         f"{tests}/test_digest_grid.py::test_digests_equal_the_file"],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_AVX512}, capture_output=True, text=True, timeout=120)
    digest, _, report = child.stdout.partition("\n")
    assert child.returncode == 0, report + child.stderr
    path = "another path than here" if digest != exp_digest() else "the same path as here: this machine checks one"
    with capsys.disabled():
        print(f"\nNPY_DISABLE_CPU_FEATURES={NO_AVX512!r}: {report.splitlines()[-1]}; np.exp took {path}")
