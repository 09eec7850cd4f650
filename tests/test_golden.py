import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import golden
from golden import DIGESTS, GOLDEN, LENGTHS, ODD_WORKERS, RUNS, call, codes, comparisons, lines, main, moved, output
from nupolar import construction


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


def listed(N):
    """The digest file's lines for mother length ``N``."""
    return [entry for entry in DIGESTS.read_text().splitlines(True) if entry.partition("(")[2].startswith(f"{N},")]


@pytest.fixture
def evolve_once(monkeypatch):
    """Evolve each distinct stage-0 vector once.  The grid's codes share
    many (every GA_uniform code of one design point and g-mode evolves the
    same uniform vector, whatever its K and pattern), and the evolution is a
    function of the vector and the g-mode alone; each caller gets a copy."""
    evolve, done = construction.evolve_reliabilities, {}

    def once(stage0, g_mode="sum"):
        v = np.asarray(stage0, dtype=np.float64)
        key = v.tobytes(), g_mode
        if key not in done:
            done[key] = evolve(v, g_mode)
        return done[key].copy()

    monkeypatch.setattr(construction, "evolve_reliabilities", once)


@pytest.mark.parametrize("N", LENGTHS)
def test_digests_equal_the_file(N, evolve_once):
    want, got = "".join(listed(N)), "".join(lines(N))
    assert got == want, f"codes that moved at N = {N}:\n{moved(want, got, DIGESTS.name)}"


def test_the_file_lists_the_grid_once_in_order():
    assert [entry.partition(": ")[0] for entry in DIGESTS.read_text().splitlines()] == [
        call(*code) for N in LENGTHS for code in codes(N)]


@pytest.mark.parametrize("names", [("mother64.json", "scl64-exact.csv"), ()], ids=["files-and-listing", "listing"])
def test_regeneration_rewrites_the_files_and_prints_what_moved(names, monkeypatch, tmp_path, capsys):
    # mother64.json (the CSV has no tx_len: it stays current) and one code of
    # the listing are stale, and the listing lacks its last code; without
    # runs, the listing alone is pinned.
    monkeypatch.setattr(golden, "RUNS", {name: RUNS[name] for name in names})
    monkeypatch.setattr(golden, "GOLDEN", tmp_path)
    monkeypatch.setattr(golden, "DIGESTS", tmp_path / "digest_grid.txt")
    monkeypatch.setattr(golden, "LENGTHS", (64,))
    monkeypatch.setattr(golden, "codes", lambda N: itertools.islice(codes(N), 3))
    spec = (GOLDEN / "mother64.json").read_text()
    for name in names:
        (tmp_path / name).write_text((GOLDEN / name).read_text().replace('"tx_len": 64,', '"tx_len": 63,'))
    want = listed(64)[:3]
    stale = want[0].replace(": spec ", ": spec 0")
    (tmp_path / "digest_grid.txt").write_text(stale + want[1])
    assert main([]) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    assert (tmp_path / "digest_grid.txt").read_text() == "".join(want)
    row = spec.splitlines().index('  "tx_len": 64,') + 1
    spec_diff = ["--- old/mother64.json\n", "+++ new/mother64.json\n", f"@@ -{row} +{row} @@\n",
                 '-  "tx_len": 63,\n', '+  "tx_len": 64,\n'] if names else []
    assert capsys.readouterr().out.splitlines(True) == spec_diff + [
        "--- old/digest_grid.txt\n", "+++ new/digest_grid.txt\n", "@@ -1 +1 @@\n", "-" + stale, "+" + want[0],
        "@@ -2,0 +3 @@\n", "+" + want[2]]


@pytest.mark.parametrize("listing", [None, "stale\n"], ids=["nothing-pinned", "stale-listing"])
def test_an_argument_rewrites_nothing(listing, monkeypatch, tmp_path, capsys):
    # The argument is refused before anything is built, so a stale listing keeps its bytes.
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden")
    monkeypatch.setattr(golden, "DIGESTS", tmp_path / "digest_grid.txt")
    if listing:
        (tmp_path / "digest_grid.txt").write_text(listing)
    assert main(["--list"]) == 2
    assert {path.name: path.read_text() for path in tmp_path.iterdir()} == (
        {"digest_grid.txt": listing} if listing else {})
    out, err = capsys.readouterr()
    assert out == "" and "--list" in err


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
    # first reruns the one-worker golden runs and the digest grid at every N.
    tests = GOLDEN.parent
    child = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import pytest, test_golden; "
         "print(test_golden.exp_digest(), flush=True); sys.exit(pytest.main(sys.argv[2:]))",
         str(tests), "-q", "-p", "no:cacheprovider",
         *(f"{tests}/test_golden.py::test_bytes_equal_the_golden_file[{name}]" for name in RUNS),
         f"{tests}/test_golden.py::test_digests_equal_the_file"],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_AVX512}, capture_output=True, text=True, timeout=120)
    digest, _, report = child.stdout.partition("\n")
    assert child.returncode == 0, report + child.stderr
    path = "another path than here" if digest != exp_digest() else "the same path as here: this machine checks one"
    with capsys.disabled():
        print(f"\nNPY_DISABLE_CPU_FEATURES={NO_AVX512!r}: {report.splitlines()[-1]}; np.exp took {path}")
