import itertools

import numpy as np
import pytest

import digest_grid
import golden
from digest_grid import LENGTHS, call, codes, lines
from golden import DIGESTS, main, moved
from nupolar import construction


def listed(N):
    """The file's lines for mother length ``N``."""
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


# N <= 1024 builds in the fast subset; N = 4096 takes about as long as the rest.
@pytest.mark.parametrize("N", [pytest.param(N, marks=pytest.mark.slow) if N > 1024 else N for N in LENGTHS])
def test_digests_equal_the_file(N, evolve_once):
    want, got = "".join(listed(N)), "".join(lines(N))
    assert got == want, f"codes that moved at N = {N}:\n{moved(want, got, DIGESTS.name)}"


def test_the_file_lists_the_grid_once_in_order():
    assert [entry.partition(": ")[0] for entry in DIGESTS.read_text().splitlines()] == [
        call(*code) for N in LENGTHS for code in codes(N)]


def test_regeneration_rewrites_the_file_and_prints_what_moved(monkeypatch, tmp_path, capsys):
    # The listing alone is pinned here, with one code stale and the last missing.
    monkeypatch.setattr(golden, "RUNS", {})
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden")
    monkeypatch.setattr(golden, "DIGESTS", tmp_path / "digest_grid.txt")
    monkeypatch.setattr(digest_grid, "LENGTHS", (64,))
    monkeypatch.setattr(digest_grid, "codes", lambda N: itertools.islice(codes(N), 3))
    want = listed(64)[:3]
    stale = want[0][:-2] + ("1" if want[0][-2] == "0" else "0") + "\n"
    (tmp_path / "digest_grid.txt").write_text(stale + want[1])
    assert main([]) == 0
    assert (tmp_path / "digest_grid.txt").read_text() == "".join(want)
    assert capsys.readouterr().out.splitlines(True) == [
        "--- old/digest_grid.txt\n", "+++ new/digest_grid.txt\n", "@@ -1 +1 @@\n", "-" + stale, "+" + want[0],
        "@@ -2,0 +3 @@\n", "+" + want[2]]


def test_an_argument_rewrites_nothing(monkeypatch, tmp_path, capsys):
    # A stale listing stays as it was: the argument is refused before anything is built.
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden")
    monkeypatch.setattr(golden, "DIGESTS", tmp_path / "digest_grid.txt")
    (tmp_path / "digest_grid.txt").write_text("stale\n")
    assert main(["--list"]) == 2
    assert [path.name for path in tmp_path.iterdir()] == ["digest_grid.txt"]
    assert (tmp_path / "digest_grid.txt").read_text() == "stale\n"
    out, err = capsys.readouterr()
    assert out == "" and "--list" in err
