import itertools

import numpy as np
import pytest

import digest_grid
from digest_grid import DIGESTS, LENGTHS, call, codes, lines, main, moved
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
    want = listed(N)
    got = lines(N)
    assert got == want, f"codes that moved at N = {N}:\n{moved(want, got)}"


def test_the_file_lists_the_grid_once_in_order():
    assert [entry.partition(": ")[0] for entry in DIGESTS.read_text().splitlines()] == [
        call(*code) for N in LENGTHS for code in codes(N)]


def test_regeneration_rewrites_the_file_and_prints_what_moved(monkeypatch, tmp_path, capsys):
    first = lambda N: itertools.islice(codes(N), 2)  # noqa: E731
    monkeypatch.setattr(digest_grid, "codes", first)
    monkeypatch.setattr(digest_grid, "LENGTHS", (64,))
    monkeypatch.setattr(digest_grid, "DIGESTS", tmp_path / "digest_grid.txt")
    want = listed(64)[:2]
    stale = want[1].replace(": spec ", ": spec 0")
    (tmp_path / "digest_grid.txt").write_text(want[0] + stale)
    assert main([]) == 0
    assert (tmp_path / "digest_grid.txt").read_text() == "".join(want)
    assert capsys.readouterr().out.splitlines(True) == [
        "--- old/digest_grid.txt\n", "+++ new/digest_grid.txt\n", "@@ -2 +2 @@\n", "-" + stale, "+" + want[1]]


def test_an_argument_rewrites_nothing(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(digest_grid, "DIGESTS", tmp_path / "digest_grid.txt")
    assert main(["--list"]) == 2
    assert list(tmp_path.iterdir()) == [] and capsys.readouterr().out == ""
