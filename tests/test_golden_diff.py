"""The re-spec tool: tables that differ only in printed digits pass and list
their moved rows; any other difference is refused."""

from pathlib import Path

import pytest

from golden_diff import compare, main

GOLDEN_PATH = Path(__file__).parent / "data" / "verify_paper_seed0.txt"
GOLDEN = GOLDEN_PATH.read_text(encoding="utf-8")


def _edit(old: str, new: str) -> str:
    assert GOLDEN.count(old) == 1, old
    return GOLDEN.replace(old, new)


def test_identical_tables_move_nothing():
    assert compare(GOLDEN, GOLDEN) == []


def test_moved_digits_are_listed_with_their_moves():
    table = _edit("measured 2.0728881450103828e-14", "measured 1e-14")
    [(check_id, gap, rel)] = compare(GOLDEN, table)
    assert check_id == "c4.concentrated_family"
    # approx's default absolute tolerance (1e-12) would pass any gap this small
    assert gap == pytest.approx(2.0728881450103828e-14 - 1e-14, rel=1e-12, abs=0.0)
    assert rel == pytest.approx(gap / 2.0728881450103828e-14, rel=1e-12, abs=0.0)


def test_a_move_from_zero_is_infinitely_relative():
    table = _edit("measured 0  expected 0 (tol 1e-9)  -- all-excited",
                  "measured 2e-16  expected 0 (tol 1e-9)  -- all-excited")
    [(check_id, gap, rel)] = compare(GOLDEN, table)
    assert (check_id, gap, rel) == ("c4.sym_stationary", 2e-16, float("inf"))


@pytest.mark.parametrize("table, reason", [
    (_edit("c4.sym_pair_doublet                   known-divergence",
           "c4.sym_pair_doublet                   pass            "), "status"),
    (_edit("-- two-pair spread minima", "-- two-pair minima"), "text"),
    (GOLDEN.replace("c9.norm ", "c9.nrm  "), "IDs"),
    ("".join(GOLDEN.splitlines(keepends=True)[1:]), "IDs"),
    ("".join(reversed(GOLDEN.splitlines(keepends=True)[:2]))
     + "".join(GOLDEN.splitlines(keepends=True)[2:]), "IDs"),
], ids=["status", "text", "renamed-id", "dropped-row", "swapped-rows"])
def test_anything_beyond_digits_is_refused(table, reason):
    with pytest.raises(ValueError, match=reason):
        compare(GOLDEN, table)


def test_command_line(tmp_path, capsys):
    moved = tmp_path / "moved.txt"
    moved.write_text(_edit("measured 2.0728881450103828e-14", "measured 1e-14"),
                     encoding="utf-8")
    assert main([str(GOLDEN_PATH), str(moved)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "c4.concentrated_family  moved by 1.07e-14 (relative 0.518)"
    assert out.splitlines()[-1] == "1 of 69 rows moved"
    broken = tmp_path / "broken.txt"
    broken.write_text(GOLDEN.replace("known-divergence", "FAIL            "),
                      encoding="utf-8")
    assert main([str(GOLDEN_PATH), str(broken)]) == 1
    assert "status" in capsys.readouterr().err
