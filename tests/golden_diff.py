"""Compare two rendered `trimodal verify` tables for a re-spec.

    python tests/golden_diff.py tests/data/verify_paper_seed0.txt new.txt

A change that moves printed digits on purpose (a re-spec) must keep the
table's shape: the same row IDs in the same order, every status unchanged,
and every line identical once its numbers are masked.  When that holds, the
tool prints each row whose numbers moved with its largest absolute and
relative move, and exits 0; otherwise it names the first difference and
exits 1.
"""
from __future__ import annotations

import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _rows(table: str) -> list[tuple[str, str, str]]:
    """(check id, status, line) of every row line, the summary excluded."""
    lines = [line for line in table.splitlines() if not line.startswith("summary:")]
    return [(*line.split()[:2], line) for line in lines]


def _move(old: float, new: float) -> tuple[float, float]:
    """(absolute, relative) move; relative to the old value, inf from 0."""
    gap = abs(new - old)
    if gap == 0:
        return 0.0, 0.0
    return gap, gap / abs(old) if old else math.inf


def compare(old: str, new: str) -> list[tuple[str, float, float]]:
    """(check id, largest absolute move, largest relative move) of each row
    whose numbers moved, in table order.  Raises ValueError when the IDs,
    their order, a status or the masked text of a line differ."""
    before, after = _rows(old), _rows(new)
    if [r[0] for r in before] != [r[0] for r in after]:
        raise ValueError("row IDs or their order differ")
    moves = []
    for (check_id, was, line_old), (_, now, line_new) in zip(before, after):
        if was != now:
            raise ValueError(f"{check_id}: status {was} became {now}")
        if NUMBER.sub("#", line_old) != NUMBER.sub("#", line_new):
            raise ValueError(f"{check_id}: text differs beyond its numbers")
        pairs = [_move(float(a), float(b)) for a, b in
                 zip(NUMBER.findall(line_old), NUMBER.findall(line_new))]
        if any(gap for gap, _ in pairs):
            moves.append((check_id, max(p[0] for p in pairs), max(p[1] for p in pairs)))
    return moves


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/golden_diff.py OLD_TABLE NEW_TABLE", file=sys.stderr)
        return 2
    old, new = (Path(p).read_text(encoding="utf-8") for p in argv)
    try:
        moves = compare(old, new)
    except ValueError as exc:
        print(f"not a re-spec: {exc}", file=sys.stderr)
        return 1
    for check_id, gap, rel in moves:
        print(f"{check_id}  moved by {gap:.3g} (relative {rel:.3g})")
    print(f"{len(moves)} of {len(_rows(new))} rows moved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
