"""Stairs, landings, and m-landing staircases on Ferrers diagrams.

Cells are addressed (row, col), 1-based, with row 1 the longest row.  For a
partition with n distinct parts > m:

  * the cell at the end of each row is a stair, and so is the top cell of
    each of the (top_part - m - 1) leftmost columns;
  * of the remaining cells, every cell with no cell above it is a landing
    (rows 1..n-1 contribute the gap cells between consecutive parts; row n
    contributes exactly m landings next to its end stair);
  * the m-landing staircase is the contiguous run of boundary cells that
    starts at the stair (1, part_1), always includes a stair it reaches,
    takes landings only while fewer than m have been taken, and ends just
    before the first landing met with the quota already full.

Column-top stairs are never part of the staircase: the walk ends when it
reaches them, which is what keeps the staircase length within m + n.

One walk, `_walk`, gives all that the involution's moves read: the
landings taken in each walked row, the length s_m (stairs taken plus the m
landings, which are always all taken), and the top overlap, the number of
staircase cells in the top row.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .partitions import DistinctPartition
from .qseries import _nonnegative


class PartTooSmall(ValueError):
    """Some part is <= m, so stairs and landings are undefined."""


class EmptyPartition(ValueError):
    """The empty partition has no cells to classify."""


class CellClass(enum.Enum):
    ROW_END_STAIR = "RowEndStair"
    COLUMN_TOP_STAIR = "ColumnTopStair"
    LANDING = "Landing"
    INTERIOR = "Interior"


class Cell(NamedTuple):
    row: int
    col: int


class Staircase(NamedTuple):
    """The m-landing staircase: cells in boundary-walk order.

    `cells` starts at (1, part_1) and steps left/up along the profile;
    `landing_rows` lists the row of each landing cell (a multiset, in walk
    order); `stair_count` counts the row-end stairs taken; `length` is the
    total number of cells, the s_m statistic.
    """

    cells: tuple[Cell, ...]
    landing_rows: tuple[int, ...]
    stair_count: int
    length: int


def _require_valid(p: DistinctPartition, m: int) -> None:
    _nonnegative(m=m)
    if p.n == 0:
        raise EmptyPartition("staircase is undefined for the empty partition")
    if p.parts[-1] <= m:
        raise PartTooSmall(f"all parts must exceed m={m}, got {p.parts}")


def _walk(parts: tuple[int, ...], m: int) -> tuple[list[int], int, int]:
    """Boundary walk over a nonempty tuple of parts > m.

    Returns (lands, s_m, overlap).  lands[i] counts the landings taken in
    row i+1, for each walked row; every walked row also gives its end
    stair, so row i+1 holds 1 + lands[i] staircase cells.  All m landings
    are always taken, so s_m = len(lands) + m.  overlap counts the cells
    in the top row n: 0 unless the walk reaches it.
    """
    lands: list[int] = []
    want = m
    rows = iter(parts)
    below = next(rows)
    for above in rows:
        avail = below - above - 1
        if want < avail:
            lands.append(want)
            return lands, len(lands) + m, 0
        lands.append(avail)
        want -= avail
        below = above
    lands.append(want)
    return lands, len(parts) + m, 1 + want


def classify_cells(p: DistinctPartition, m: int) -> list[list[CellClass]]:
    """Classification of every diagram cell; result[i][j] is cell (i+1, j+1)."""
    _require_valid(p, m)
    parts = p.parts
    n = len(parts)
    grid = []
    for i in range(n):
        row = [CellClass.INTERIOR] * parts[i]
        row[parts[i] - 1] = CellClass.ROW_END_STAIR
        if i + 1 < n:
            for j in range(parts[i + 1] + 1, parts[i]):
                row[j - 1] = CellClass.LANDING
        else:
            top = parts[i]  # top > m, so the landing run below has m cells
            for j in range(1, top - m):
                row[j - 1] = CellClass.COLUMN_TOP_STAIR
            for j in range(top - m, top):
                row[j - 1] = CellClass.LANDING
        grid.append(row)
    return grid


def staircase(p: DistinctPartition, m: int) -> Staircase:
    """The m-landing staircase of p; requires all parts > m."""
    _require_valid(p, m)
    lands, length, _ = _walk(p.parts, m)
    cells: list[Cell] = []
    landing_rows: list[int] = []
    for i, taken in enumerate(lands):
        row = i + 1
        end = p.parts[i]
        cells.append(Cell(row, end))
        for step in range(1, taken + 1):
            cells.append(Cell(row, end - step))
        landing_rows.extend([row] * taken)
    return Staircase(
        cells=tuple(cells),
        landing_rows=tuple(landing_rows),
        stair_count=len(lands),
        length=length,
    )


def render_ferrers(p: DistinctPartition, m: int) -> str:
    """Text diagram, top row first: S = stair, L = landing, . = interior.

    Every cell is three characters wide and staircase cells are bracketed,
    e.g. ``[S]`` next to `` L ``, keeping columns aligned across rows.

    Each row is drawn from its run lengths, not cell by cell.  A row below
    the top is the interior cells under the next part, the gap's landings
    and its end stair; the top row is its top - m - 1 column-top stairs, its
    m landings and its end stair.  A walked row brackets its last
    1 + lands[i] cells: the landings taken next to its end stair, and the stair.
    """
    _require_valid(p, m)
    lands = _walk(p.parts, m)[0]
    parts = p.parts
    n = len(parts)
    lines = []
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            head, gap = " . " * parts[i + 1], parts[i] - parts[i + 1] - 1
        else:
            head, gap = " S " * (parts[i] - m - 1), m
        if i < len(lands):
            taken = lands[i]
            lines.append(head + " L " * (gap - taken) + "[L]" * taken + "[S]")
        else:
            lines.append(head + " L " * gap + " S ")
    return "\n".join(lines)
