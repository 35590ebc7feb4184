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

The walk is read in closed form.  With 0-based parts p_0 > ... > p_{n-1} = t,
the gaps of rows 1..j hold p_0 - p_j - j landings, and the walk goes on to
row j + 1 exactly when they are at most m.  So `_walk` finds the first
j >= 1 with p_j + j < p_0 - m, or n if there is none: the walk covers rows
1..j and s_m = j + m (its j stairs and the m landings, which are always all
taken).  The top overlap, the number of staircase cells in the top row, is
0 if j < n and t + s_m - p_0 otherwise.  Only `staircase` and
`render_ferrers` read the landings taken in each walked row (`_lands`).
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


def _walk(parts: tuple[int, ...], m: int) -> tuple[int, int]:
    """(s_m, overlap) of a nonempty tuple of parts > m, by the closed form above.

    j = 0 never stops the walk, as parts[0] < parts[0] - m fails for m >= 0.
    """
    bound = parts[0] - m
    j = 0
    for part in parts:
        if part + j < bound:
            return j + m, 0
        j += 1
    s = j + m
    return s, parts[-1] + s - parts[0]


def _lands(parts: tuple[int, ...], m: int) -> list[int]:
    """Landings taken in each walked row: whole gaps, then the rest of the m in the last row.

    Every walked row also gives its end stair, so row i+1 holds 1 + lands[i]
    staircase cells and s_m = len(lands) + m.
    """
    lands, want = [], m
    for i in range(_walk(parts, m)[0] - m - 1):
        lands.append(parts[i] - parts[i + 1] - 1)
        want -= lands[-1]
    lands.append(want)
    return lands


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
    lands = _lands(p.parts, m)
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
        length=len(lands) + m,
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
    lands = _lands(p.parts, m)
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
