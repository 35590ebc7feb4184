import sys

import pytest

import franklin  # noqa: F401  (loads every submodule that binds `_walk`)
from franklin.partitions import DistinctPartition
from franklin.staircase import CellClass, classify_cells

_SYMBOL = {
    CellClass.ROW_END_STAIR: "S",
    CellClass.COLUMN_TOP_STAIR: "S",
    CellClass.LANDING: "L",
    CellClass.INTERIOR: ".",
}


def boundary_walk(p, m):
    """The m-landing staircase walked one boundary cell at a time: (cells, landing rows).

    Follows the definition in `franklin.staircase`'s docstring over the grid
    of `classify_cells`, and reads none of the walk's closed forms.  It starts
    at the stair (1, part_1).  From each cell it steps left if the cell to the
    left has no cell above it, and otherwise up onto the next row's end stair.
    It takes every row-end stair and each landing while fewer than m are
    taken.  It ends before a landing met with m taken, at a column-top stair,
    or at the left edge of the top row.
    """
    grid = classify_cells(p, m)
    cells, landing_rows = [], []
    row, col = 1, p.parts[0]
    while True:
        cls = grid[row - 1][col - 1]
        if cls is CellClass.COLUMN_TOP_STAIR or (cls is CellClass.LANDING and len(landing_rows) == m):
            break
        cells.append((row, col))
        if cls is CellClass.LANDING:
            landing_rows.append(row)
        if row < p.n and len(grid[row]) >= col - 1:  # a cell above the one to the left
            row += 1
        elif col == 1:
            break
        col -= 1
    return tuple(cells), tuple(landing_rows)


def franklin_map(parts):
    """Franklin's involution on distinct parts, largest first: (case, image).

    Written from its definition (F. Franklin, C. R. 92 (1881); G. E.
    Andrews, *The Theory of Partitions* (1976), §1.3), with no franklin
    kernel.  The slope is the run of consecutive parts from the largest,
    of length s, and t is the smallest part.  If t <= s, the smallest part
    goes onto the slope, one cell on each of the t largest parts
    ("TauMoved"); otherwise the slope comes off, one cell from each of its
    parts, and becomes a new smallest part s ("SigmaMoved").  The two
    exceptions are fixed ("Fixed"): the slope is every part and t is n or
    n + 1, n the number of parts, the partitions of the pentagonal numbers
    n(3n - 1)/2 and n(3n + 1)/2.
    """
    n, t = len(parts), parts[-1]
    s = 1
    while s < n and parts[s] == parts[0] - s:
        s += 1
    if s == n and t in (n, n + 1):
        return "Fixed", parts
    if t <= s:
        return "TauMoved", tuple(part + 1 for part in parts[:t]) + parts[t:-1]
    return "SigmaMoved", tuple(part - 1 for part in parts[:s]) + parts[s:] + (s,)


def staircase_laid_on_top(parts, m):
    """Sigma read off the diagram: each cell of `boundary_walk`'s staircase leaves
    its row, then all of them form a new top row.  A reference for both moves."""
    cells, _ = boundary_walk(DistinctPartition(parts), m)
    rows = list(parts)
    for row, _ in cells:
        rows[row - 1] -= 1
    return (*rows, len(cells))


def box_form_fixed(parts, m):
    """The fixed-point test as boxes over base_partition(n, m), parts n + m .. 2n - 1 + m.

    The parts are base + mu with mu_1 <= m, or mu_1 = m + 1 and mu_n >= 1
    (`franklin.involution`'s docstring).  A reference for the interval form
    that `_fixed_criterion` reads.
    """
    n = len(parts)
    if n == 0:
        return True
    if parts[-1] < n + m:  # mu_n would be negative
        return False
    mu1 = parts[0] - (2 * n - 1) - m
    return mu1 <= m or (mu1 == m + 1 and parts[-1] > n + m)


def cell_by_cell_diagram(p, m):
    """render_ferrers' diagram built one cell at a time, top row first.

    Symbols come from `classify_cells` and brackets from `boundary_walk`, so it
    checks the run-length kernel's drawing against code that the kernel
    never runs.  CI imports it for a wider sweep than the tests make.
    """
    marked = set(boundary_walk(p, m)[0])
    grid = classify_cells(p, m)
    return "\n".join(
        "".join(
            f"[{_SYMBOL[cls]}]" if (i + 1, j + 1) in marked else f" {_SYMBOL[cls]} "
            for j, cls in enumerate(grid[i])
        )
        for i in range(p.n - 1, -1, -1)
    )


@pytest.fixture
def reference_diagram():
    """render_ferrers' diagram as a function of (p, m), built cell by cell."""
    return cell_by_cell_diagram


@pytest.fixture
def box_form():
    """The fixed-point test as a function of (parts, m), read from the box form."""
    return box_form_fixed


@pytest.fixture
def reference_walk():
    """The staircase as a function of (p, m), walked cell by cell: (cells, landing rows)."""
    return boundary_walk


@pytest.fixture
def franklins_map():
    """Franklin's involution as a function of parts, written from its definition."""
    return franklin_map


@pytest.fixture
def laid_on_top():
    """Sigma as a function of (parts, m), read off the cell-by-cell staircase."""
    return staircase_laid_on_top


@pytest.fixture
def walk_calls(monkeypatch):
    """Parts of every staircase walk made while the test runs, in call order.

    `_walk` is patched in each franklin module that binds it.  The module is
    reached through sys.modules, because `import franklin.staircase` yields
    the function that the package re-exports under that name.
    """
    real = sys.modules["franklin.staircase"]._walk
    calls = []

    def counting(parts, m):
        calls.append(parts)
        return real(parts, m)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "franklin" and vars(module).get("_walk") is real:
            monkeypatch.setattr(module, "_walk", counting)
    return calls
