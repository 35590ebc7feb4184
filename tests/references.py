"""References that share no code with the kernels they check, and the sweeps that compare them.

The tests call these at small bounds and CI at larger ones
(``PYTHONPATH=src:tests python -c 'from references import ...'``), so both
run one copy of each reference and each comparison loop.
"""

from collections import Counter
from itertools import combinations_with_replacement

from hypothesis import strategies as st

from franklin.involution import FIXED, SIGMA_MOVED, TAU_MOVED, _move, enumerate_fixed_points, involute
from franklin.partitions import DistinctPartition, enumerate_distinct
from franklin.staircase import CellClass, _walk, classify_cells, render_ferrers, staircase

_SYMBOL = {
    CellClass.ROW_END_STAIR: "S",
    CellClass.COLUMN_TOP_STAIR: "S",
    CellClass.LANDING: "L",
    CellClass.INTERIOR: ".",
}


@st.composite
def partition_with_m(draw, max_part=24, max_n=7, min_n=0):
    """A partition into at least min_n distinct parts > m, m in 0..4: (p, m)."""
    m = draw(st.integers(0, 4))
    universe = list(range(m + 1, max_part + 1))
    chosen = draw(st.sets(st.sampled_from(universe), min_size=min_n, max_size=max_n))
    return DistinctPartition(tuple(sorted(chosen, reverse=True))), m


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
    never runs.
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


def distinct_by_part_count(q_order, largest=None):
    """Partitions of each j <= q_order into exactly k distinct parts, as columns [k][j].

    With `largest`, each part is at most that.  Taking 1 from each of k
    distinct parts leaves k distinct parts of j - k, or k - 1 if the
    smallest was 1, each one smaller: Q(j, k) = Q(j - k, k) + Q(j - k, k - 1)
    among parts at most L, read from the table of parts at most L - 1.
    From the empty partition alone (L = 0), L runs up to `largest`, or to
    q_order, past which no part of a counted partition lies.  Column k is
    kept while k distinct parts fit: 1 + 2 + ... + k <= q_order.
    """
    top = 0
    while (top + 1) * (top + 2) // 2 <= q_order:
        top += 1
    table = [[1] + [0] * q_order] + [[0] * (q_order + 1) for _ in range(top)]
    for _ in range(q_order if largest is None else min(largest, q_order)):
        table = [table[0]] + [
            [0] * k + [table[k][j - k] + table[k - 1][j - k] for j in range(k, q_order + 1)]
            for k in range(1, top + 1)
        ]
    return table


def fixed_point_reference(n, m):
    """(-1)^n q^{(3n^2-n)/2 + nm} (box(n, m) + q^{n+m} box(n-1, m)), boxes enumerated."""
    if n == 0:
        return [1]
    base = (3 * n * n - n) // 2 + n * m
    c = [0] * (base + n * m + n + 1)
    for rows, shift in ((n, base), (n - 1, base + n + m)):
        for mu in combinations_with_replacement(range(m + 1), rows):
            c[shift + sum(mu)] += (-1) ** n
    return c


def enumerated_fixed_points(n, m, order):
    """Signed count by size of the enumerated fixed points with n parts."""
    tally = [0] * (order + 1)
    for p, w in enumerate_fixed_points(m, order):
        if p.n == n:
            tally[w.exponent] += w.sign
    return tally


def _sweep(ms, max_size, agrees):
    """(partitions checked, (parts, m) where not agrees(p, m)), every nonempty p of size <= max_size."""
    checked, unlike = 0, []
    for m in ms:
        for size in range(1, max_size + 1):
            for p in enumerate_distinct(size, m):
                checked += 1
                if not agrees(p, m):
                    unlike.append((p.parts, m))
    return checked, unlike


def _franklin_agrees(p, m):
    r = involute(p, m)
    return (r.case.value, r.image.parts) == franklin_map(p.parts)


def franklin_sweep(max_size):
    """(partitions checked, those where involute(p, 0) is not `franklin_map`): the m = 0 sweep."""
    return _sweep([0], max_size, _franklin_agrees)


def diagram_sweep(ms, max_size):
    """(partitions checked, those where render_ferrers is not `cell_by_cell_diagram`)."""
    return _sweep(ms, max_size, lambda p, m: render_ferrers(p, m) == cell_by_cell_diagram(p, m))


def _walk_agrees(p, m):
    cells, landing_rows = boundary_walk(p, m)
    overlap = sum(1 for row, _ in cells if row == p.n)
    sc = staircase(p, m)
    walked = _walk(p.parts, m) == (len(cells), overlap)
    return walked and (sc.cells, sc.landing_rows) == (cells, landing_rows)


def walk_sweep(ms, max_size):
    """(partitions checked, those where `_walk` or `staircase` is not `boundary_walk`)."""
    return _sweep(ms, max_size, _walk_agrees)


def move_sweep(ms, max_size):
    """(partitions by `_move`'s case, those where the move is not `staircase_laid_on_top`).

    A sigma image is the staircase laid on top, a tau image is a partition
    whose staircase laid on top gives the input back, and a fixed point is
    its own image.  `staircase_laid_on_top` calls neither move nor `_walk`.
    """
    cases = Counter()

    def agrees(p, m):
        case, image, _, _ = _move(p.parts, m)
        cases[case] += 1
        if case is SIGMA_MOVED:
            return image == staircase_laid_on_top(p.parts, m)
        if case is TAU_MOVED:
            return staircase_laid_on_top(image, m) == p.parts
        return case is FIXED and image == p.parts

    return cases, _sweep(ms, max_size, agrees)[1]
