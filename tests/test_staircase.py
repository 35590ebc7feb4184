import pytest
from hypothesis import given, settings

from franklin.partitions import DistinctPartition, base_partition, enumerate_distinct
from franklin.staircase import (
    Cell,
    CellClass,
    EmptyPartition,
    PartTooSmall,
    classify_cells,
    render_ferrers,
    _walk,
    staircase,
)

from references import boundary_walk, diagram_sweep, partition_with_m, walk_sweep


def cells_of_class(grid, wanted):
    return {
        (i + 1, j + 1)
        for i, row in enumerate(grid)
        for j, cls in enumerate(row)
        if cls is wanted
    }


class TestClassify:
    def test_m3_worked_example(self):
        grid = classify_cells(DistinctPartition((14, 11, 9, 8, 6)), 3)
        row_end = {(i + 1, p) for i, p in enumerate((14, 11, 9, 8, 6))}
        assert cells_of_class(grid, CellClass.ROW_END_STAIR) == row_end
        assert cells_of_class(grid, CellClass.COLUMN_TOP_STAIR) == {(5, 1), (5, 2)}
        assert cells_of_class(grid, CellClass.LANDING) == {
            (1, 13), (1, 12), (2, 10), (4, 7), (5, 5), (5, 4), (5, 3),
        }

    def test_consecutive_staircase_shape(self):
        grid = classify_cells(DistinctPartition((3, 2, 1)), 0)
        assert cells_of_class(grid, CellClass.LANDING) == set()
        assert cells_of_class(grid, CellClass.ROW_END_STAIR) == {(1, 3), (2, 2), (3, 1)}
        # top part 1, so 1 - 0 - 1 = 0 column-top stairs
        assert cells_of_class(grid, CellClass.COLUMN_TOP_STAIR) == set()

    def test_single_row(self):
        grid = classify_cells(DistinctPartition((5,)), 1)
        assert grid[0] == [
            CellClass.COLUMN_TOP_STAIR,
            CellClass.COLUMN_TOP_STAIR,
            CellClass.COLUMN_TOP_STAIR,
            CellClass.LANDING,
            CellClass.ROW_END_STAIR,
        ]

    def test_part_too_small(self):
        with pytest.raises(PartTooSmall):
            classify_cells(DistinctPartition((5, 3)), 3)

    def test_empty_partition(self):
        with pytest.raises(EmptyPartition):
            classify_cells(DistinctPartition(), 0)

    @given(partition_with_m(min_n=1))
    @settings(max_examples=80, deadline=None)
    def test_top_row_has_exactly_m_landings(self, pm):
        p, m = pm
        grid = classify_cells(p, m)
        top = grid[p.n - 1]
        assert sum(1 for cls in top if cls is CellClass.LANDING) == m


class TestStaircase:
    def test_m3_worked_example(self):
        sc = staircase(DistinctPartition((14, 11, 9, 8, 6)), 3)
        assert sc.cells == (
            Cell(1, 14), Cell(1, 13), Cell(1, 12),
            Cell(2, 11), Cell(2, 10), Cell(3, 9), Cell(4, 8),
        )
        assert sc.length == 7
        assert sc.stair_count == 4
        assert sc.landing_rows == (1, 1, 2)

    def test_case12_staircase(self):
        sc = staircase(DistinctPartition((11, 10, 8, 5)), 1)
        assert sc.cells == (Cell(1, 11), Cell(2, 10), Cell(2, 9), Cell(3, 8))
        assert sc.length == 4

    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, 2), (5, 3), (4, 0)])
    def test_base_partition_reaches_corner(self, n, m):
        p = base_partition(n, m)
        sc = staircase(p, m)
        assert sc.length == m + n
        assert sc.stair_count == n
        # stairs down the whole profile, then the m top-row landings
        expected = [Cell(i + 1, p.parts[i]) for i in range(n - 1)]
        expected += [Cell(n, p.parts[-1] - j) for j in range(m + 1)]
        assert sc.cells == tuple(expected)

    def test_exactly_m_landings(self):
        for total in range(1, 36):
            for m in range(4):
                for p in enumerate_distinct(total, m):
                    sc = staircase(p, m)
                    assert len(sc.landing_rows) == m
                    assert sc.length == sc.stair_count + m

    def test_lemma_bounds_small_sizes(self):
        # acceptance widens this to size 60; keep the unit sweep quick
        for total in range(1, 36):
            for m in range(5):
                for p in enumerate_distinct(total, m):
                    sc = staircase(p, m)
                    assert m + 1 <= sc.length <= m + p.n

    @given(partition_with_m(min_n=1))
    @settings(max_examples=100, deadline=None)
    def test_boundary_contiguity(self, pm):
        p, m = pm
        cells = staircase(p, m).cells
        for a, b in zip(cells, cells[1:]):
            left = (b.row, b.col) == (a.row, a.col - 1)
            # moving up the profile lands on the next row's end cell,
            # one row up and one column left
            up = (b.row, b.col) == (a.row + 1, a.col - 1)
            assert left or up

    @given(partition_with_m(min_n=1))
    @settings(max_examples=100, deadline=None)
    def test_maximal_iff_top_stair_taken(self, pm):
        p, m = pm
        sc = staircase(p, m)
        includes_top_stair = Cell(p.n, p.parts[-1]) in sc.cells
        assert (sc.length == m + p.n) == includes_top_stair


class TestAgainstTheCellWalk:
    """The closed forms against `boundary_walk`, which walks the definition cell by cell."""

    @pytest.mark.parametrize("m", range(7))
    def test_every_partition_up_to_size_40(self, m):
        assert walk_sweep([m], 40)[1] == []

    def test_worked_example(self):
        cells, landing_rows = boundary_walk(DistinctPartition((14, 11, 9, 8, 6)), 3)
        assert cells == ((1, 14), (1, 13), (1, 12), (2, 11), (2, 10), (3, 9), (4, 8))
        assert landing_rows == (1, 1, 2)


class TestTopOverlap:
    def test_examples(self):
        assert _walk((9, 7, 6, 5), 1)[1] == 1
        assert _walk((11, 10, 8, 5), 1)[1] == 0

    @pytest.mark.parametrize("n,m", [(1, 0), (2, 2), (4, 1), (5, 3)])
    def test_base_partition(self, n, m):
        assert _walk(base_partition(n, m).parts, m)[1] == m + 1

    @given(partition_with_m(min_n=1))
    @settings(max_examples=80, deadline=None)
    def test_counts_top_row_cells(self, pm):
        p, m = pm
        sc = staircase(p, m)
        assert _walk(p.parts, m)[1] == sum(1 for c in sc.cells if c.row == p.n)


class TestRender:
    def test_single_row(self):
        assert render_ferrers(DistinctPartition((5,)), 1) == " S  S  S [L][S]"

    def test_m3_worked_grid(self):
        got = render_ferrers(DistinctPartition((14, 11, 9, 8, 6)), 3)
        assert got == "\n".join(
            [
                " S  S  L  L  L  S ",
                " .  .  .  .  .  .  L [S]",
                " .  .  .  .  .  .  .  . [S]",
                " .  .  .  .  .  .  .  .  . [L][S]",
                " .  .  .  .  .  .  .  .  .  .  . [L][L][S]",
            ]
        )

    def test_marked_staircase(self):
        got = render_ferrers(DistinctPartition((11, 10, 8, 5)), 1)
        assert got == "\n".join(
            [
                " S  S  S  L  S ",
                " .  .  .  .  .  L  L [S]",
                " .  .  .  .  .  .  .  . [L][S]",
                " .  .  .  .  .  .  .  .  .  . [S]",
            ]
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartition):
            render_ferrers(DistinctPartition(), 2)

    @given(partition_with_m(max_part=16, max_n=5, min_n=1))
    @settings(max_examples=60, deadline=None)
    def test_shape_and_alphabet(self, pm):
        p, m = pm
        lines = render_ferrers(p, m).split("\n")
        assert [len(line) for line in lines] == [3 * part for part in reversed(p.parts)]
        cells = [line[j : j + 3] for line in lines for j in range(0, len(line), 3)]
        assert {cell[1] for cell in cells} <= set("SL.")
        assert {cell[0] + cell[2] for cell in cells} <= {"[]", "  "}
        assert sum(cell[0] == "[" for cell in cells) == staircase(p, m).length

    def test_every_small_partition_matches_the_cell_classification(self):
        # the kernel draws rows by run length; the reference classifies each cell
        checked, unlike = diagram_sweep(range(7), 30)
        assert unlike == []
        assert checked == 4_687  # the knapsack counts of sizes 1..30, summed over m
