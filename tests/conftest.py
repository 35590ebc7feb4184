import sys

import pytest

import franklin  # noqa: F401  (loads every submodule that binds `_walk`)
from franklin.staircase import CellClass, classify_cells, staircase

_SYMBOL = {
    CellClass.ROW_END_STAIR: "S",
    CellClass.COLUMN_TOP_STAIR: "S",
    CellClass.LANDING: "L",
    CellClass.INTERIOR: ".",
}


def cell_by_cell_diagram(p, m):
    """render_ferrers' diagram built one cell at a time, top row first.

    Symbols come from `classify_cells` and brackets from `staircase(p, m).cells`,
    so it checks the run-length kernel's drawing against code that the kernel
    never runs.  CI imports it for a wider sweep than the tests make.
    """
    marked = set(staircase(p, m).cells)
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
