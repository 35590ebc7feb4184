import sys

import pytest

import franklin  # noqa: F401  (loads every submodule that binds `_walk`)


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
