import importlib.util
from pathlib import Path

import pytest

from faults import bindings

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing():
    """The benchmark's tracer module, `bench/tracing.py`, freshly loaded."""
    spec = importlib.util.spec_from_file_location("franklin_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def walk_calls(monkeypatch):
    """Parts of every staircase walk made while the test runs, in call order.

    `_walk` is patched in each franklin module that binds it.
    """
    modules = bindings("_walk")
    real = modules[0]._walk
    calls = []

    def counting(parts, m):
        calls.append(parts)
        return real(parts, m)

    for module in modules:
        monkeypatch.setattr(module, "_walk", counting)
    return calls
