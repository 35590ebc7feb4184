import importlib

import pytest

import franklin

REMOVED = {
    "franklin.qseries": ["fixed_point_polynomial"],
    "franklin.partitions": ["mu_decompose", "NotInStaircaseForm"],
    "franklin.involution": ["is_fixed_criterion", "combine_audit_reports"],
    "franklin.staircase": ["top_overlap"],
}


def test_all_names_resolve_once():
    names = franklin.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(franklin, name)


@pytest.mark.parametrize(
    "module,name", [(module, name) for module, names in REMOVED.items() for name in names]
)
def test_removed_name_is_gone(module, name):
    # import_module returns the submodule even where the package re-exports
    # a function under the submodule's name (franklin.staircase)
    assert not hasattr(importlib.import_module(module), name)
    assert not hasattr(franklin, name)
    assert name not in franklin.__all__
