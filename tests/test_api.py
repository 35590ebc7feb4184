import importlib

import pytest

import franklin

# "Class.attr" names a class attribute, read through the class
REMOVED = {
    "franklin.qseries": [
        "pochhammer_q",
        "fixed_point_polynomial",
        "QSeries.zero",
        "QSeries.monomial",
        "QSeries.shift",
        "QSeries.is_zero",
        "QSeries.__sub__",
        "QSeries.__neg__",
        "QSeries.one",
        "QSeries.coeff",
        "QSeries._check",
        "QSeries.__add__",
        "QSeries.__mul__",
        "QSeries.__rmul__",
        "QSeries.__hash__",
        "ZQSeries.monomial",
        "ZQSeries.z_slice",
        "ZQSeries.eval_z_at_monomial",
        "ZQSeries.grid",
        "ZQSeries.coeff",
        "ZQSeries._items",
        "ZQSeries.__add__",
        "ZQSeries.__rmul__",
        "ZQSeries.__str__",
        "ZQSeries.first_difference",
    ],
    "franklin.partitions": [
        "BoxPartition", "mu_decompose", "NotInStaircaseForm", "DistinctPartition.min_part"
    ],
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
    owner = importlib.import_module(module)
    if "." in name:
        cls_name, attr = name.split(".")
        # what every class inherits from object, and the None that makes a
        # class with __eq__ but no __hash__ unhashable, count as gone
        assert getattr(getattr(owner, cls_name), attr, None) in (None, getattr(object, attr, None))
        return
    assert not hasattr(owner, name)
    assert not hasattr(franklin, name)
    assert name not in franklin.__all__


def test_qseries_is_not_hashable():
    with pytest.raises(TypeError):
        hash(franklin.QSeries(2, [1]))


def test_tracer_installs_on_every_target_and_uninstall_restores_it(tracing):
    # the benchmark's tracer wraps names of this package; one it cannot find
    # fails here, in the tests, and not only in the benchmark's smoke run
    modules = [importlib.import_module(name) for name in tracing.MODULES]
    owners = []
    for module_name, attr, _, _ in tracing.TARGETS:
        if "." in attr:
            cls_name, method = attr.split(".")
            owners.append((vars(getattr(importlib.import_module(module_name), cls_name)), method))
        else:
            owners += [(vars(module), attr) for module in modules]
    before = [namespace.get(attr) for namespace, attr in owners]
    restore = tracing.install(tracing.Tracer())
    try:
        wrapped = {attr for _, attr, _ in restore}
        assert {attr.split(".")[-1] for _, attr, _, _ in tracing.TARGETS} <= wrapped
        assert all(vars(target)[attr] is not original for target, attr, original in restore)
    finally:
        tracing.uninstall(restore)
    assert [namespace.get(attr) for namespace, attr in owners] == before


P3 = franklin.DistinctPartition((3,))

# one row per public check of "these integers must be nonnegative": each call
# must raise at the call, before any item of a returned iterator is drawn, and
# name every negative argument of its own
NEGATIVE_ARGUMENT = {
    "QSeries": (lambda: franklin.QSeries(-1), "order"),
    "ZQSeries": (lambda: franklin.ZQSeries(-1), "q_order"),
    "euler_product": (lambda: franklin.euler_product(-1, 5), "m"),
    "rhs_general": (lambda: franklin.rhs_general(0, -1), "order"),
    "rhs_fixed_points": (lambda: franklin.rhs_fixed_points(-1, 5), "m"),
    "pochhammer_neg_zq": (lambda: franklin.pochhammer_neg_zq(-1, 5), "n"),
    "pochhammer_neg_zq-both": (lambda: franklin.pochhammer_neg_zq(-1, -1), "n and q_order"),
    "sylvester_sides": (lambda: franklin.sylvester_sides(-1), "q_order"),
    "max_distinct_parts": (lambda: franklin.max_distinct_parts(-1), "size"),
    "involute": (lambda: franklin.involute(P3, -1), "m"),
    "involute-empty": (lambda: franklin.involute(franklin.DistinctPartition(), -1), "m"),
    "enumerate_fixed_points-m": (lambda: franklin.enumerate_fixed_points(-1, 5), "m"),
    "enumerate_fixed_points-max_size": (
        lambda: franklin.enumerate_fixed_points(0, -1),
        "max_size",
    ),
    "orbit_audit": (lambda: franklin.orbit_audit(-1, 5), "m"),
    "cancellation_stats": (lambda: franklin.cancellation_stats(0, -1), "max_size"),
    "enumerate_distinct": (lambda: franklin.enumerate_distinct(-1), "size"),
    "count_distinct_signed": (lambda: franklin.count_distinct_signed(-1, 5), "m"),
    "base_partition": (lambda: franklin.base_partition(-1, 0), "n"),
    "staircase": (lambda: franklin.staircase(P3, -1), "m"),
    "classify_cells": (lambda: franklin.classify_cells(P3, -1), "m"),
    "render_ferrers": (lambda: franklin.render_ferrers(P3, -1), "m"),
    "tau": (lambda: franklin.tau(P3, -1), "m"),
    "sigma": (lambda: franklin.sigma(P3, -1), "m"),
    "check_general_formula": (lambda: franklin.check_general_formula(-1, 5), "m"),
    "check_fixed_point_formula": (lambda: franklin.check_fixed_point_formula(0, -1), "order"),
    "check_sylvester": (lambda: franklin.check_sylvester(-1), "q_order"),
    "check_durfee_decomposition": (lambda: franklin.check_durfee_decomposition(-1), "order"),
    "check_involution_laws": (lambda: franklin.check_involution_laws(0, -1), "max_size"),
}


@pytest.mark.parametrize("call,names", NEGATIVE_ARGUMENT.values(), ids=NEGATIVE_ARGUMENT)
def test_negative_argument_raises_at_the_call(call, names):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == f"{names} must be nonnegative"
