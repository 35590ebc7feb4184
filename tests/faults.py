"""Fault factories and the two fault tables that the law tests read.

A fault factory takes the real kernel and returns a corrupted kernel with
the same signature; a factory with arguments returns such a fault.
`install` puts faults in place with pytest's monkeypatch, and `everywhere`
patches each franklin module that binds a kernel.  `AUDIT_FAULTS` holds
one fault per law of `involution._audit_one`; `KERNEL_FAULTS` holds one
fault per kernel, with the verify suites it feeds and the identities it
must fail.
"""

import inspect
import sys
from operator import add

import franklin.cli  # noqa: F401  (with `franklin`, every module that binds a kernel)
import franklin.involution as involution
import franklin.partitions as partitions
import franklin.qseries as qseries
import franklin.verify as verify
from franklin.involution import FIXED, SIGMA_MOVED, TAU_MOVED
from franklin.partitions import base_partition


def bindings(name):
    """Every loaded franklin module that binds `name`, all of them to one object.

    The modules come from sys.modules, because `import franklin.staircase`
    yields the function that the package re-exports under that name.
    """
    found = [
        module
        for key, module in sorted(sys.modules.items())
        if key.partition(".")[0] == "franklin" and name in vars(module)
    ]
    assert len({id(vars(module)[name]) for module in found}) == 1, name
    return found


def everywhere(name, fault):
    """Patches that put `fault` on the kernel `name` in every module that binds it."""
    return [(module, name, fault) for module in bindings(name)]


def install(monkeypatch, patches):
    """Replace each (module, name, fault) kernel by the fault of what the module binds."""
    for module, name, fault in patches:
        monkeypatch.setattr(module, name, fault(getattr(module, name)))


def on_result(bend):
    """The fault factory whose fault returns bend(result, *args) for the real kernel's result."""
    return lambda real: lambda *args: bend(real(*args), *args)


@on_result
def flip_fixed(fixed, parts, m):
    return not fixed


@on_result
def flipped_on_pairs(fixed, parts, m):
    return fixed != (len(parts) == 2)


# `_move` returns (case, image, s_m, overlap)
@on_result
def staircase_too_long(moved, parts, m):
    case, image, s, overlap = moved
    return case, image, s + m + len(parts), overlap


@on_result
def staircase_plus_one(moved, parts, m):
    case, image, s, overlap = moved
    return case, image, s + 1, overlap


@on_result
def top_overlap_plus_one(moved, parts, m):
    case, image, s, overlap = moved
    return case, image, s, overlap + 1 if overlap else 0  # where the walk reached the top row


@on_result
def both_guards(moved, parts, m):
    return None, parts, *moved[2:]


@on_result
def no_guards(moved, parts, m):
    return FIXED, parts, *moved[2:]


def unmoved(case):
    """The kernel with each move of the given case reported as a fixed point."""
    return on_result(lambda moved, parts, m: (FIXED, parts, *moved[2:]) if moved[0] is case else moved)


@on_result
def three_part_sigma_fixed(moved, parts, m):
    # the decision every route reads: a wrapper on `involute` alone passes verify
    return (FIXED, parts, *moved[2:]) if moved[0] is SIGMA_MOVED and len(parts) == 3 else moved


@on_result
def overlap_plus_one(walked, parts, m):
    s, overlap = walked
    return s, overlap + 1 if overlap else 0


@on_result
def tau_extra_part(image, *args):
    return image + (0,)


@on_result
def bottom_plus_one(image, *args):
    """A move whose image has its bottom (largest) part one too high."""
    return (image[0] + 1,) + image[1:]


@on_result
def drops_top(image, *args):
    """A move whose image loses its top (smallest) part."""
    return image[:-1]


@on_result
def sigma_top_cell_to_bottom(image, *args):
    return (image[0] + 1,) + image[1:-1] + (image[-1] - 1,)


def counts_off(sign, *sizes):
    """A fault on `_distinct_counts`: the count of each size, of one sign, one too high.

    Size -1 is the largest size; a size past the order is left alone.
    """

    @on_result
    def fault(c, m, order, s=1):
        for size in sizes:
            if s == sign and size <= order:
                c[size] += 1
        return c

    return fault


def tallies_off(size, *parities):
    """A fault on `_fixed_point_tallies`: one fixed point too many of `size` in each parity named.

    With both parities off, the fixed-point generating function, which reads
    only their difference, is unmoved.
    """

    @on_result
    def fault(tallies, m, order):
        if size <= order:
            for parity in parities:
                tallies[("even", "odd").index(parity)][size] += 1
        return tallies

    return fault


def tau_counted_as_sigma(size):
    """A fault on `_audit_one`: one tau-moved partition of `size` counted as sigma-moved."""

    @on_result
    def fault(row, at, m, violations):
        tau_n, sigma_n, *fixed = row
        return (tau_n - 1, sigma_n + 1, *fixed) if at == size else row

    return fault


def total_plus_one(field):
    """A fault on `orbit_audit`: the report's total `field` one too high."""
    return on_result(lambda report, *args: report._replace(**{field: getattr(report, field) + 1}))


@on_result
def plus_one_at_seven(c, *args):
    c[7] += 1
    return c


def coefficient_plus_one(k):
    """A fault on a `QSeries` kernel: the q^k coefficient of its result one too high."""

    @on_result
    def fault(series, *args):
        series.coeffs[k] += 1
        return series

    return fault


@on_result
def column_two_off(columns, m, order, lead):
    for n, e, column in columns:
        yield n, e, column if n != 2 else [column[0] + 1, *column[1:]]


def durfee_terms_off(d, *cells):
    """Durfee terms whose dimension-d columns are one too high where its category-One term
    has each (z power, q power); the category-Two term moves with them.

    The fault bumps a copy, since the terms that follow are stepped from the yielded list.
    """

    @on_result
    def fault(terms, q_order):
        for dim, lead, columns in terms:
            if dim == d:
                columns = [list(c) for c in columns]
                for k, j in cells:
                    columns[k - d][j - lead] += 1
            yield dim, lead, columns

    return fault


def sylvester_rhs_off(*cells):
    """A fault on `sylvester_sides`: the Durfee side one too high at each (z power, q power)."""

    @on_result
    def fault(sides, q_order):
        for k, j in cells:
            sides[1].columns[k][j] += 1
        return sides

    return fault


@on_result
def category_swapped_at_two(graded, parts):
    # `_durfee` grades Two as True: the fault flips it at dimension 2
    d, two = graded
    return d, two != (d == 2)


def zq_step_off(at, k, j):
    """A fault on a (1 + z q^i) step: z^k q^j one too high after the step for factor i = at."""

    @on_result
    def fault(_, columns, i):
        if i == at:
            columns[k][j] += 1

    return fault


def skips_top_factor(real):
    """A product-side step that leaves out the factor at the truncation, the largest of (-zq)_N."""

    def corrupted(columns, i):
        if i < len(columns[0]) - 1:
            real(columns, i)

    return corrupted


def zq_step_shifted(real):
    # q^{i+1} for q^i: the Durfee side of sylvester and the Durfee terms read this kernel
    def corrupted(columns, i):
        for k in range(len(columns) - 1, 0, -1):
            qseries._add_shifted(columns[k], columns[k - 1], i + 1, add)

    return corrupted


def drops_last_at(*at):
    """An enumerator that loses its last item when called with these leading arguments."""

    @on_result
    def fault(items, *args):
        found = list(items)
        return iter(found[:-1] if args[: len(at)] == at else found)

    return fault


def _top_plus_one(box, top):
    for parts in box:
        yield (top + 1, *parts[1:]) if parts[0] == top else parts


@on_result
def family_b_top_plus_one(boxes, m, max_size):
    """Fixed-point boxes whose family-B points (mu_1 = m + 1) have their top part one too high.

    Each point stays in its box, with the box's part count and weight, so the
    weight tally alone cannot see the fault.
    """
    for n, w, box in boxes:
        yield n, w, _top_plus_one(box, base_partition(n, m).parts[0] + m + 1) if n else box


def points_replaced(points):
    """A fault on the fixed-point boxes: each point in `points` replaced by its list, boxes kept."""

    @on_result
    def fault(boxes, m, max_size):
        for n, w, box in boxes:
            yield n, w, (q for parts in box for q in points.get(parts, [parts]))

    return fault


def source_edit(old, new):
    """A fault that recompiles the kernel from its source with the one `old` made `new`.

    The edited function reads a copy of its module's globals, so only the
    patch that installs it changes what the program calls.
    """

    def fault(real):
        source = inspect.getsource(real)
        assert source.count(old) == 1
        module = inspect.getmodule(real)
        scope = {}
        exec(compile(source.replace(old, new), module.__file__, "exec"), dict(vars(module)), scope)
        return scope[real.__name__]

    return fault


# One corruption of one audit helper per law that _audit_one names: each
# wraps the real helper and bends its result so that the law must fire.
AUDIT_FAULTS = {
    "fixed-criterion": ("_fixed_criterion", flip_fixed),
    "staircase-bounds": ("_move", staircase_too_long),
    "guards-overlap": ("_move", both_guards),
    "taxicab": ("_move", top_overlap_plus_one),
    "fixed-shape": ("_move", no_guards),
    "tau-image": ("_tau_tuple", tau_extra_part),
    "tau-staircase-transfer": ("_move", staircase_plus_one),
    "tau-image-guard": ("_move", unmoved(SIGMA_MOVED)),
    "sigma-tau-roundtrip": ("_sigma_tuple", sigma_top_cell_to_bottom),
    "sigma-image": ("_sigma_tuple", drops_top),
    "sigma-top-transfer": ("_sigma_tuple", sigma_top_cell_to_bottom),
    "sigma-image-guard": ("_move", unmoved(TAU_MOVED)),
    "tau-sigma-roundtrip": ("_tau_tuple", bottom_plus_one),
}


# kernel: (patches as (module, name, fault of the real kernel), suites the kernel feeds,
# each failing identity with the law that fails first, if any)
KERNEL_FAULTS = {
    "_product_coeffs": (
        [(verify, "_product_coeffs", plus_one_at_seven)],
        ["general"],
        {"general-product-formula": None, "fixed-point-formula": None},
    ),
    # a knapsack window one entry short: each update writes one entry fewer, cutting c
    "_product_coeffs window": (
        [(verify, "_product_coeffs", source_edit(": order - k + 1]", ": order - k]"))],
        ["general"],
        {"general-product-formula": None, "fixed-point-formula": None},
    ),
    "_distinct_counts +1": (
        everywhere("_distinct_counts", counts_off(1, 7)),
        ["general", "involution"],
        {"involution-audit": "partition-count"},
    ),
    "_distinct_counts -1": (
        everywhere("_distinct_counts", counts_off(-1, 7)),
        ["general", "involution"],
        {"general-product-formula": None},
    ),
    "_fixed_point_tallies": (
        everywhere("_fixed_point_tallies", tallies_off(7, "even", "odd")),
        ["general", "involution"],
        {"involution-audit": "fixed-count"},
    ),
    "_audit_one pair count": (
        [(involution, "_audit_one", tau_counted_as_sigma(9))],
        ["involution"],
        {"involution-audit": "pair-count"},
    ),
    "orbit_audit total": (
        [(verify, "orbit_audit", total_plus_one("total_partitions"))],
        ["involution"],
        {"involution-audit": "audit-total"},
    ),
    "_gauss_columns": (
        [(qseries, "_gauss_columns", column_two_off)],
        ["general"],
        {"general-product-formula": None, "fixed-point-formula": None},
    ),
    "_box_lex": (
        [(involution, "_box_lex", drops_last_at((4, 3), 1, 1))],
        ["general"],
        {"fixed-point-formula": None},
    ),
    # one fault per law of fixed-point-formula
    "_fixed_point_blocks family-B top": (
        everywhere("_fixed_point_blocks", family_b_top_plus_one),
        ["general"],
        {"fixed-point-formula": "point-weight"},
    ),
    "_fixed_point_blocks moved point": (
        # (7, 3) has the weight of (6, 4) at m = 1, but the walk finds a move for it
        everywhere("_fixed_point_blocks", points_replaced({(6, 4): [(7, 3)]})),
        ["general"],
        {"fixed-point-formula": "point-guard"},
    ),
    "_fixed_point_blocks repeated point": (
        everywhere("_fixed_point_blocks", points_replaced({(5, 4): [(5, 4)] * 2})),
        ["general"],
        {"fixed-point-formula": "point-order"},
    ),
    "_parts_below": (
        [(partitions, "_parts_below", drops_last_at(9))],
        ["durfee", "involution"],
        {"durfee-decomposition": None, "involution-audit": "partition-count"},
    ),
    # a deep level (more than _TAIL left to fill) that leaves exactly its own part repeats
    # it, first at size 2 * (_TAIL + 1) = 34 (17 + 17): the involution suite's default
    "_parts_below deep level": (
        [(partitions, "_parts_below", source_edit("part = left, left if left <", "part = left, left if left <="))],
        ["all"],
        {"involution-audit": "sigma-image-guard"},
    ),
    # a stop test that drops the box or term whose size equals the order: the general
    # suite's default 117 is base_partition(9, 0)'s size, sylvester's 35 the fifth Durfee lead
    "_fixed_point_blocks stop": (
        everywhere("_fixed_point_blocks", source_edit(").parts)) <= max_size:", ").parts)) < max_size:")),
        ["all"],
        {"fixed-point-formula": None},
    ),
    "_durfee_terms stop": (
        everywhere("_durfee_terms", source_edit("// 2) <= q_order:", "// 2) < q_order:")),
        ["all"],
        {"sylvester": None},
    ),
    "_durfee": (
        [(verify, "_durfee", category_swapped_at_two)],
        ["durfee"],
        {"durfee-decomposition": None},
    ),
    "_durfee_terms": (
        everywhere("_durfee_terms", durfee_terms_off(2, (2, 5))),
        ["sylvester", "durfee"],
        {"sylvester": None, "durfee-decomposition": None},
    ),
    # the product side's step, which the Durfee side does not read
    "_neg_zq_step": (
        [(qseries, "_neg_zq_step", zq_step_off(2, 1, 5))],
        ["sylvester", "durfee"],
        {"sylvester": None},
    ),
    # a start one entry late: each column k >= 2 loses the step's lowest term
    "_neg_zq_step start": (
        [(qseries, "_neg_zq_step", source_edit("k * (k - 1) // 2", "k * (k - 1) // 2 + 1"))],
        ["sylvester", "all"],
        {"sylvester": None},
    ),
    "_neg_zq_step largest factor": (
        [(qseries, "_neg_zq_step", skips_top_factor)],
        ["sylvester", "all"],
        {"sylvester": None},
    ),
    # the Durfee side's step: z^3 q^6 of the dimension-2 category-One term one too high
    "_times_one_plus_zq": (
        [(qseries, "_times_one_plus_zq", zq_step_off(1, 1, 1))],
        ["sylvester", "durfee"],
        {"sylvester": None, "durfee-decomposition": None},
    ),
    # a window that starts one entry late: each column loses the step's lowest term
    "_times_one_plus_zq window": (
        [(qseries, "_times_one_plus_zq", source_edit("k * (k - 1) // 2", "k * (k - 1) // 2 + 1"))],
        ["sylvester", "durfee", "all"],
        {"sylvester": None, "durfee-decomposition": None},
    ),
    "_times_one_plus_zq shift": (
        [(qseries, "_times_one_plus_zq", zq_step_shifted)],
        ["sylvester", "durfee"],
        {"sylvester": None, "durfee-decomposition": None},
    ),
    "_walk": (
        [(involution, "_walk", overlap_plus_one)],
        ["involution"],
        {"involution-audit": "taxicab"},
    ),
    "_tau_tuple": (
        [(involution, "_tau_tuple", bottom_plus_one)],
        ["involution"],
        {"involution-audit": "tau-sigma-roundtrip"},
    ),
    "_sigma_tuple": (
        [(involution, "_sigma_tuple", drops_top)],
        ["involution"],
        {"involution-audit": "sigma-image"},
    ),
    "_fixed_criterion": (
        [(involution, "_fixed_criterion", flipped_on_pairs)],
        ["involution"],
        {"involution-audit": "fixed-criterion"},
    ),
    "_move 3-part sigma reported fixed": (
        [(involution, "_move", three_part_sigma_fixed)],
        ["involution", "general"],
        {"involution-audit": "fixed-criterion"},
    ),
}
