"""Identity checkers: each compares routes that are different algorithms.

* general-product-formula: the product over parts > m three ways: the
  knapsack vs the closed Gaussian-binomial sum vs Euler's staircase sum
  (`euler_product`, the route `expand` prints).
* fixed-point-formula: the fixed-point generating function vs the
  product vs enumeration of the involution's fixed points, in the boxes
  that `fixed-points` prints, where each point must carry its box's
  weight, hold neither move's guard and come after the one before it.
* sylvester: the product of (1 + z q**n) vs the Durfee-square sum.
* durfee-decomposition: enumeration of distinct-part partitions graded
  by Durfee class vs each class's term, the summands of sylvester's side.
* involution-audit: every involution law on every partition in range,
  and each size's tallies vs the row `stats` prints for that size
  (`orbit_audit` names the laws and the route behind each column); then
  the totals the report gives vs the summed rows and each other.

The first side of both product checks is the `_product_coeffs` knapsack,
which shares no kernel with the others.  Euler's sum and the closed forms
share only `_divide_step`, so a fault there moves both and still shows
against the knapsack.

Checks report a verdict instead of raising: Fail is data, not an
exception.  Arguments are checked before any route runs, so a usage
error still raises ValueError; a ValueError that a route raises (a guard
tripped by a faulty kernel) is a Fail whose first mismatch is
{"error": message}.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, NamedTuple

from .involution import FIXED, _fixed_point_blocks, _move, cancellation_stats, orbit_audit
from .partitions import DurfeeCategory, _distinct_tuples, _durfee, _parts_text
from .qseries import (
    ZQSeries,
    _durfee_terms,
    _nonnegative,
    _product_coeffs,
    euler_product,
    rhs_fixed_points,
    rhs_general,
    sylvester_sides,
)

PASS = "Pass"
FAIL = "Fail"


class VerificationReport(NamedTuple):
    identity: str
    params: dict
    verdict: str
    first_mismatch: dict | None = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        args = " ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"[{tag}] {self.identity} {args} ({self.elapsed:.2f}s)"
        if self.first_mismatch:
            detail = " ".join(f"{k}={v}" for k, v in self.first_mismatch.items())
            line += f" first mismatch: {detail}"
        return line


def _qseries_mismatch(a: list[int], b: list[int], lhs: str, rhs: str) -> dict | None:
    """The first unequal coefficient of two series given as lists, or None."""
    # strict: a list cut short or run long fails the check instead of shortening it
    for k, (x, y) in enumerate(zip(a, b, strict=True)):
        if x != y:
            return {"exponent": k, "lhs": x, "rhs": y, "lhsRoute": lhs, "rhsRoute": rhs}
    return None


def _zq_mismatch(a: ZQSeries, b: ZQSeries, lhs: str, rhs: str) -> dict | None:
    """The first unequal q**j z**k in q-major order (each z**k at q**0 first), or None."""
    a._check(b)
    # each z-column is compared whole; only an unequal one is scanned for its first j
    found = [
        (next(j for j, (x, y) in enumerate(zip(u, v)) if x != y), k)
        for k, (u, v) in enumerate(zip(a.columns, b.columns))
        if u != v
    ]
    if not found:
        return None
    j, k = min(found)
    x, y = a.columns[k][j], b.columns[k][j]
    return {"qExponent": j, "zExponent": k, "lhs": x, "rhs": y, "lhsRoute": lhs, "rhsRoute": rhs}


def _run(identity: str, params: dict, routes: Callable[[], dict | None]) -> VerificationReport:
    """Time routes(), which returns the first mismatch or None, into a report."""
    start = time.perf_counter()
    try:
        mismatch = routes()
    except ValueError as exc:
        mismatch = {"error": str(exc)}
    return VerificationReport(
        identity=identity,
        params=params,
        verdict=FAIL if mismatch else PASS,
        first_mismatch=mismatch,
        elapsed=time.perf_counter() - start,
    )


def check_general_formula(m: int, order: int) -> VerificationReport:
    """Product over parts > m: knapsack vs closed form vs Euler's sum."""
    _nonnegative(m=m, order=order)

    def routes() -> dict | None:
        product = _product_coeffs(m, order, -1)
        return _qseries_mismatch(
            product, rhs_general(m, order).coeffs, "product", "closed-form"
        ) or _qseries_mismatch(product, euler_product(m, order).coeffs, "product", "euler-sum")

    return _run("general-product-formula", {"m": m, "order": order}, routes)


def check_fixed_point_formula(m: int, order: int) -> VerificationReport:
    """Fixed-point generating function vs the product vs direct enumeration.

    The enumeration reads the boxes that `fixed-points` prints, each a part
    count n, a weight (sign, size) and its points.  Each point must keep
    three laws, each read from its own parts, and the first point that
    breaks one is the first mismatch: point-weight, it has n parts summing
    to size and sign is (-1)^n; point-guard, `_move` (what `involute` runs)
    fixes it by the walk, not the box formula (the empty point is fixed by
    definition); point-order, its key (n, size, parts) rises strictly, the
    documented order without repeats.
    """
    _nonnegative(m=m, order=order)

    def routes() -> dict | None:
        closed = rhs_fixed_points(m, order).coeffs
        found = _qseries_mismatch(closed, _product_coeffs(m, order, -1), "fixed-point-sum", "product")
        if found:
            return found
        tally = [0] * (order + 1)
        last: tuple = ()
        for n, (sign, size), points in _fixed_point_blocks(m, order):
            for parts in points:
                key = (n, size, parts)
                law = (
                    "point-weight" if len(parts) != n or sum(parts) != size or sign != (-1) ** n
                    else "point-guard" if parts and _move(parts, m)[0] is not FIXED
                    else "point-order" if key <= last
                    else None
                )
                if law:
                    return {"law": law, "partition": _parts_text(parts)}
                tally[size] += sign
                last = key
        return _qseries_mismatch(closed, tally, "fixed-point-sum", "enumeration")

    return _run("fixed-point-formula", {"m": m, "order": order}, routes)


def check_sylvester(q_order: int) -> VerificationReport:
    """Both sides of the Durfee-square identity, every q**j z**k in the truncation."""
    _nonnegative(q_order=q_order)

    def routes() -> dict | None:
        lhs, rhs = sylvester_sides(q_order)
        return _zq_mismatch(lhs, rhs, "product-side", "durfee-side")

    return _run("sylvester", {"order": q_order}, routes)


def check_durfee_decomposition(order: int) -> VerificationReport:
    """Durfee classification of distinct-part partitions vs the two summands.

    Enumerates everything of size <= order, grades by (part count, size,
    Durfee dimension, category), and compares against the expansions of
    the category-One and category-Two terms, for every (dimension,
    category) up to the largest dimension that the enumeration or the
    terms reach, which the report gives as maxDimension.
    """
    _nonnegative(order=order)
    params = {"order": order}

    def routes() -> dict | None:
        counted = defaultdict(lambda: ZQSeries(order))
        for size in range(order + 1):
            for parts in _distinct_tuples(size, 0):
                counted[_durfee(parts)].columns[len(parts)][size] += 1
        # dimension 0 is the empty partition alone, category One
        terms = {(0, DurfeeCategory.ONE): ZQSeries.one(order)}
        for d, one, two in _durfee_terms(order):
            terms[d, DurfeeCategory.ONE] = one
            terms[d, DurfeeCategory.TWO] = two
        top = params["maxDimension"] = max(d for d, _ in counted.keys() | terms.keys())
        for d in range(top + 1):
            for category in DurfeeCategory:
                term = terms.get((d, category), ZQSeries(order))
                found = _zq_mismatch(counted[d, category], term, "enumeration", "term-expansion")
                if found:
                    return {"dimension": d, "category": category.value, **found}
        return None

    return _run("durfee-decomposition", params, routes)


# the audit's per-size count laws and the audit-total law, and their item's fields
_COUNT_LAW_FIELDS = {
    "partition-count": ("size", "enumerated", "counted"),
    "pair-count": ("size", "tauMoved", "sigmaMoved"),
    "fixed-count": ("size", "parity", "enumerated", "counted"),
    "audit-total": ("total", "reported", "counted"),
}


def check_involution_laws(m: int, max_size: int) -> VerificationReport:
    """Every involution law on each partition of size <= max_size (orbit_audit), then its totals.

    When the audit finds no violation, the audit-total law holds each total
    it reports against a count that does not read its sums: totalPartitions
    and fixedCount against the summed `cancellation_stats` columns,
    pairedCount against totalPartitions - fixedCount, and tauMoved against
    sigmaMoved.
    """
    _nonnegative(m=m, max_size=max_size)
    params = {"m": m, "maxSize": max_size}

    def routes() -> dict | None:
        audit = orbit_audit(m, max_size)
        params.update(
            totalPartitions=audit.total_partitions,
            pairedCount=audit.paired_count,
            fixedCount=audit.fixed_count,
            tauMoved=audit.tau_moved,
            sigmaMoved=audit.sigma_moved,
        )
        stats = cancellation_stats(m, max_size)
        counted = {
            "totalPartitions": sum(row.partitions for row in stats),
            "fixedCount": sum(row.fixed for row in stats),
            "pairedCount": audit.total_partitions - audit.fixed_count,
            "tauMoved": audit.sigma_moved,
        }
        broken = audit.violations or [
            ("audit-total", (total, params[total], count))
            for total, count in counted.items()
            if params[total] != count
        ]
        if not broken:
            return None
        law, item = broken[0]
        if law in _COUNT_LAW_FIELDS:
            return {"law": law, **dict(zip(_COUNT_LAW_FIELDS[law], item))}
        return {"law": law, "partition": _parts_text(item)}

    return _run("involution-audit", params, routes)
