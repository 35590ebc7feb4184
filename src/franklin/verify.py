"""Identity checkers: each compares routes that are different algorithms.

* general-product-formula: the product over parts > m vs the closed
  Gaussian-binomial sum.
* fixed-point-formula: the fixed-point generating function vs the
  product vs enumeration of the involution's fixed points.
* sylvester: the product of (1 + z q**n) vs the Durfee-square sum.
* durfee-decomposition: enumeration of distinct-part partitions graded
  by Durfee class vs each class's term, the summands of sylvester's side.
* involution-audit: every involution law on every partition in range.

The first two take the product from the `_product_coeffs` knapsack, not
from `euler_product`: that reads Euler's staircase sum through the same
Gaussian-binomial stepper as the closed forms, so it would not be an
independent route.

Checks report a verdict instead of raising: Fail is data, not an
exception.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

from .involution import enumerate_fixed_points, orbit_audit
from .partitions import DurfeeCategory, _distinct_tuples, _durfee
from .qseries import (
    QSeries,
    ZQSeries,
    _durfee_terms,
    _product_coeffs,
    max_distinct_parts,
    rhs_fixed_points,
    rhs_general,
    sylvester_sides,
)

PASS = "Pass"
FAIL = "Fail"


@dataclass
class VerificationReport:
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


def _qseries_mismatch(a: QSeries, b: QSeries, lhs: str, rhs: str) -> dict | None:
    for k, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
        if x != y:
            return {"exponent": k, "lhs": x, "rhs": y, "lhsRoute": lhs, "rhsRoute": rhs}
    return None


def _zq_mismatch(a: ZQSeries, b: ZQSeries, lhs: str, rhs: str) -> dict | None:
    found = a.first_difference(b)
    if found is None:
        return None
    j, k, x, y = found
    return {
        "qExponent": j,
        "zExponent": k,
        "lhs": x,
        "rhs": y,
        "lhsRoute": lhs,
        "rhsRoute": rhs,
    }


def _report(identity: str, params: dict, mismatch: dict | None, start: float) -> VerificationReport:
    return VerificationReport(
        identity=identity,
        params=params,
        verdict=FAIL if mismatch else PASS,
        first_mismatch=mismatch,
        elapsed=time.perf_counter() - start,
    )


def _knapsack_product(m: int, order: int) -> QSeries:
    """Product of (1 - q**k) over m < k <= order, truncated at order, by the knapsack."""
    if m < 0 or order < 0:
        raise ValueError("m and order must be nonnegative")
    return QSeries(order, _product_coeffs(m + 1, order, order, -1))


def check_general_formula(m: int, order: int) -> VerificationReport:
    """Product over parts > m vs its closed form."""
    start = time.perf_counter()
    mismatch = _qseries_mismatch(
        _knapsack_product(m, order), rhs_general(m, order), "product", "closed-form"
    )
    return _report(
        "general-product-formula", {"m": m, "order": order}, mismatch, start
    )


def check_fixed_point_formula(m: int, order: int) -> VerificationReport:
    """Fixed-point generating function vs the product vs direct enumeration."""
    start = time.perf_counter()
    closed = rhs_fixed_points(m, order)
    product = _knapsack_product(m, order)
    tally = [0] * (order + 1)
    for _, w in enumerate_fixed_points(m, order):
        tally[w.exponent] += w.sign
    enum = QSeries(order, tally)
    mismatch = _qseries_mismatch(closed, product, "fixed-point-sum", "product")
    if mismatch is None:
        mismatch = _qseries_mismatch(closed, enum, "fixed-point-sum", "enumeration")
    return _report("fixed-point-formula", {"m": m, "order": order}, mismatch, start)


def check_sylvester(q_order: int) -> VerificationReport:
    """Both sides of the Durfee-square identity, every q**j z**k in the truncation."""
    if q_order < 0:
        raise ValueError("q_order must be nonnegative")
    start = time.perf_counter()
    lhs, rhs = sylvester_sides(q_order)
    mismatch = _zq_mismatch(lhs, rhs, "product-side", "durfee-side")
    return _report("sylvester", {"order": q_order}, mismatch, start)


def check_durfee_decomposition(order: int) -> VerificationReport:
    """Durfee classification of distinct-part partitions vs the two summands.

    Enumerates everything of size <= order, grades by (part count, size,
    Durfee dimension, category), and compares against the expansions of
    the category-One and category-Two terms, for every (dimension,
    category) up to the largest dimension that the enumeration or the
    terms reach, which the report gives as maxDimension.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    start = time.perf_counter()
    z_cap = max_distinct_parts(order)
    counted = defaultdict(lambda: [[0] * (order + 1) for _ in range(z_cap + 1)])
    for size in range(order + 1):
        for parts in _distinct_tuples(size, 0):
            counted[_durfee(parts)][len(parts)][size] += 1
    # dimension 0 is the empty partition alone, category One
    terms = {(0, DurfeeCategory.ONE): ZQSeries.one(order)}
    for d, one, two in _durfee_terms(order):
        terms[d, DurfeeCategory.ONE] = one
        terms[d, DurfeeCategory.TWO] = two
    top = max(d for d, _ in counted.keys() | terms.keys())
    mismatch = None
    classes = ((d, category) for d in range(top + 1) for category in DurfeeCategory)
    for d, category in classes:
        enumerated = ZQSeries(order, counted.get((d, category), ()))
        term = terms.get((d, category), ZQSeries(order))
        found = _zq_mismatch(enumerated, term, "enumeration", "term-expansion")
        if found:
            mismatch = {"dimension": d, "category": category.value, **found}
            break
    return _report(
        "durfee-decomposition",
        {"order": order, "maxDimension": top},
        mismatch,
        start,
    )


def check_involution_laws(m: int, max_size: int) -> VerificationReport:
    """Every involution law on each partition of size <= max_size (orbit_audit)."""
    start = time.perf_counter()
    audit = orbit_audit(m, max_size)
    mismatch = None
    if audit.violations:
        law, parts = audit.violations[0]
        mismatch = {"law": law, "partition": ",".join(map(str, parts))}
    params = {
        "m": m,
        "maxSize": max_size,
        "totalPartitions": audit.total_partitions,
        "pairedCount": audit.paired_count,
        "fixedCount": audit.fixed_count,
        "tauMoved": audit.tau_moved,
        "sigmaMoved": audit.sigma_moved,
    }
    return _report("involution-audit", params, mismatch, start)
