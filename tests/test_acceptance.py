"""Acceptance suite: every exit criterion at its stated bound, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All identities are exact, so every comparison is strict equality; the only
tolerances are the stated wall-clock budgets.
"""

import time

import pytest

from franklin.involution import (
    InvolutionCase,
    cancellation_stats,
    enumerate_fixed_points,
    involute,
    orbit_audit,
)
from franklin.partitions import DistinctPartition, count_distinct_signed
from franklin.qseries import (
    QSeries,
    _product_coeffs,
    euler_product,
    rhs_fixed_points,
    rhs_general,
    sylvester_sides,
)
from franklin.verify import check_durfee_decomposition

from references import enumerated_fixed_points, fixed_point_reference


def _verdict(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def audit_sweep():
    """Shared m = 0..4, size <= 60 audit used by criteria 5 and 6."""
    reports = {}
    start = time.perf_counter()
    for m in range(5):
        reports[m] = orbit_audit(m, 60)
    return reports, time.perf_counter() - start


def test_criterion_1_general_identity():
    start = time.perf_counter()
    ok = True
    for m in range(7):
        product = euler_product(m, 300)
        closed = rhs_general(m, 300)
        dp = QSeries(300, [signed for _, signed in count_distinct_signed(m, 300)])
        ok = ok and product == closed == dp
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(
        1, ok, f"product = closed form = signed DP for m=0..6 at order 300 ({elapsed:.2f}s)"
    )


def test_criterion_2_pentagonal_support():
    start = time.perf_counter()
    coeffs = euler_product(0, 1000).coeffs
    pentagonal = {k * (3 * k - 1) // 2 for k in range(-30, 31)}
    ok = all(c in (-1, 0, 1) for c in coeffs)
    ok = ok and all((c != 0) == (e in pentagonal) for e, c in enumerate(coeffs))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    _verdict(
        2, ok, f"order-1000 coefficients live exactly on pentagonal numbers ({elapsed:.2f}s)"
    )


def test_criterion_3_sylvester_identity():
    start = time.perf_counter()
    lhs, rhs = sylvester_sides(60)
    elapsed = time.perf_counter() - start
    ok = lhs == rhs and elapsed < 10.0
    _verdict(3, ok, f"bivariate sides agree to q^60, every power of z ({elapsed:.2f}s)")


def test_criterion_4_durfee_decomposition():
    report = check_durfee_decomposition(30)
    _verdict(
        4,
        report.passed,
        f"Durfee-graded counts match both summands to size 30,"
        f" dimension {report.params['maxDimension']}"
        f" ({report.elapsed:.2f}s)",
    )


def test_criterion_5_involution_laws(audit_sweep):
    reports, elapsed = audit_sweep
    ok = all(not r.violations for r in reports.values())
    ok = ok and all(
        r.total_partitions == r.paired_count + r.fixed_count and r.paired_count % 2 == 0
        for r in reports.values()
    )
    ok = ok and elapsed < 60.0
    total = sum(r.total_partitions for r in reports.values())
    _verdict(
        5,
        ok,
        f"involution laws hold on all {total} partitions, m=0..4, size <= 60"
        f" ({elapsed:.2f}s)",
    )


def test_criterion_6_fixed_point_criterion(audit_sweep):
    reports, _ = audit_sweep
    # the audit compares the box criterion against the applied case everywhere
    ok = all(
        law != "fixed-criterion"
        for r in reports.values()
        for law, _ in r.violations
    )
    total = sum(r.total_partitions for r in reports.values())
    _verdict(6, ok, f"criterion = fixedness on all {total} audited partitions")


def test_criterion_7_fixed_point_generating_function():
    ok = True
    for m in range(7):
        ok = ok and rhs_fixed_points(m, 120) == QSeries(120, _product_coeffs(m, 120, -1))
    for m in range(7):
        for n in range(11):
            poly = fixed_point_reference(n, m)
            ok = ok and poly == enumerated_fixed_points(n, m, len(poly) - 1)
    _verdict(
        7, ok, "fixed-point sum equals the product (m<=6, order 120); per-n polynomials"
        " match box enumeration (n<=10)"
    )


def test_criterion_8_published_statistics():
    start = time.perf_counter()
    table10 = cancellation_stats(10, 250)
    row = table10[250]
    ok = (row.partitions, row.fixed, row.fixed_positive) == (31571191, 3537, 47)

    fifty = {p.parts: w for p, w in enumerate_fixed_points(3, 50) if p.size == 50}
    ok = ok and set(fifty) == {(14, 13, 12, 11), (12, 11, 10, 9, 8)}
    ok = ok and fifty[(14, 13, 12, 11)].sign == -fifty[(12, 11, 10, 9, 8)].sign
    for parts in fifty:
        ok = ok and involute(DistinctPartition(parts), 3).case is InvolutionCase.FIXED

    ok = ok and all(r.residual == 0 for r in cancellation_stats(0, 250))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 15.0
    _verdict(
        8,
        ok,
        "m=10: 31,571,191 partitions of 250, 3,537 fixed, 47 positive; m=3 witnesses"
        f" of 50 fixed with opposite signs; m=0 residual 0 ({elapsed:.2f}s)",
    )


def test_criterion_9_m1_fixed_point_table():
    ok = True
    for n in range(13):
        top = (3 * n * n + n) // 2 + 2 * n
        by_n = [
            w.exponent for p, w in enumerate_fixed_points(1, top) if p.n == n
        ]
        expected = [(3 * n * n + n) // 2 + k for k in range(2 * n + 1)]
        ok = ok and sorted(by_n) == expected
    _verdict(
        9, ok, "m=1 fixed points with n parts: exactly 2n+1 of them, one per size"
        " (3n^2+n)/2 + 0..2n, for n <= 12"
    )
