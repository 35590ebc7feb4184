import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import franklin.qseries as qseries
from franklin.partitions import count_distinct_signed, enumerate_distinct
from franklin.qseries import (
    NonUnitConstantTerm,
    _distinct_counts,
    _divide_step,
    _durfee_terms,
    _fixed_point_tallies,
    _gauss_step,
    _product_coeffs,
    QSeries,
    TruncationMismatch,
    ZQSeries,
    euler_product,
    format_series,
    gauss_binomial,
    max_distinct_parts,
    pochhammer_neg_zq,
    rhs_fixed_points,
    rhs_general,
    sylvester_sides,
)
from franklin.verify import check_general_formula

from references import distinct_by_part_count, enumerated_fixed_points, fixed_point_reference

ORDER = 24


def qs(*coeffs, order=ORDER):
    return QSeries(order, coeffs)


small_series = st.builds(
    lambda c: QSeries(ORDER, c), st.lists(st.integers(-9, 9), max_size=ORDER + 1)
)


def convolve(a, b):
    """a times b, two QSeries of one order, by the schoolbook convolution."""
    n = a.order
    out = [0] * (n + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs[: n + 1 - i]):
            out[i + j] += x * y
    return QSeries(n, out)


def box_poly_oracle(rows, width):
    """Partition counts by size inside a rows-by-width box, by enumeration."""
    counts = [0] * (rows * width + 1)

    def rec(left, cap, total):
        if left == 0:
            counts[total] += 1
            return
        for v in range(cap + 1):
            rec(left - 1, v, total + v)

    rec(rows, width, 0)
    return counts


class TestQSeriesArithmetic:
    def test_telescoping_product(self):
        geometric = qs(*([1] * (ORDER + 1)))
        assert convolve(qs(1, -1), geometric) == qs(1)
        assert geometric.invert() == qs(1, -1)

    def test_invert_geometric(self):
        assert QSeries(4, [1, -1]).invert() == QSeries(4, [1, 1, 1, 1, 1])

    def test_invert_alternating(self):
        assert QSeries(3, [1, 1]).invert() == QSeries(3, [1, -1, 1, -1])

    def test_invert_requires_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            qs(2, 1).invert()

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError):
            QSeries(1, [1, 2, 3])

    @given(small_series)
    @settings(max_examples=60, deadline=None)
    def test_invert_is_right_inverse(self, a):
        a.coeffs[0] = 1  # force a unit
        assert convolve(a, a.invert()) == qs(1)


class TestEulerProduct:
    def test_pentagonal_to_twelve(self):
        assert euler_product(0, 12).coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]

    def test_empty_product(self):
        assert euler_product(9, 6) == QSeries(6, [1])
        assert euler_product(6, 6) == QSeries(6, [1])

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_signed_dp(self, m):
        table = count_distinct_signed(m, 60)
        assert euler_product(m, 60).coeffs == [signed for _, signed in table]

    @pytest.mark.parametrize("order", [*range(121), 499, 500, 501, 999, 1000])
    def test_pentagonal_exponents(self, order):
        # Euler: (-1)^j at j(3j -+ 1)/2 and 0 elsewhere, generated without any product
        expected = [0] * (order + 1)
        j = 0
        while (low := j * (3 * j - 1) // 2) <= order:
            for e in (low, low + j):
                if e <= order:
                    expected[e] = (-1) ** j
            j += 1
        assert euler_product(0, order).coeffs == expected

    @pytest.mark.parametrize("m", range(8))
    def test_matches_subset_counts(self, m):
        # coefficient s of prod_{k>m} (1 + sign q^k): sign^len(S) summed over the sets S of
        # distinct k > m with sum(S) = s
        top = 24
        subsets = [
            subset
            for r in range(max_distinct_parts(top) + 1)
            for subset in combinations(range(m + 1, top + 1), r)
            if sum(subset) <= top
        ]
        for order in range(top + 1):
            for sign in (1, -1):
                expected = [0] * (order + 1)
                for subset in subsets:
                    if sum(subset) <= order:
                        expected[sum(subset)] += sign ** len(subset)
                assert _product_coeffs(m, order, sign) == expected, (order, sign)


class TestDistinctCounts:
    @pytest.mark.parametrize("m", range(13))
    def test_matches_the_knapsack(self, m):
        for order in (0, 1, 2, 3, 7, 60, 400):
            assert _distinct_counts(m, order) == _product_coeffs(m, order, 1), order

    @pytest.mark.parametrize("m,order", [(20, 20), (50, 20), (0, 2000)])
    def test_matches_the_knapsack_at_the_edges(self, m, order):
        assert _distinct_counts(m, order) == _product_coeffs(m, order, 1)

    @pytest.mark.parametrize("m", range(13))
    def test_signed_matches_the_knapsack(self, m):
        for order in (0, 1, 2, 3, 7, 60, 400):
            assert _distinct_counts(m, order, -1) == _product_coeffs(m, order, -1), order

    @pytest.mark.parametrize("m,order", [(20, 20), (50, 20), (0, 2000)])
    def test_signed_matches_the_knapsack_at_the_edges(self, m, order):
        assert _distinct_counts(m, order, -1) == _product_coeffs(m, order, -1)

    def test_general_check_does_not_share_the_stepper(self, monkeypatch):
        # a faulty Gaussian-binomial step reaches rhs_general but not euler_product
        real = qseries._gauss_step

        def corrupted(c, n, m):
            real(c, n, m)
            if n == 1:
                c[0] += 1

        knapsack = _product_coeffs(2, 40, -1)
        clean = euler_product(2, 40).coeffs
        monkeypatch.setattr(qseries, "_gauss_step", corrupted)
        assert euler_product(2, 40).coeffs == clean == knapsack
        report = check_general_formula(2, 40)
        assert report.verdict == "Fail"
        assert report.first_mismatch["lhsRoute"] == "product"
        assert report.first_mismatch["rhsRoute"] == "closed-form"
        assert report.first_mismatch["lhs"] == knapsack[report.first_mismatch["exponent"]]

    def test_general_check_fails_on_a_shared_division_fault(self, monkeypatch):
        # a faulty division reaches euler_product and rhs_general alike; the check
        # still fails, because its first side is the knapsack's
        real = qseries._divide_step

        def corrupted(c, n):
            real(c, n)
            if n == 1:
                c[-1] += 1

        knapsack = _product_coeffs(2, 40, -1)
        monkeypatch.setattr(qseries, "_divide_step", corrupted)
        assert euler_product(2, 40).coeffs != knapsack
        assert rhs_general(2, 40).coeffs != knapsack
        report = check_general_formula(2, 40)
        assert report.verdict == "Fail"
        assert report.first_mismatch["lhsRoute"] == "product"
        assert report.first_mismatch["lhs"] == knapsack[report.first_mismatch["exponent"]]

    def test_matches_subset_sums(self):
        # by_least[a][s]: sets of distinct parts in 1..top with sum s and least part a
        # (a = top + 1 for the empty set); parts > m are the sets with a > m
        top = 30
        by_least = [[0] * (top + 1) for _ in range(top + 2)]
        for r in range(max_distinct_parts(top) + 1):
            for parts in combinations(range(1, top + 1), r):
                if sum(parts) <= top:
                    by_least[parts[0] if parts else top + 1][sum(parts)] += 1
        for m in range(top + 1):
            expected = [sum(col[s] for col in by_least[m + 1 :]) for s in range(top + 1)]
            for order in range(top + 1):
                assert _distinct_counts(m, order) == expected[: order + 1], (m, order)


class TestGaussBinomial:
    def test_two_choose_one(self):
        assert gauss_binomial(2, 1) == QSeries(1, [1, 1])

    def test_four_choose_two(self):
        assert gauss_binomial(4, 2) == QSeries(4, [1, 1, 2, 1, 1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_binomial(3, 4)
        with pytest.raises(ValueError):
            gauss_binomial(3, -1)

    @pytest.mark.parametrize("a", range(13))
    def test_evaluation_at_one(self, a):
        for b in range(a + 1):
            assert sum(gauss_binomial(a, b).coeffs) == comb(a, b)

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(15) for b in range(a + 1)])
    def test_counts_box_partitions(self, a, b):
        # coefficient k = number of partitions of k inside a b x (a-b) box
        assert gauss_binomial(a, b).coeffs == box_poly_oracle(b, a - b)

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_truncated_steps_match_full_binomial(self, m):
        # a column shorter than the degree n*m stays exact up to its order
        for order in (0, 1, 5, 17):
            column = [1] + [0] * order
            for n in range(1, 9):
                _gauss_step(column, n, m)
                full = gauss_binomial(n + m, m).coeffs + [0] * order
                assert column == full[: order + 1]

    @given(st.integers(0, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_palindrome(self, a, data):
        b = data.draw(st.integers(0, a))
        poly = gauss_binomial(a, b)
        assert poly == gauss_binomial(a, a - b)
        assert poly.coeffs == poly.coeffs[::-1]
        assert all(v > 0 for v in poly.coeffs)


def monomial(q_exp, z_exp, q_order):
    """q^q_exp z^z_exp as a ZQSeries; zero when it lies past the truncation."""
    if q_exp > q_order:
        return ZQSeries(q_order)
    return ZQSeries(q_order, [[]] * z_exp + [[0] * q_exp + [1]])


def zq_coeff(series, q_exp, z_exp):
    """The coefficient of q^q_exp z^z_exp; every power of z past the stored columns is 0."""
    return series.columns[z_exp][q_exp] if z_exp < len(series.columns) else 0


def substitute_z(series, coeff, q_exp):
    """Collapse a ZQSeries to a QSeries at z = coeff * q**q_exp, read through zq_coeff().

    Exact to q_order, since every power of z past the stored columns reads 0.
    """
    out = [0] * (series.q_order + 1)
    for j in range(series.q_order + 1):
        for k in range(series.q_order + 1):
            e = j + k * q_exp
            if e <= series.q_order:
                out[e] += zq_coeff(series, j, k) * coeff**k
    return QSeries(series.q_order, out)


class TestPochhammer:
    def test_neg_zq_one(self):
        assert pochhammer_neg_zq(1, 3) == ZQSeries(3, [[1], [0, 1]])

    def test_columns_count_distinct_parts_by_part_count(self):
        for q_order in range(61):
            for n in {0, 1, max(q_order - 1, 0), q_order, q_order + 3}:
                expected = distinct_by_part_count(q_order, n)
                assert pochhammer_neg_zq(n, q_order).columns == expected, (n, q_order)


def qseries_calls(route):
    """Names of the franklin.qseries functions that route() calls.

    A generator expression is counted as the function that runs it.
    """
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == qseries.__file__:
            if code.co_name.startswith("<"):
                code = frame.f_back.f_code
            called.add(code.co_name)

    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(None)
    return called


class TestRouteIndependence:
    # what both sides may call: neither computes a coefficient
    SHARED = {
        "_nonnegative",  # the argument check
        "max_distinct_parts",  # the count of stored z-columns
        "__init__",  # ZQSeries' zero-padded storage
        "one",  # ZQSeries.one, the series 1
    }

    def test_sylvester_sides_share_no_step_kernel(self):
        product = qseries_calls(lambda: pochhammer_neg_zq(35, 35))
        durfee = qseries_calls(lambda: list(_durfee_terms(35)))
        assert "_neg_zq_step" in product and "_times_one_plus_zq" in durfee
        assert not (product & durfee) - self.SHARED, product & durfee


class TestZQSeries:
    def test_mismatch_rejected(self):
        with pytest.raises(TruncationMismatch):
            ZQSeries.one(2) * ZQSeries.one(3)

    def test_capped_columns_equal_explicit_zero_columns(self):
        # at q order 6 at most three distinct parts fit (1 + 2 + 3): z^4..z^8 are not stored
        capped = ZQSeries(6, [[1], [0, 1, 1]])
        explicit = ZQSeries(6, [[1], [0, 1, 1]] + [[0] * 7] * 7)
        assert capped == explicit
        assert len(capped.columns) == max_distinct_parts(6) + 1

    def test_nonzero_past_stored_columns_rejected(self):
        # two distinct parts need size 3, so z^2 has no stored column at q order 2
        with pytest.raises(ValueError):
            ZQSeries(2, [[1], [], [1]])
        square = ZQSeries(2, [[1], [0, 1]])
        with pytest.raises(ValueError):
            square * square  # (1 + zq)^2 has z^2 q^2

    def test_columns_must_fit_truncation(self):
        with pytest.raises(ValueError):
            ZQSeries(2, [[1, 0, 0, 0]])


def general_lead(n, m):
    return (3 * n * n + n) // 2 + n * m


def fixed_lead(n, m):
    return (3 * n * n - n) // 2 + n * m


def distinct_lead(n, m):
    return n * m + n * (n + 1) // 2


def trim_orders(m, lead):
    """Every order up to 60, and each order up to 400 at which a term's lead first fits."""
    return sorted(set(range(61)) | {e for n in range(20) if (e := lead(n, m)) <= 400})


def untrimmed_terms(m, order, lead):
    """(n, lead(n, m), [n+m, m]_q, [n+m-1, m]_q) for each term that starts within the order."""
    n = 0
    while (e := lead(n, m)) <= order:
        previous = gauss_binomial(n + m - 1, m).coeffs if n else []
        yield n, e, gauss_binomial(n + m, m).coeffs, previous
        n += 1


def knapsack_product(m, order):
    """The product of (1 - q^k) over k > m by the knapsack, a route the closed forms do not share."""
    return QSeries(order, _product_coeffs(m, order, -1))


def add_at(out, coeffs, shift, scale=1):
    """out += scale * q^shift * coeffs, truncated at len(out) - 1."""
    for k, v in enumerate(coeffs[: max(0, len(out) - shift)]):
        out[shift + k] += scale * v


class TestRhsGeneral:
    def test_pentagonal_case(self):
        assert rhs_general(0, 300) == knapsack_product(0, 300)

    def test_m1_is_pentagonal_divided_by_one_minus_q(self):
        # cross-multiplied: (1 - q) * rhs_general(1, N) = pentagonal series
        lhs = convolve(QSeries(40, [1, -1]), rhs_general(1, 40))
        assert lhs == euler_product(0, 40)

    @pytest.mark.parametrize("m", range(6))
    def test_constant_term(self, m):
        assert rhs_general(m, 10).coeffs[0] == 1

    @pytest.mark.parametrize("m", range(5))
    def test_matches_product(self, m):
        assert rhs_general(m, 80) == knapsack_product(m, 80)

    @pytest.mark.parametrize("m", range(13))
    def test_matches_untrimmed_sum(self, m):
        # before step n the stepped column is sized to min(nm, order - lead) + 1 entries
        for order in trim_orders(m, general_lead):
            expected = [0] * (order + 1)
            for n, lead, column, _ in untrimmed_terms(m, order, general_lead):
                add_at(expected, column, lead, (-1) ** n)
                add_at(expected, column, lead + 2 * n + m + 1, -((-1) ** n))
            assert rhs_general(m, order).coeffs == expected, order

    def test_series_workload_orders(self):
        # the last terms are cut by the truncation, lead + n*m > order
        assert rhs_general(30, 2000) == knapsack_product(30, 2000)
        assert rhs_fixed_points(20, 2000) == knapsack_product(20, 2000)


class TestFixedPointClosedForms:
    def test_n2_m1_polynomial(self):
        # weight sign is (+1)^n for n = 2, exponents 7..11
        expected = [0] * 7 + [1, 1, 1, 1, 1]
        assert fixed_point_reference(2, 1) == expected
        assert enumerated_fixed_points(2, 1, 11) == expected

    def test_n0_is_one(self):
        assert fixed_point_reference(0, 4) == [1]
        assert enumerated_fixed_points(0, 4, 0) == [1]

    def test_n1_m0(self):
        # fixed points (1) and (2), one part each: -q - q^2
        assert fixed_point_reference(1, 0) == [0, -1, -1]
        assert enumerated_fixed_points(1, 0, 2) == [0, -1, -1]

    @pytest.mark.parametrize("m", range(5))
    def test_sum_equals_product(self, m):
        assert rhs_fixed_points(m, 70) == knapsack_product(m, 70)

    @pytest.mark.parametrize("m", range(13))
    def test_tallies_match_untrimmed_sum(self, m):
        # before step n the stepped column is sized to min(nm, order - base) + 1 entries
        for order in trim_orders(m, fixed_lead):
            expected = ([0] * (order + 1), [0] * (order + 1))
            for n, base, column, previous in untrimmed_terms(m, order, fixed_lead):
                add_at(expected[n % 2], column, base)
                add_at(expected[n % 2], previous, base + n + m)
            assert _fixed_point_tallies(m, order) == expected, order


class TestColumnSizing:
    @pytest.mark.parametrize("m", range(13))
    @pytest.mark.parametrize(
        "kernel,lead", [(rhs_general, general_lead), (_fixed_point_tallies, fixed_lead)]
    )
    def test_step_n_sees_at_most_the_degree_or_the_room(self, monkeypatch, kernel, lead, m):
        # [n+m, m] has degree n*m and the term at lead reads nothing past order - lead
        seen = []

        def recording(c, n, m_):
            seen.append((n, len(c)))
            _gauss_step(c, n, m_)

        monkeypatch.setattr(qseries, "_gauss_step", recording)
        for order in trim_orders(m, lead):
            seen.clear()
            kernel(m, order)
            terms = sum(1 for n in range(order + 1) if lead(n, m) <= order)
            assert [n for n, _ in seen] == list(range(1, terms)), order
            for n, size in seen:
                assert size <= min(n * m, order - lead(n, m)) + 1, (order, n, size)


class TestMaxDistinctParts:
    def test_largest_k_whose_staircase_fits(self):
        # k distinct parts need at least 1 + 2 + ... + k = k(k+1)/2
        for size in range(501):
            k = max_distinct_parts(size)
            assert k * (k + 1) // 2 <= size < (k + 1) * (k + 2) // 2, size


class TestDistinctCountsSizing:
    @pytest.mark.parametrize("m", range(13))
    def test_step_n_sees_exactly_the_room(self, monkeypatch, m):
        # V_n is read up to order - lead(n), and the steps run from the last term down
        seen = []

        def recording(c, n):
            seen.append((n, len(c)))
            _divide_step(c, n)

        monkeypatch.setattr(qseries, "_divide_step", recording)
        for order in trim_orders(m, distinct_lead):
            for sign in (1, -1):
                seen.clear()
                _distinct_counts(m, order, sign)
                terms = sum(1 for n in range(order + 1) if distinct_lead(n, m) <= order)
                assert [n for n, _ in seen] == list(range(terms - 1, 0, -1)), (order, sign)
                for n, size in seen:
                    assert size == order - distinct_lead(n, m) + 1, (order, sign, n, size)


class TestSylvester:
    def test_z_linear_slice(self):
        lhs, rhs = sylvester_sides(12)
        expected = [0] + [1] * 12
        assert lhs.columns[1] == expected
        assert rhs.columns[1] == expected

    def test_two_parts_of_five(self):
        lhs, rhs = sylvester_sides(8)
        assert lhs.columns[2][5] == 2  # (4,1) and (3,2)
        assert rhs.columns[2][5] == 2

    def test_sides_agree(self):
        # order 60 passes the lead of every Durfee dimension up to 6, (3 * 36 - 6) / 2 = 51
        for order in range(61):
            lhs, rhs = sylvester_sides(order)
            assert lhs == rhs, order

    def test_lhs_counts_distinct_partitions(self):
        cap = 30
        lhs, _ = sylvester_sides(cap)
        for size in range(cap + 1):
            by_parts = {}
            for p in enumerate_distinct(size, 0):
                by_parts[p.n] = by_parts.get(p.n, 0) + 1
            for k in range(cap + 1):
                assert zq_coeff(lhs, size, k) == by_parts.get(k, 0)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_substitution_recovers_product(self, m):
        # (1 + z) * lhs at z = -q^(m+1) telescopes to the product over parts > m
        order = 30
        lhs, _ = sylvester_sides(order)
        one_plus_z = QSeries(order, [1] + [0] * m + [-1])
        assert convolve(one_plus_z, substitute_z(lhs, -1, m + 1)) == euler_product(m, order)

    @pytest.mark.parametrize("order", [0, 1, 30, 120])
    def test_durfee_side_at_minus_q_to_the_m_is_the_product(self, order):
        # prod_{n>=1} (1 + z q^n) at z = -q^m is prod_{k>m} (1 - q^k), read off the Durfee side
        _, rhs = sylvester_sides(order)
        for m in range(11):
            found = [0] * (order + 1)
            for k, column in enumerate(rhs.columns):
                for j, c in enumerate(column):
                    if j + k * m <= order:
                        found[j + k * m] += (-1) ** k * c
            assert found == _product_coeffs(m, order, -1), m


def neg_zq_by_products(n, q_order):
    """(-zq)_n multiplied out one (1 + z q^i) at a time with ZQSeries.__mul__."""
    acc = ZQSeries.one(q_order)
    for i in range(1, n + 1):
        acc = acc * ZQSeries(q_order, [[1], ([0] * i + [1])[: q_order + 1]])
    return acc


def durfee_term_by_inversion(d, q_shift, z_shift, q_order):
    """z^{d+z_shift} q^{(3d^2-d)/2+q_shift} (-zq)_{d-1} times the series inverse of (q)_d."""
    lead = (3 * d * d - d) // 2 + q_shift
    term = monomial(lead, d + z_shift, q_order)
    term = term * neg_zq_by_products(d - 1, q_order)
    q_d = [1] + [0] * q_order  # (q;q)_d, one factor (1 - q^k) at a time
    for k in range(1, d + 1):
        q_d[k:] = [a - b for a, b in zip(q_d[k:], q_d)]
    inverse = QSeries(q_order, q_d).invert()
    return term * ZQSeries(q_order, [inverse.coeffs])


# order 0, and orders that a term's lead just passes: at 8 the dimension-2
# category-Two term starts at q^9
TRUNCATIONS = [0, 7, 6, 8, 5, 12, 10, 26, 30]


class TestSteppedColumns:
    @pytest.mark.parametrize("q_order", TRUNCATIONS)
    def test_durfee_terms_match_inversion(self, q_order):
        last = 0
        for d, lead, columns in _durfee_terms(q_order):
            assert (d, lead) == (last + 1, (3 * d * d - d) // 2)
            assert [len(c) for c in columns] == [q_order - lead + 1] * d
            one = ZQSeries(q_order, [[]] * d + [[0] * lead + c for c in columns])
            shifted = [([0] * (lead + 2 * d) + c)[: q_order + 1] for c in columns]
            two = ZQSeries(q_order, [[]] * (d + 1) + shifted)
            assert one == durfee_term_by_inversion(d, 0, 0, q_order)
            assert two == durfee_term_by_inversion(d, 2 * d, 1, q_order)
            last = d
        zero = ZQSeries(q_order)
        for d in range(last + 1, last + 4):
            assert durfee_term_by_inversion(d, 0, 0, q_order) == zero
            assert durfee_term_by_inversion(d, 2 * d, 1, q_order) == zero

    @pytest.mark.parametrize("q_order", TRUNCATIONS)
    def test_neg_zq_matches_products(self, q_order):
        for n in (0, 1, 3, 7, 12):
            assert pochhammer_neg_zq(n, q_order) == neg_zq_by_products(n, q_order)


class TestFormat:
    def test_pentagonal_string(self):
        assert format_series(euler_product(0, 12)) == "1 - q - q^2 + q^5 + q^7 - q^12"

    def test_zero(self):
        assert format_series(QSeries(5)) == "0"

    def test_leading_negative_and_coefficients(self):
        assert format_series(QSeries(3, [-2, 1, 0, 3])) == "-2 + q + 3*q^3"

    def test_unit_exponent_one(self):
        assert format_series(QSeries(1, [0, -1])) == "-q"
