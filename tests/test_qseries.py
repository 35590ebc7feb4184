from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franklin.partitions import count_distinct_signed, enumerate_distinct
from franklin.qseries import (
    NonUnitConstantTerm,
    _durfee_terms,
    _gauss_step,
    QSeries,
    TruncationMismatch,
    ZQSeries,
    euler_product,
    fixed_point_polynomial,
    format_series,
    gauss_binomial,
    max_distinct_parts,
    pochhammer_neg_zq,
    pochhammer_q,
    rhs_fixed_points,
    rhs_general,
    sylvester_sides,
)

ORDER = 24


def qs(*coeffs, order=ORDER):
    return QSeries(order, coeffs)


small_series = st.builds(
    lambda c: QSeries(ORDER, c), st.lists(st.integers(-9, 9), max_size=ORDER + 1)
)


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
        assert (qs(1, -1) * geometric) == QSeries.one(ORDER)

    def test_invert_geometric(self):
        assert QSeries(4, [1, -1]).invert() == QSeries(4, [1, 1, 1, 1, 1])

    def test_invert_alternating(self):
        assert QSeries(3, [1, 1]).invert() == QSeries(3, [1, -1, 1, -1])

    def test_invert_requires_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            qs(2, 1).invert()

    def test_order_mismatch(self):
        with pytest.raises(TruncationMismatch):
            QSeries(3, [1]) * QSeries(4, [1])
        with pytest.raises(TruncationMismatch):
            QSeries(3, [1]) + QSeries(4, [1])

    def test_shift_and_monomial(self):
        assert qs(1, 2).shift(3) == QSeries(ORDER, [0, 0, 0, 1, 2])
        assert QSeries.monomial(5, 2, 4) == QSeries(4, [0, 0, 5])

    def test_shift_past_order_is_zero(self):
        assert QSeries(3, [1, 2]).shift(4) == QSeries.zero(3)
        assert QSeries(3, [1, 2]).shift(9) == QSeries.zero(3)

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError):
            QSeries(1, [1, 2, 3])

    @given(small_series, small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_series)
    @settings(max_examples=60, deadline=None)
    def test_invert_is_right_inverse(self, a):
        a.coeffs[0] = 1  # force a unit
        assert a * a.invert() == QSeries.one(ORDER)


class TestEulerProduct:
    def test_pentagonal_to_twelve(self):
        assert euler_product(0, 12).coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]

    def test_empty_product(self):
        assert euler_product(9, 6) == QSeries.one(6)
        assert euler_product(6, 6) == QSeries.one(6)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_signed_dp(self, m):
        table = count_distinct_signed(m, 60)
        assert euler_product(m, 60).coeffs == [signed for _, signed in table]


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


class TestPochhammer:
    def test_q_two(self):
        assert pochhammer_q(2, 3) == QSeries(3, [1, -1, -1, 1])

    def test_q_zero(self):
        assert pochhammer_q(0, 5) == QSeries.one(5)

    def test_constant_terms(self):
        for n in range(8):
            assert pochhammer_q(n, 10).coeffs[0] == 1

    def test_neg_zq_one(self):
        got = pochhammer_neg_zq(1, 3, 2)
        assert got == (
            ZQSeries.one(3, 2) + ZQSeries.monomial(1, 1, 1, 3, 2)
        )


class TestZQSeries:
    def test_mismatch_rejected(self):
        with pytest.raises(TruncationMismatch):
            ZQSeries.one(2, 3) * ZQSeries.one(3, 3)

    def test_z_slice(self):
        s = pochhammer_neg_zq(3, 6, 3)
        assert s.z_slice(0) == QSeries.one(6)
        # z-linear slice of (1+zq)(1+zq^2)(1+zq^3) is q + q^2 + q^3
        assert s.z_slice(1) == QSeries(6, [0, 1, 1, 1])

    def test_eval_z_at_monomial(self):
        # (1 + zq)(1 + zq^2) at z = -q: (1 - q^2)(1 - q^3)
        s = pochhammer_neg_zq(2, 8, 8)
        got = s.eval_z_at_monomial(-1, 1)
        expected = QSeries(8, [1, 0, -1, -1, 0, 1])
        assert got == expected


class TestRhsGeneral:
    def test_pentagonal_case(self):
        assert rhs_general(0, 300) == euler_product(0, 300)

    def test_m1_is_pentagonal_divided_by_one_minus_q(self):
        # cross-multiplied: (1 - q) * rhs_general(1, N) = pentagonal series
        lhs = QSeries(40, [1, -1]) * rhs_general(1, 40)
        assert lhs == euler_product(0, 40)

    @pytest.mark.parametrize("m", range(6))
    def test_constant_term(self, m):
        assert rhs_general(m, 10).coeffs[0] == 1

    @pytest.mark.parametrize("m", range(5))
    def test_matches_product(self, m):
        assert rhs_general(m, 80) == euler_product(m, 80)

    def test_series_workload_orders(self):
        # the last terms are cut by the truncation, lead + n*m > order
        assert rhs_general(30, 2000) == euler_product(30, 2000)
        assert rhs_fixed_points(20, 2000) == euler_product(20, 2000)


class TestFixedPointClosedForms:
    def test_n2_m1_polynomial(self):
        # weight sign is (+1)^n for n = 2, exponents 7..11
        got = fixed_point_polynomial(2, 1)
        assert got == QSeries(11, [0] * 7 + [1, 1, 1, 1, 1])

    def test_n0_is_one(self):
        assert fixed_point_polynomial(0, 4) == QSeries(0, [1])

    def test_n1_m0(self):
        # fixed points (1) and (2), one part each: -q - q^2
        assert fixed_point_polynomial(1, 0) == QSeries(2, [0, -1, -1])

    @pytest.mark.parametrize("m", range(5))
    def test_sum_equals_product(self, m):
        assert rhs_fixed_points(m, 70) == euler_product(m, 70)


class TestSylvester:
    def test_z_degree_zero(self):
        lhs, rhs = sylvester_sides(10, 0)
        assert lhs == ZQSeries.one(10, 0)
        assert rhs == ZQSeries.one(10, 0)

    def test_z_linear_slice(self):
        lhs, rhs = sylvester_sides(12, 1)
        expected = QSeries(12, [0] + [1] * 12)
        assert lhs.z_slice(1) == expected
        assert rhs.z_slice(1) == expected

    def test_two_parts_of_five(self):
        lhs, rhs = sylvester_sides(8, 4)
        assert lhs.coeff(5, 2) == 2  # (4,1) and (3,2)
        assert rhs.coeff(5, 2) == 2

    def test_sides_agree(self):
        lhs, rhs = sylvester_sides(30, 30)
        assert lhs == rhs

    def test_lhs_counts_distinct_partitions(self):
        cap = 30
        lhs, _ = sylvester_sides(cap, max_distinct_parts(cap))
        for size in range(cap + 1):
            by_parts = {}
            for p in enumerate_distinct(size, 0):
                by_parts[p.n] = by_parts.get(p.n, 0) + 1
            for k in range(lhs.z_degree + 1):
                assert lhs.coeff(size, k) == by_parts.get(k, 0)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_substitution_recovers_product(self, m):
        # (1 + z) * lhs at z = -q^(m+1) telescopes to the product over parts > m
        order = 30
        lhs, _ = sylvester_sides(order, order)
        one_plus_z = ZQSeries.one(order, order) + ZQSeries.monomial(1, 0, 1, order, order)
        collapsed = (one_plus_z * lhs).eval_z_at_monomial(-1, m + 1)
        assert collapsed == euler_product(m, order)


def neg_zq_by_products(n, q_order, z_degree):
    """(-zq)_n multiplied out one (1 + z q^i) at a time with ZQSeries.__mul__."""
    acc = ZQSeries.one(q_order, z_degree)
    for i in range(1, n + 1):
        acc = acc * (ZQSeries.one(q_order, z_degree) + ZQSeries.monomial(1, i, 1, q_order, z_degree))
    return acc


def durfee_term_by_inversion(d, q_shift, z_shift, q_order, z_degree):
    """z^{d+z_shift} q^{(3d^2-d)/2+q_shift} (-zq)_{d-1} times the series inverse of (q)_d."""
    lead = (3 * d * d - d) // 2 + q_shift
    term = ZQSeries.monomial(1, lead, d + z_shift, q_order, z_degree)
    term = term * neg_zq_by_products(d - 1, q_order, z_degree)
    inverse = pochhammer_q(d, q_order).invert()
    return term * ZQSeries(q_order, z_degree, [[c] + [0] * z_degree for c in inverse.coeffs])


# order 0, z degree 0, z degree past max_distinct_parts(order), and leads past
# the order: at (8, 8) the dimension-2 category-Two term starts at q^9
TRUNCATIONS = [(0, 0), (0, 4), (7, 0), (6, 1), (8, 8), (5, 10), (12, 2), (10, 10), (26, 26), (30, 6)]


class TestSteppedColumns:
    @pytest.mark.parametrize("q_order,z_degree", TRUNCATIONS)
    def test_durfee_terms_match_inversion(self, q_order, z_degree):
        terms = list(_durfee_terms(q_order, z_degree))
        last = len(terms)
        assert [d for d, _, _ in terms] == list(range(1, last + 1))
        for d, one, two in terms:
            assert one == durfee_term_by_inversion(d, 0, 0, q_order, z_degree)
            assert two == durfee_term_by_inversion(d, 2 * d, 1, q_order, z_degree)
        zero = ZQSeries(q_order, z_degree)
        for d in range(last + 1, last + 4):
            assert durfee_term_by_inversion(d, 0, 0, q_order, z_degree) == zero
            assert durfee_term_by_inversion(d, 2 * d, 1, q_order, z_degree) == zero

    @pytest.mark.parametrize("q_order,z_degree", TRUNCATIONS)
    def test_neg_zq_matches_products(self, q_order, z_degree):
        for n in (0, 1, 3, 7, 12):
            assert pochhammer_neg_zq(n, q_order, z_degree) == neg_zq_by_products(n, q_order, z_degree)


class TestFormat:
    def test_pentagonal_string(self):
        assert format_series(euler_product(0, 12)) == "1 - q - q^2 + q^5 + q^7 - q^12"

    def test_zero(self):
        assert format_series(QSeries.zero(5)) == "0"

    def test_leading_negative_and_coefficients(self):
        assert format_series(QSeries(3, [-2, 1, 0, 3])) == "-2 + q + 3*q^3"

    def test_unit_exponent_one(self):
        assert format_series(QSeries(1, [0, -1])) == "-q"
