import pytest

import franklin.qseries as qseries
import franklin.verify as verify
from franklin.qseries import rhs_general
from franklin.verify import (
    check_durfee_decomposition,
    check_fixed_point_formula,
    check_general_formula,
    check_sylvester,
)


real_durfee_terms = qseries._durfee_terms


def corrupted_durfee_terms(q_order, z_degree):
    """The shared Durfee terms with the dimension-2 category-One term off by z^2 q^5."""
    for d, one, two in real_durfee_terms(q_order, z_degree):
        if d == 2:
            one.columns[2][5] += 1
        yield d, one, two


def durfee_terms_off_at_two_cells(q_order, z_degree):
    """The shared Durfee terms with the dimension-2 category-One term off at z^2 q^7 and z^3 q^6.

    A q-major scan meets z^3 q^6 first, a z-major scan z^2 q^7.
    """
    for d, one, two in real_durfee_terms(q_order, z_degree):
        if d == 2:
            one.columns[2][7] += 1
            one.columns[3][6] += 1
        yield d, one, two


class TestGeneralFormula:
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_passes(self, m):
        report = check_general_formula(m, 120)
        assert report.verdict == "Pass"
        assert report.first_mismatch is None
        assert report.params == {"m": m, "order": 120}
        assert report.elapsed >= 0

    def test_fault_injection(self, monkeypatch):
        def corrupted(m, order):
            series = rhs_general(m, order)
            series.coeffs[7] += 1
            return series

        monkeypatch.setattr(verify, "rhs_general", corrupted)
        report = check_general_formula(0, 40)
        assert report.verdict == "Fail"
        assert report.first_mismatch["exponent"] == 7
        assert report.first_mismatch["lhs"] == report.first_mismatch["rhs"] - 1


class TestFixedPointFormula:
    @pytest.mark.parametrize("m", [0, 2, 4])
    def test_passes(self, m):
        report = check_fixed_point_formula(m, 80)
        assert report.verdict == "Pass"

    def test_fault_injection(self, monkeypatch):
        real = verify.euler_product

        def corrupted(m, order):
            series = real(m, order)
            series.coeffs[11] -= 2
            return series

        monkeypatch.setattr(verify, "euler_product", corrupted)
        report = check_fixed_point_formula(1, 30)
        assert report.verdict == "Fail"
        assert report.first_mismatch["exponent"] == 11


class TestSylvester:
    def test_passes(self):
        report = check_sylvester(20, 20)
        assert report.verdict == "Pass"

    def test_degenerate_grids(self):
        assert check_sylvester(10, 1).verdict == "Pass"
        assert check_sylvester(10, 0).verdict == "Pass"
        assert check_sylvester(0, 10).verdict == "Pass"

    def test_fault_injection(self, monkeypatch):
        real = verify.sylvester_sides

        def corrupted(q_order, z_degree):
            lhs, rhs = real(q_order, z_degree)
            rhs.columns[1][3] += 1
            return lhs, rhs

        monkeypatch.setattr(verify, "sylvester_sides", corrupted)
        report = check_sylvester(8, 8)
        assert report.verdict == "Fail"
        assert report.first_mismatch["qExponent"] == 3
        assert report.first_mismatch["zExponent"] == 1

    def test_durfee_term_fault(self, monkeypatch):
        monkeypatch.setattr(qseries, "_durfee_terms", corrupted_durfee_terms)
        report = check_sylvester(8, 8)
        assert report.verdict == "Fail"
        assert (report.first_mismatch["qExponent"], report.first_mismatch["zExponent"]) == (5, 2)

    def test_first_mismatch_scans_q_major(self, monkeypatch):
        real = verify.sylvester_sides

        def corrupted(q_order, z_degree):
            lhs, rhs = real(q_order, z_degree)
            rhs.columns[1][4] += 1  # z q^4
            rhs.columns[2][3] += 1  # z^2 q^3: first in q-major order, second in z-major
            return lhs, rhs

        monkeypatch.setattr(verify, "sylvester_sides", corrupted)
        report = check_sylvester(8, 8)
        assert report.verdict == "Fail"
        assert (report.first_mismatch["qExponent"], report.first_mismatch["zExponent"]) == (3, 2)

    @pytest.mark.parametrize("q_order,z_degree", [(10, -1), (-3, 5)])
    def test_negative_arguments_rejected(self, q_order, z_degree):
        with pytest.raises(ValueError, match="^q_order and z_degree must be nonnegative$"):
            check_sylvester(q_order, z_degree)


class TestDurfee:
    def test_passes(self):
        report = check_durfee_decomposition(24, 5)
        assert report.verdict == "Pass"
        assert report.params == {"order": 24, "maxDimension": 5}

    def test_dimension_zero_only(self):
        assert check_durfee_decomposition(10, 0).verdict == "Pass"

    def test_fault_injection(self, monkeypatch):
        monkeypatch.setattr(verify, "_durfee_terms", corrupted_durfee_terms)
        report = check_durfee_decomposition(14, 3)
        assert report.verdict == "Fail"
        assert report.first_mismatch["dimension"] == 2

    def test_first_mismatch_scans_q_major(self, monkeypatch):
        monkeypatch.setattr(verify, "_durfee_terms", durfee_terms_off_at_two_cells)
        report = check_durfee_decomposition(14, 3)
        assert report.verdict == "Fail"
        mismatch = report.first_mismatch
        assert (mismatch["dimension"], mismatch["category"]) == (2, "One")
        assert (mismatch["qExponent"], mismatch["zExponent"]) == (6, 3)

    @pytest.mark.parametrize("order,max_dimension", [(10, -1), (-3, 5)])
    def test_negative_arguments_rejected(self, order, max_dimension):
        with pytest.raises(ValueError, match="^order and max_dimension must be nonnegative$"):
            check_durfee_decomposition(order, max_dimension)


class TestReportShape:
    def test_summary_lines(self):
        passing = check_sylvester(6, 6)
        assert passing.summary().startswith("[PASS] sylvester")
        failing = verify.VerificationReport(
            identity="sylvester",
            params={"order": 6},
            verdict="Fail",
            first_mismatch={"qExponent": 1, "lhs": 0, "rhs": 2},
            elapsed=0.5,
        )
        line = failing.summary()
        assert line.startswith("[FAIL] sylvester order=6")
        assert "first mismatch" in line
        assert not failing.passed
