import json

import pytest

import franklin.qseries as qseries
import franklin.verify as verify
from franklin.cli import run
from franklin.qseries import rhs_general
from franklin.verify import (
    check_durfee_decomposition,
    check_fixed_point_formula,
    check_general_formula,
    check_sylvester,
)


real_durfee_terms = qseries._durfee_terms


def corrupted_durfee_terms(q_order):
    """The shared Durfee terms with the dimension-2 category-One term off by z^2 q^5."""
    for d, one, two in real_durfee_terms(q_order):
        if d == 2:
            one.columns[2][5] += 1
        yield d, one, two


def durfee_terms_off_at_two_cells(q_order):
    """The shared Durfee terms with the dimension-2 category-One term off at z^2 q^7 and z^3 q^6.

    A q-major scan meets z^3 q^6 first, a z-major scan z^2 q^7.
    """
    for d, one, two in real_durfee_terms(q_order):
        if d == 2:
            one.columns[2][7] += 1
            one.columns[3][6] += 1
        yield d, one, two


def durfee_terms_off_at_six(q_order):
    """The shared Durfee terms with the dimension-6 category-One term off by z^6 q^51."""
    for d, one, two in real_durfee_terms(q_order):
        if d == 6:
            one.columns[6][51] += 1
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
        real = verify._knapsack_product

        def corrupted(m, order):
            series = real(m, order)
            series.coeffs[11] -= 2
            return series

        monkeypatch.setattr(verify, "_knapsack_product", corrupted)
        report = check_fixed_point_formula(1, 30)
        assert report.verdict == "Fail"
        assert report.first_mismatch["exponent"] == 11


class TestSylvester:
    def test_passes(self):
        report = check_sylvester(20)
        assert report.verdict == "Pass"
        assert report.params == {"order": 20}

    def test_degenerate_grids(self):
        assert check_sylvester(0).verdict == "Pass"
        assert check_sylvester(1).verdict == "Pass"
        assert check_sylvester(2).verdict == "Pass"

    def test_fault_injection(self, monkeypatch):
        real = verify.sylvester_sides

        def corrupted(q_order):
            lhs, rhs = real(q_order)
            rhs.columns[1][3] += 1
            return lhs, rhs

        monkeypatch.setattr(verify, "sylvester_sides", corrupted)
        report = check_sylvester(8)
        assert report.verdict == "Fail"
        assert report.first_mismatch["qExponent"] == 3
        assert report.first_mismatch["zExponent"] == 1

    def test_durfee_term_fault(self, monkeypatch):
        monkeypatch.setattr(qseries, "_durfee_terms", corrupted_durfee_terms)
        report = check_sylvester(8)
        assert report.verdict == "Fail"
        assert (report.first_mismatch["qExponent"], report.first_mismatch["zExponent"]) == (5, 2)

    def test_first_mismatch_scans_q_major(self, monkeypatch):
        real = verify.sylvester_sides

        def corrupted(q_order):
            lhs, rhs = real(q_order)
            rhs.columns[1][4] += 1  # z q^4
            rhs.columns[2][3] += 1  # z^2 q^3: first in q-major order, second in z-major
            return lhs, rhs

        monkeypatch.setattr(verify, "sylvester_sides", corrupted)
        report = check_sylvester(8)
        assert report.verdict == "Fail"
        assert (report.first_mismatch["qExponent"], report.first_mismatch["zExponent"]) == (3, 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^q_order must be nonnegative$"):
            check_sylvester(-3)


class TestDurfee:
    def test_passes(self):
        report = check_durfee_decomposition(24)
        assert report.verdict == "Pass"
        assert report.params == {"order": 24, "maxDimension": 4}

    def test_dimension_zero_only(self):
        report = check_durfee_decomposition(0)
        assert report.verdict == "Pass"
        assert report.params == {"order": 0, "maxDimension": 0}

    def test_fault_injection(self, monkeypatch):
        monkeypatch.setattr(verify, "_durfee_terms", corrupted_durfee_terms)
        report = check_durfee_decomposition(14)
        assert report.verdict == "Fail"
        assert report.first_mismatch["dimension"] == 2

    def test_fault_at_dimension_six(self, monkeypatch, capsys):
        # the lowest size with Durfee dimension 6 is 51, so order 60 must reach it
        monkeypatch.setattr(verify, "_durfee_terms", durfee_terms_off_at_six)
        report = check_durfee_decomposition(60)
        assert report.verdict == "Fail"
        assert report.first_mismatch["dimension"] == 6
        assert (report.first_mismatch["qExponent"], report.first_mismatch["zExponent"]) == (51, 6)
        assert run(["verify", "--suite", "durfee", "--order", "60", "--json"]) == 1
        [cli_report] = json.loads(capsys.readouterr().out)
        assert cli_report["params"] == {"order": 60, "maxDimension": 6}
        assert cli_report["firstMismatch"]["dimension"] == 6

    def test_first_mismatch_scans_q_major(self, monkeypatch):
        monkeypatch.setattr(verify, "_durfee_terms", durfee_terms_off_at_two_cells)
        report = check_durfee_decomposition(14)
        assert report.verdict == "Fail"
        mismatch = report.first_mismatch
        assert (mismatch["dimension"], mismatch["category"]) == (2, "One")
        assert (mismatch["qExponent"], mismatch["zExponent"]) == (6, 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            check_durfee_decomposition(-3)


class TestReportShape:
    def test_summary_lines(self):
        passing = check_sylvester(6)
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
