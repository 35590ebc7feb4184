import json
import re
import time

import pytest

import franklin.involution as involution
import franklin.partitions as partitions
import franklin.qseries as qseries
import franklin.verify as verify
from franklin.cli import run
from franklin.partitions import SignedMonomial
from franklin.verify import (
    check_durfee_decomposition,
    check_fixed_point_formula,
    check_general_formula,
    check_sylvester,
)

from faults import (
    KERNEL_FAULTS,
    coefficient_plus_one,
    counts_off,
    durfee_terms_off,
    everywhere,
    family_b_top_plus_one,
    install,
    points_replaced,
    sylvester_rhs_off,
    tallies_off,
    tau_counted_as_sigma,
    three_part_sigma_fixed,
    total_plus_one,
)


class TestGeneralFormula:
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_passes(self, m):
        start = time.perf_counter()
        report = check_general_formula(m, 120)
        wall = time.perf_counter() - start
        assert report.verdict == "Pass"
        assert report.first_mismatch is None
        assert report.params == {"m": m, "order": 120}
        assert 0 <= report.elapsed <= wall

    def test_fault_injection(self, monkeypatch):
        install(monkeypatch, [(verify, "rhs_general", coefficient_plus_one(7))])
        report = check_general_formula(0, 40)
        assert report.verdict == "Fail"
        assert report.first_mismatch["exponent"] == 7
        assert report.first_mismatch["lhs"] == report.first_mismatch["rhs"] - 1

    def test_euler_sum_fault(self, monkeypatch):
        # the knapsack and the closed form agree; the route expand prints does not
        install(monkeypatch, [(qseries, "_distinct_counts", counts_off(-1, 9))])
        report = check_general_formula(1, 40)
        assert report.verdict == "Fail"
        mismatch = report.first_mismatch
        assert (mismatch["lhsRoute"], mismatch["rhsRoute"]) == ("product", "euler-sum")
        assert mismatch["exponent"] == 9
        assert mismatch["rhs"] == mismatch["lhs"] + 1

    def test_euler_sum_fault_fails_the_cli(self, monkeypatch, capsys):
        real = qseries._distinct_counts

        def corrupted(m, order, sign=1):
            c = real(m, order, sign)
            if sign < 0:
                c[-1] -= 1
            return c

        monkeypatch.setattr(qseries, "_distinct_counts", corrupted)
        assert run(["verify", "--suite", "general", "--json"]) == 1
        reports = json.loads(capsys.readouterr().out)
        general = [r for r in reports if r["identity"] == "general-product-formula"]
        assert len(general) == 5
        assert all(r["firstMismatch"]["rhsRoute"] == "euler-sum" for r in general)
        assert all(r["verdict"] == "Pass" for r in reports if r not in general)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError, match="^m must be nonnegative$"):
            check_general_formula(-1, 10)
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            check_fixed_point_formula(0, -1)


class TestRouteErrors:
    """A ValueError that a route raises is a Fail (exit 1), not a usage error (exit 2)."""

    @staticmethod
    def corrupt_zq_step(monkeypatch):
        # a stray z power in the top column trips ZQSeries' own guard once shifted
        real = qseries._times_one_plus_zq

        def corrupted(columns, i):
            real(columns, i)
            columns[-1][0] += 1

        monkeypatch.setattr(qseries, "_times_one_plus_zq", corrupted)

    def test_zq_guard_is_a_fail(self, monkeypatch):
        self.corrupt_zq_step(monkeypatch)
        report = check_sylvester(12)
        assert report.verdict == "Fail"
        assert report.params == {"order": 12}
        assert report.first_mismatch == {"error": "nonzero z power above max_distinct_parts(12)"}

    @pytest.mark.parametrize("suite", ["sylvester", "durfee"])
    def test_zq_guard_exits_1(self, monkeypatch, capsys, suite):
        self.corrupt_zq_step(monkeypatch)
        assert run(["verify", "--suite", suite, "--json"]) == 1
        captured = capsys.readouterr()
        [report] = json.loads(captured.out)
        assert report["verdict"] == "Fail"
        assert "max_distinct_parts" in report["firstMismatch"]["error"]
        assert captured.err == ""

    def test_audit_error_is_a_fail(self, monkeypatch):
        def raising(m, max_size):
            raise ValueError("walk left the diagram")

        monkeypatch.setattr(verify, "orbit_audit", raising)
        report = verify.check_involution_laws(2, 10)
        assert report.verdict == "Fail"
        assert report.params == {"m": 2, "maxSize": 10}
        assert report.first_mismatch == {"error": "walk left the diagram"}
        with pytest.raises(ValueError, match="^max_size must be nonnegative$"):
            verify.check_involution_laws(2, -1)

    def test_usage_errors_still_exit_2(self, monkeypatch, capsys):
        self.corrupt_zq_step(monkeypatch)
        assert run(["verify", "--suite", "sylvester", "--m", "1"]) == 2
        assert run(["verify", "--suite", "sylvester", "--order", "-1"]) == 2
        assert capsys.readouterr().out == ""


class TestPartitionCountLaw:
    @staticmethod
    def corrupt_stats_counts(monkeypatch):
        """One too many partitions of the largest size, on the route behind `stats`."""
        install(monkeypatch, everywhere("_distinct_counts", counts_off(1, -1)))

    @pytest.mark.parametrize("suite", ["involution", "all"])
    def test_sign_plus_fault_exits_1(self, monkeypatch, capsys, suite):
        self.corrupt_stats_counts(monkeypatch)
        assert run(["verify", "--suite", suite, "--json"]) == 1
        reports = json.loads(capsys.readouterr().out)
        audits = [r for r in reports if r["identity"] == "involution-audit"]
        assert len(audits) == 5
        assert all(r["verdict"] == "Pass" for r in reports if r not in audits)
        for r in audits:
            total = r["params"]["maxSize"]
            counted = qseries._distinct_counts(r["params"]["m"], total)[total]
            assert r["firstMismatch"] == {
                "law": "partition-count",
                "size": total,
                "enumerated": counted - 1,
                "counted": counted,
            }

    def test_fault_is_the_one_stats_prints(self, monkeypatch, capsys):
        self.corrupt_stats_counts(monkeypatch)
        assert run(["stats", "--m", "0", "--max-size", "5"]) == 0
        assert run(["verify", "--suite", "involution", "--m", "0", "--max-size", "5"]) == 1
        out = capsys.readouterr().out
        assert "\n5 4 1 1 0 0 1\n" in out
        assert "law=partition-count size=5 enumerated=3 counted=4" in out


class TestFixedCountLaw:
    def test_parity_fault_is_reported_with_size_and_parity(self, monkeypatch, capsys):
        install(monkeypatch, [(involution, "_fixed_point_tallies", tallies_off(5, "odd"))])
        argv = ["verify", "--suite", "involution", "--m", "0", "--max-size", "8"]
        assert run(argv + ["--json"]) == 1
        [report] = json.loads(capsys.readouterr().out)
        assert report["firstMismatch"] == {
            "law": "fixed-count",
            "size": 5,
            "parity": "odd",
            "enumerated": 0,
            "counted": 1,
        }
        assert run(argv) == 1
        assert "law=fixed-count size=5 parity=odd enumerated=0 counted=1" in capsys.readouterr().out


class TestPairCountLaw:
    def test_moved_count_fault_names_size_and_both_counts(self, monkeypatch, capsys):
        tau_n, sigma_n, *_ = involution._audit_one(9, 1, [])
        install(monkeypatch, [(involution, "_audit_one", tau_counted_as_sigma(9))])
        argv = ["verify", "--suite", "involution", "--m", "1", "--max-size", "14", "--json"]
        assert run(argv) == 1
        [report] = json.loads(capsys.readouterr().out)
        assert report["firstMismatch"] == {
            "law": "pair-count",
            "size": 9,
            "tauMoved": tau_n - 1,
            "sigmaMoved": sigma_n + 1,
        }


class TestAuditTotalLaw:
    @pytest.mark.parametrize(
        "field,total,shift",
        [
            ("total_partitions", "totalPartitions", -1),
            ("fixed_count", "fixedCount", -1),
            ("paired_count", "pairedCount", -1),
            ("tau_moved", "tauMoved", -1),
            ("sigma_moved", "tauMoved", 1),  # tauMoved is held against sigmaMoved
        ],
    )
    def test_one_total_off_fails_only_the_audit(self, monkeypatch, capsys, field, total, shift):
        # shift: the count the law holds the named total against, less the total reported
        install(monkeypatch, [(verify, "orbit_audit", total_plus_one(field))])
        argv = ["verify", "--suite", "all", "--m", "1", "--order", "20", "--max-size", "16"]
        assert run(argv + ["--json"]) == 1
        failed = [r for r in json.loads(capsys.readouterr().out) if r["verdict"] == "Fail"]
        assert [r["identity"] for r in failed] == ["involution-audit"]
        reported = failed[0]["params"][total]
        assert failed[0]["firstMismatch"] == {
            "law": "audit-total",
            "total": total,
            "reported": reported,
            "counted": reported + shift,
        }


class TestFixedPointFormula:
    @pytest.mark.parametrize("m", [0, 2, 4])
    def test_passes(self, m):
        report = check_fixed_point_formula(m, 80)
        assert report.verdict == "Pass"

    def test_fault_injection(self, monkeypatch):
        real = verify._product_coeffs

        def corrupted(m, order, sign):
            c = real(m, order, sign)
            c[11] -= 2
            return c

        monkeypatch.setattr(verify, "_product_coeffs", corrupted)
        report = check_fixed_point_formula(1, 30)
        assert report.verdict == "Fail"
        assert report.first_mismatch["exponent"] == 11

    def test_point_off_its_weight_fails_only_this_check(self, monkeypatch, capsys):
        # the first family-B point, (2m + 2,), is listed as (2m + 3,) in its old box
        install(monkeypatch, [(verify, "_fixed_point_blocks", family_b_top_plus_one)])
        assert run(["verify", "--suite", "general", "--json"]) == 1
        reports = json.loads(capsys.readouterr().out)
        failed = [r for r in reports if r["verdict"] == "Fail"]
        assert [r["identity"] for r in failed] == ["fixed-point-formula"] * 5
        assert [r["firstMismatch"] for r in failed] == [
            {"law": "point-weight", "partition": str(2 * m + 3)} for m in range(5)
        ]

    @staticmethod
    def replaced(monkeypatch, points):
        install(monkeypatch, [(verify, "_fixed_point_blocks", points_replaced(points))])

    def test_moved_point_fails_the_guard_law(self, monkeypatch):
        # (7, 3) has the weight of (6, 4) at m = 1, but the walk finds a move for it
        self.replaced(monkeypatch, {(6, 4): [(7, 3)]})
        report = check_fixed_point_formula(1, 20)
        assert report.first_mismatch == {"law": "point-guard", "partition": "7,3"}

    def test_point_with_another_part_count_fails_the_weight_law(self, monkeypatch):
        # (5, 3, 2) has the size of (6, 4) at m = 1, but three parts in a two-part box
        self.replaced(monkeypatch, {(6, 4): [(5, 3, 2)]})
        report = check_fixed_point_formula(1, 20)
        assert report.first_mismatch == {"law": "point-weight", "partition": "5,3,2"}

    # the first point of the flipped boxes is reported; the empty partition as ()
    @pytest.mark.parametrize("flip_n,partition", [(2, "4,3"), (0, "()")])
    def test_box_of_the_other_sign_fails_the_weight_law(self, monkeypatch, flip_n, partition):
        real = verify._fixed_point_blocks

        def flipped(m, max_size):
            for n, w, box in real(m, max_size):
                yield n, SignedMonomial(-w.sign, w.exponent) if n == flip_n else w, box

        monkeypatch.setattr(verify, "_fixed_point_blocks", flipped)
        report = check_fixed_point_formula(1, 20)
        assert report.first_mismatch == {"law": "point-weight", "partition": partition}

    def test_repeated_point_fails_the_order_law(self, monkeypatch):
        self.replaced(monkeypatch, {(5, 4): [(5, 4), (5, 4)]})
        report = check_fixed_point_formula(1, 20)
        assert report.first_mismatch == {"law": "point-order", "partition": "5,4"}

    def test_points_out_of_lex_order_fail_the_order_law(self, monkeypatch):
        # at m = 2 both are fixed points of size 11 with two parts
        self.replaced(monkeypatch, {(6, 5): [(7, 4)], (7, 4): [(6, 5)]})
        report = check_fixed_point_formula(2, 20)
        assert report.first_mismatch == {"law": "point-order", "partition": "6,5"}


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
        install(monkeypatch, [(verify, "sylvester_sides", sylvester_rhs_off((1, 3)))])
        report = check_sylvester(8)
        assert report.verdict == "Fail"
        assert report.first_mismatch["qExponent"] == 3
        assert report.first_mismatch["zExponent"] == 1

    def test_durfee_term_fault(self, monkeypatch):
        install(monkeypatch, [(qseries, "_durfee_terms", durfee_terms_off(2, (2, 5)))])
        report = check_sylvester(8)
        assert report.verdict == "Fail"
        assert (report.first_mismatch["qExponent"], report.first_mismatch["zExponent"]) == (5, 2)

    def test_first_mismatch_scans_q_major(self, monkeypatch):
        # z q^4 and z^2 q^3 off: z^2 q^3 is first in q-major order, second in z-major
        install(monkeypatch, [(verify, "sylvester_sides", sylvester_rhs_off((1, 4), (2, 3)))])
        report = check_sylvester(8)
        assert report.verdict == "Fail"
        assert (report.first_mismatch["qExponent"], report.first_mismatch["zExponent"]) == (3, 2)

    def test_first_mismatch_takes_the_lower_z_power_at_one_q_power(self, monkeypatch):
        install(monkeypatch, [(verify, "sylvester_sides", sylvester_rhs_off((2, 5), (1, 5)))])
        mismatch = check_sylvester(8).first_mismatch
        assert (mismatch["qExponent"], mismatch["zExponent"]) == (5, 1)

    def test_sides_truncated_at_different_orders_are_a_fail(self, monkeypatch, capsys):
        real = verify.sylvester_sides
        monkeypatch.setattr(
            verify, "sylvester_sides", lambda q_order: (real(q_order)[0], real(q_order + 1)[1])
        )
        report = check_sylvester(8)
        assert report.verdict == "Fail"
        assert report.first_mismatch == {"error": "q orders differ: 8 vs 9"}
        assert run(["verify", "--suite", "sylvester"]) == 1
        out, err = capsys.readouterr()
        assert "[FAIL] sylvester order=35 " in out and out.endswith("0/1 checks passed\n")
        assert "first mismatch: error=q orders differ: 35 vs 36\n" in out and err == ""

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
        install(monkeypatch, [(verify, "_durfee_terms", durfee_terms_off(2, (2, 5)))])
        report = check_durfee_decomposition(14)
        assert report.verdict == "Fail"
        assert report.first_mismatch["dimension"] == 2

    def test_fault_at_dimension_six(self, monkeypatch, capsys):
        # the lowest size with Durfee dimension 6 is 51, so order 60 must reach it
        install(monkeypatch, [(verify, "_durfee_terms", durfee_terms_off(6, (6, 51)))])
        report = check_durfee_decomposition(60)
        assert report.verdict == "Fail"
        assert report.first_mismatch["dimension"] == 6
        assert (report.first_mismatch["qExponent"], report.first_mismatch["zExponent"]) == (51, 6)
        assert run(["verify", "--suite", "durfee", "--order", "60", "--json"]) == 1
        [cli_report] = json.loads(capsys.readouterr().out)
        assert cli_report["params"] == {"order": 60, "maxDimension": 6}
        assert cli_report["firstMismatch"]["dimension"] == 6

    def test_first_mismatch_scans_q_major(self, monkeypatch):
        # z^2 q^7 and z^3 q^6 off: a q-major scan meets z^3 q^6 first, a z-major scan z^2 q^7
        install(monkeypatch, [(verify, "_durfee_terms", durfee_terms_off(2, (2, 7), (3, 6)))])
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

    def test_empty_partition_is_written_as_parens(self, monkeypatch, capsys):
        real = involution._fixed_criterion  # a fault that rejects the empty partition
        monkeypatch.setattr(involution, "_fixed_criterion", lambda p, m: bool(p) and real(p, m))
        argv = ["verify", "--suite", "involution", "--m", "0", "--max-size", "3"]
        assert run([*argv, "--json"]) == 1
        [report] = json.loads(capsys.readouterr().out)
        assert report["firstMismatch"] == {"law": "fixed-criterion", "partition": "()"}
        assert run(argv) == 1
        line, total = capsys.readouterr().out.splitlines()
        assert line.endswith(" first mismatch: law=fixed-criterion partition=()")
        assert total == "0/1 checks passed"


class TestSuiteTable:
    """`_SUITES` against the module docstring and against `--suite all`."""

    FLAGS = {"m": 0, "order": 8, "max_size": 4}

    def reports(self):
        """Each suite's reports, run through its row of the table at tiny flags."""
        return {
            suite: list(checks(*(self.FLAGS[dest] for dest in flags)))
            for suite, (flags, checks) in verify._SUITES.items()
        }

    def test_docstring_names_the_suite_of_each_identity(self):
        ran = {(r.identity, suite) for suite, reports in self.reports().items() for r in reports}
        bullets = re.findall(r"^\* ([\w-]+): in suite (\w+),", verify.__doc__, re.M)
        assert len(bullets) == len(re.findall(r"^\* [\w-]+:", verify.__doc__, re.M))
        # each identity is one bullet, produced by the one suite that bullet names
        assert len({identity for identity, _ in bullets}) == len(bullets)
        assert set(bullets) == ran

    def test_suite_all_runs_the_suites_in_table_order(self, capsys):
        table = [(r.identity, r.params) for reports in self.reports().values() for r in reports]
        assert run(["verify", "--m", "0", "--order", "8", "--max-size", "4", "--json"]) == 0
        assert [(r["identity"], r["params"]) for r in json.loads(capsys.readouterr().out)] == table


_SUITE_ARGS = {
    "general": ["--m", "1", "--order", "20"],
    "sylvester": ["--order", "14"],
    "durfee": ["--order", "14"],
    "involution": ["--m", "1", "--max-size", "16"],
    "all": [],  # every suite at its defaults
}


class TestKernelFaultMatrix:
    """One fault per kernel: `verify` over the suites it feeds exits 1 on the named identities."""

    @pytest.fixture(autouse=True)
    def fresh_tail_memo(self):
        # the memo would keep tails that a faulty enumeration loop built
        partitions._tails.cache_clear()
        yield
        partitions._tails.cache_clear()

    @pytest.mark.parametrize("kernel", list(KERNEL_FAULTS))
    def test_fault_fails_the_named_identities(self, monkeypatch, capsys, kernel):
        patches, suites, failing = KERNEL_FAULTS[kernel]
        install(monkeypatch, patches)
        failed = {}
        for suite in suites:
            code = run(["verify", "--suite", suite, *_SUITE_ARGS[suite], "--json"])
            reports = json.loads(capsys.readouterr().out)
            fails = {r["identity"]: r["firstMismatch"].get("law") for r in reports if r["verdict"] == "Fail"}
            assert code == (1 if fails else 0)
            # each named identity fails in every suite run that checks it
            named = {r["identity"] for r in reports} & failing.keys()
            assert fails == {identity: failing[identity] for identity in named}
            failed |= fails
        assert failed == failing

    def test_decision_fault_is_what_involve_prints(self, monkeypatch, capsys):
        assert run(["involve", "--partition", "11,10,8", "--m", "1"]) == 0
        assert capsys.readouterr().out.startswith("case: SigmaMoved\n")
        install(monkeypatch, [(involution, "_move", three_part_sigma_fixed)])
        assert run(["involve", "--partition", "11,10,8", "--m", "1"]) == 0
        assert capsys.readouterr().out == "case: Fixed\nimage: 11,10,8\n"
