"""The six value types are NamedTuples: same fields, reprs and construction as before.

Each repr below is the exact string the earlier dataclass printed.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from franklin.involution import AuditReport, InvolutionCase, InvolutionResult, involute, orbit_audit
from franklin.partitions import DistinctPartition, DurfeeCategory, DurfeeInfo, SignedMonomial, durfee
from franklin.staircase import Cell, Staircase, staircase
from franklin.verify import VerificationReport

SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "SignedMonomial": (
        SignedMonomial,
        (-1, 12),
        "SignedMonomial(sign=-1, exponent=12)",
    ),
    "DurfeeInfo": (
        DurfeeInfo,
        (2, DurfeeCategory.TWO),
        "DurfeeInfo(dimension=2, category=<DurfeeCategory.TWO: 'Two'>)",
    ),
    "Staircase": (
        Staircase,
        ((Cell(1, 7), Cell(1, 6), Cell(2, 5)), (1,), 2, 3),
        "Staircase(cells=(Cell(row=1, col=7), Cell(row=1, col=6), Cell(row=2, col=5)),"
        " landing_rows=(1,), stair_count=2, length=3)",
    ),
    "InvolutionResult": (
        InvolutionResult,
        (DistinctPartition((9, 5)), InvolutionCase.TAU_MOVED),
        "InvolutionResult(image=DistinctPartition([9, 5]),"
        " case=<InvolutionCase.TAU_MOVED: 'TauMoved'>)",
    ),
    "AuditReport": (
        AuditReport,
        (1, (0, 10), 24, 16, 8, 8, 8, []),
        "AuditReport(m=1, size_range=(0, 10), total_partitions=24, paired_count=16,"
        " fixed_count=8, tau_moved=8, sigma_moved=8, violations=[])",
    ),
    "VerificationReport": (
        VerificationReport,
        ("sylvester", {"order": 6}, "Fail", {"qExponent": 1}, 0.5),
        "VerificationReport(identity='sylvester', params={'order': 6}, verdict='Fail',"
        " first_mismatch={'qExponent': 1}, elapsed=0.5)",
    ),
}
FIELDS = {
    SignedMonomial: ("sign", "exponent"),
    DurfeeInfo: ("dimension", "category"),
    Staircase: ("cells", "landing_rows", "stair_count", "length"),
    InvolutionResult: ("image", "case"),
    AuditReport: (
        "m",
        "size_range",
        "total_partitions",
        "paired_count",
        "fixed_count",
        "tau_moved",
        "sigma_moved",
        "violations",
    ),
    VerificationReport: ("identity", "params", "verdict", "first_mismatch", "elapsed"),
}
# a list or dict field makes the value unhashable, as the unfrozen dataclasses were
UNHASHABLE = {AuditReport, VerificationReport}


@pytest.mark.parametrize("name", sorted(CASES))
class TestValueType:
    def test_fields_in_order(self, name):
        cls, _, _ = CASES[name]
        assert cls._fields == FIELDS[cls]

    def test_repr_is_pinned(self, name):
        cls, args, text = CASES[name]
        assert repr(cls(*args)) == text

    def test_positional_and_keyword_construction_agree(self, name):
        cls, args, _ = CASES[name]
        value = cls(*args)
        assert cls(**dict(zip(cls._fields, args))) == value
        assert tuple(value) == args
        assert [getattr(value, f) for f in cls._fields] == list(args)
        assert len(value) == len(cls._fields)

    def test_equality_and_hash(self, name):
        cls, args, _ = CASES[name]
        value, twin = cls(*args), cls(*args)
        assert value == twin and value == args
        assert not value != twin
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(twin) == hash(args)

    def test_fields_are_read_only(self, name):
        cls, args, _ = CASES[name]
        value = cls(*args)
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, args[0])


def test_library_results_match_the_pinned_reprs():
    assert repr(durfee(DistinctPartition((5, 3, 2)))) == CASES["DurfeeInfo"][2]
    assert repr(staircase(DistinctPartition((7, 5, 2)), 1)) == CASES["Staircase"][2]
    assert repr(involute(DistinctPartition((7, 5, 2)), 1)) == CASES["InvolutionResult"][2]
    assert repr(orbit_audit(1, 10)) == CASES["AuditReport"][2]


def test_staircase_length_is_a_field_not_len():
    walk = staircase(DistinctPartition((14, 11, 9, 8, 6)), 3)
    assert walk.length == 7
    assert len(walk) == 4


def test_verification_report_defaults_and_methods():
    report = VerificationReport("sylvester", {"order": 6}, "Pass")
    assert (report.first_mismatch, report.elapsed) == (None, 0.0)
    assert report.passed
    assert report.summary() == "[PASS] sylvester order=6 (0.00s)"
    failing = VerificationReport(*CASES["VerificationReport"][1])
    assert not failing.passed
    assert failing.summary() == "[FAIL] sylvester order=6 (0.50s) first mismatch: qExponent=1"


def test_audit_report_violations_are_required():
    with pytest.raises(TypeError):
        AuditReport(1, (0, 10), 24, 16, 8, 8, 8)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, franklin.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
