import importlib.util
import json
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import franklin.cli as cli
import franklin.partitions as partitions
from franklin.cli import run
from franklin.involution import cancellation_stats, enumerate_fixed_points, involute
from franklin.partitions import (
    DistinctPartition,
    SignedMonomial,
    format_partition,
    parse_partition,
)
from franklin.qseries import QSeries, _product_coeffs, format_series


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestExpand:
    def test_pentagonal(self, capsys):
        assert run(["expand", "--m", "0", "--order", "12"]) == 0
        out, _ = out_of(capsys)
        assert out == "1 - q - q^2 + q^5 + q^7 - q^12\n"

    def test_rhs_routes_agree(self, capsys):
        # the knapsack shares no Gaussian-binomial column with the closed forms
        knapsack = format_series(QSeries(30, _product_coeffs(2, 30, -1))) + "\n"
        for rhs in ([], ["--rhs", "general"], ["--rhs", "fixed"]):
            run(["expand", "--m", "2", "--order", "30"] + rhs)
            assert out_of(capsys) == (knapsack, ""), rhs

    def test_raw_coefficients(self, capsys):
        run(["expand", "--m", "0", "--order", "7", "--raw"])
        out, _ = out_of(capsys)
        assert out == "1,-1,-1,0,0,1,0,1\n"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "series.txt"
        assert run(["expand", "--m", "0", "--order", "5", "--out", str(target)]) == 0
        out, _ = out_of(capsys)
        assert out == ""
        assert target.read_text() == "1 - q - q^2 + q^5\n"

    def test_module_entry_point(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "franklin.cli", "expand", "--order", "5"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout == "1 - q - q^2 + q^5\n"


class TestStaircaseCmd:
    def test_description(self, capsys):
        assert run(["staircase", "--partition", "14,11,9,8,6", "--m", "3"]) == 0
        out, _ = out_of(capsys)
        assert "s_m = 7" in out
        assert "stairs = 4" in out
        assert "landings = 3" in out
        assert "cells = (1,14) (1,13) (1,12) (2,11) (2,10) (3,9) (4,8)" in out

    def test_render_flag(self, capsys):
        run(["staircase", "--partition", "5", "--m", "1", "--render"])
        out, _ = out_of(capsys)
        assert "[S]" in out

    def test_invalid_partition(self, capsys):
        assert run(["staircase", "--partition", "5,5", "--m", "0"]) == 2
        _, err = out_of(capsys)
        assert "error:" in err

    def test_part_not_above_m(self, capsys):
        assert run(["staircase", "--partition", "5,3", "--m", "3"]) == 2

    def test_underscored_part_rejected(self, capsys):
        # int() alone reads '1_0' as 10 and would draw the staircase of 10,2
        assert run(["staircase", "--partition", "1_0,2", "--m", "1"]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert "invalid part '1_0': not an integer" in err


class TestInvolveCmd:
    def test_sigma_case(self, capsys):
        assert run(["involve", "--partition", "11,10,8,5", "--m", "1"]) == 0
        out, _ = out_of(capsys)
        assert out == "case: SigmaMoved\nimage: 10,8,7,5,4\n"

    def test_fixed_case(self, capsys):
        run(["involve", "--partition", "9,7,6,5", "--m", "1"])
        out, _ = out_of(capsys)
        assert out == "case: Fixed\nimage: 9,7,6,5\n"

    def test_empty_partition(self, capsys):
        assert run(["involve", "--partition", "", "--m", "2"]) == 0
        out, _ = out_of(capsys)
        assert out == "case: Fixed\nimage: ()\n"

    def test_trace_shows_diagrams(self, capsys):
        run(["involve", "--partition", "11,10,8,5", "--m", "1", "--trace"])
        out, _ = out_of(capsys)
        assert "input (staircase marked):" in out
        assert "image (staircase marked):" in out
        assert "[S]" in out


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


class TestCommandsReachThePublicFunctions:
    """staircase and involve go through the names the benchmark's tracer wraps."""

    @pytest.fixture
    def spans(self):
        spec = importlib.util.spec_from_file_location("franklin_bench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            yield tracer.spans
        finally:
            tracing.uninstall(restore)

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["staircase", "--partition", "14,11,9,8,6", "--m", "3"], ["staircase.render"]),
            (
                ["staircase", "--partition", "14,11,9,8,6", "--m", "3", "--render"],
                ["staircase.render", "staircase.render"],
            ),
            (
                ["involve", "--partition", "11,10,8,5", "--m", "1", "--trace"],  # sigma
                ["involution.involute", "staircase.render", "staircase.render"],
            ),
            (
                ["involve", "--partition", "10,8,7,5,4", "--m", "1", "--trace"],  # tau
                ["involution.involute", "staircase.render", "staircase.render"],
            ),
            (
                ["involve", "--partition", "9,7,6,5", "--m", "1", "--trace"],  # fixed
                ["involution.involute", "staircase.render"],
            ),
        ],
    )
    def test_spans(self, spans, capsys, argv, names):
        # the tracer wraps the module's name, not the one bound by this file's import
        assert cli.run(argv) == 0
        assert [span[0] for span in spans] == ["cli.run", *names]
        assert all(span[3] == 0 for span in spans[1:])

    def test_verify_checks_are_spans_under_run(self, spans, capsys):
        # the suite table calls each check through the module global the tracer wraps
        assert cli.run(["verify", "--suite", "general", "--m", "0", "--order", "8"]) == 0
        assert spans[0][0] == "cli.run"
        assert [span[3] for span in spans if span[0] == "verify.check"] == [0, 0]


# (partition, m, involution case): single parts, walks that reach the top row
# (all of it for 1, 3 and 6,5,4), m = 0, and sigma- and tau-moved inputs
DIAGRAM_CASES = [
    ("5", 1, "SigmaMoved"),
    ("1", 0, "Fixed"),
    ("3", 2, "Fixed"),
    ("9,7,6,5", 1, "Fixed"),
    ("5,4,3", 0, "Fixed"),
    ("6,5,4", 3, "TauMoved"),
    ("7,4,2", 0, "SigmaMoved"),
    ("8,3", 0, "SigmaMoved"),
    ("11,10,8,5", 1, "SigmaMoved"),
    ("10,8,7,5,4", 1, "TauMoved"),
    ("12,9,4", 2, "TauMoved"),
]


class TestDiagramBytes:
    """Diagrams on stdout are the cell-by-cell reference, byte for byte."""

    @pytest.mark.parametrize("text, m, case", DIAGRAM_CASES)
    def test_staircase_render(self, capsys, reference_diagram, text, m, case):
        argv = ["staircase", "--partition", text, "--m", str(m)]
        assert run(argv) == 0
        header, _ = out_of(capsys)
        assert run(argv + ["--render"]) == 0
        assert out_of(capsys) == (header + reference_diagram(parse_partition(text), m) + "\n", "")

    @pytest.mark.parametrize("text, m, case", DIAGRAM_CASES)
    def test_involve_trace(self, capsys, reference_diagram, text, m, case):
        p = parse_partition(text)
        image = involute(p, m).image
        want = [f"case: {case}", f"image: {format_partition(image)}"]
        want += ["input (staircase marked):", reference_diagram(p, m)]
        if case != "Fixed":
            want += ["image (staircase marked):", reference_diagram(image, m)]
        assert run(["involve", "--partition", text, "--m", str(m), "--trace"]) == 0
        assert out_of(capsys) == ("\n".join(want) + "\n", "")


def fixed_points_text(points):
    return "".join(f"{w} {format_partition(p) or '()'}\n" for p, w in points)


def fixed_points_json(m, max_size, points):
    payload = {
        "m": m,
        "maxSize": max_size,
        "fixedPoints": [
            {"parts": list(p.parts), "size": w.exponent, "sign": w.sign} for p, w in points
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


class TestFixedPointsCmd:
    def test_text_stream(self, capsys):
        run(["fixed-points", "--m", "1", "--max-size", "4"])
        out, _ = out_of(capsys)
        assert out.splitlines() == ["+q^0 ()", "-q^2 2", "-q^3 3", "-q^4 4"]

    def test_json_schema(self, capsys):
        run(["fixed-points", "--m", "3", "--max-size", "50", "--json"])
        out, _ = out_of(capsys)
        payload = json.loads(out)
        assert payload["m"] == 3
        assert payload["maxSize"] == 50
        entries = {tuple(e["parts"]): e for e in payload["fixedPoints"]}
        assert entries[(14, 13, 12, 11)] == {
            "parts": [14, 13, 12, 11],
            "size": 50,
            "sign": 1,
        }
        assert entries[(12, 11, 10, 9, 8)]["sign"] == -1

    @pytest.mark.parametrize("m,max_size", [(0, 0), (0, 30), (3, 50), (10, 160), (6, 200)])
    def test_json_bytes_match_the_encoder(self, capsys, m, max_size):
        run(["fixed-points", "--m", str(m), "--max-size", str(max_size), "--json"])
        out, _ = out_of(capsys)
        # as lists of lines a mismatch reports its first row instead of diffing 1 MB
        want = fixed_points_json(m, max_size, enumerate_fixed_points(m, max_size))
        assert out.splitlines(keepends=True) == want.splitlines(keepends=True)

    @pytest.mark.parametrize("m,max_size", [(0, 0), (0, 30), (1, 4), (3, 50), (6, 200)])
    def test_text_bytes_match_the_reference(self, capsys, m, max_size):
        run(["fixed-points", "--m", str(m), "--max-size", str(max_size)])
        out, _ = out_of(capsys)
        # as lists of lines a mismatch reports its first row instead of diffing 200 kB
        want = fixed_points_text(enumerate_fixed_points(m, max_size))
        assert out.splitlines(keepends=True) == want.splitlines(keepends=True)

    def test_rows_follow_values_not_objects(self, monkeypatch, capsys):
        # hand-made boxes: one weight object shared by boxes of three part counts, empty
        # boxes first and between nonempty ones, then equal weights as distinct objects
        shared = SignedMonomial(1, 10)
        boxes = [
            (2, SignedMonomial(1, 7), []),
            (1, shared, [(10,)]),
            (2, shared, [(6, 4)]),
            (2, shared, []),
            (3, shared, [(5, 3, 2)]),
            (3, SignedMonomial(-1, 10), [(5, 4, 1)]),
            (3, SignedMonomial(-1, 10), [(7, 2, 1)]),
            (3, SignedMonomial(-1, 12), [(6, 4, 2)]),
            (0, SignedMonomial(1, 0), [()]),
            (2, SignedMonomial(1, 12), [(9, 3), (8, 4)]),
        ]
        stream = [(DistinctPartition(parts), w) for _, w, points in boxes for parts in points]
        monkeypatch.setattr(
            cli, "_fixed_point_blocks", lambda m, max_size: ((n, w, iter(p)) for n, w, p in boxes)
        )
        run(["fixed-points", "--m", "0", "--max-size", "12"])
        assert out_of(capsys) == (fixed_points_text(stream), "")
        run(["fixed-points", "--m", "0", "--max-size", "12", "--json"])
        assert out_of(capsys) == (fixed_points_json(0, 12, stream), "")

    @pytest.mark.parametrize("fmt, marker", [([], "\n"), (["--json"], '"sign"')])
    def test_writes_in_bounded_memory(self, monkeypatch, fmt, marker):
        # rows go out one at a time: joining the largest box (900 points) would hold
        # about 110 kB as text and 360 kB as JSON
        class Discard:
            """Counts the rows it is sent by a marker each row holds once, keeps nothing."""

            rows = 0

            def write(self, text):
                self.rows += text.count(marker)
                return len(text)

            def writelines(self, lines):
                for text in lines:
                    self.write(text)

        argv = ["fixed-points", "--m", "10", "--max-size", "200", *fmt]
        monkeypatch.setattr(sys, "stdout", Discard())
        assert run(argv) == 0  # warms CPython's free lists and the parser cache
        monkeypatch.setattr(sys, "stdout", sink := Discard())
        tracemalloc.start()
        try:
            code = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.rows == 50550
        assert peak < 2**16

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, fmt):
        argv = ["fixed-points", "--m", "3", "--max-size", "50"] + fmt
        assert run(argv) == 0
        stdout, _ = out_of(capsys)
        target = tmp_path / "points.txt"
        assert run(argv + ["--out", str(target)]) == 0
        assert out_of(capsys) == ("", "")
        assert target.read_text(encoding="utf-8") == stdout

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_bad_m_writes_nothing(self, capsys, fmt):
        assert run(["fixed-points", "--m", "-1", "--max-size", "5"] + fmt) == 2
        assert out_of(capsys) == ("", "error: argument --m: must be nonnegative\n")

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_negative_max_size_writes_nothing(self, capsys, fmt):
        # like stats, expand and verify: a negative size is an input error, not an empty listing
        assert run(["fixed-points", "--m", "3", "--max-size", "-1"] + fmt) == 2
        assert out_of(capsys) == ("", "error: argument --max-size: must be nonnegative\n")


class TestStatsCmd:
    def test_json_headline_statistics(self, capsys):
        run(["stats", "--m", "10", "--max-size", "250", "--json"])
        out, _ = out_of(capsys)
        row = json.loads(out)["perSize"][250]
        assert row["size"] == 250
        assert row["partitions"] == "31571191"
        assert row["fixed"] == 3537
        assert row["fixedPositive"] == 47

    def test_json_matches_published_numbers(self, capsys):
        run(["stats", "--m", "3", "--max-size", "50", "--json"])
        out, _ = out_of(capsys)
        payload = json.loads(out)
        assert payload["m"] == 3
        row = payload["perSize"][50]
        assert row["size"] == 50
        assert row["partitions"] == "628"
        assert row["fixed"] == 2
        assert row["fixedPositive"] == 1
        assert row["fixedNegative"] == 1
        assert row["residual"] == 1
        assert row["productCoefficient"] == "0"

    @pytest.mark.parametrize("m,max_size", [(0, 0), (0, 30), (3, 50), (10, 160)])
    def test_json_bytes_match_the_encoder(self, capsys, m, max_size):
        payload = {
            "m": m,
            "maxSize": max_size,
            "perSize": [
                {
                    "size": row.size,
                    "partitions": str(row.partitions),
                    "fixed": row.fixed,
                    "fixedPositive": row.fixed_positive,
                    "fixedNegative": row.fixed_negative,
                    "residual": row.residual,
                    "productCoefficient": str(row.product_coefficient),
                }
                for row in cancellation_stats(m, max_size)
            ],
        }
        run(["stats", "--m", str(m), "--max-size", str(max_size), "--json"])
        out, _ = out_of(capsys)
        # as lists of lines a mismatch reports its first row instead of diffing the table
        want = json.dumps(payload, indent=2) + "\n"
        assert out.splitlines(keepends=True) == want.splitlines(keepends=True)

    def test_text_table(self, capsys):
        run(["stats", "--m", "0", "--max-size", "5"])
        out, _ = out_of(capsys)
        lines = out.splitlines()
        assert lines[0] == "size partitions fixed fixed+ fixed- residual coefficient"
        assert lines[1] == "0 1 1 1 0 0 1"
        assert lines[6] == "5 3 1 1 0 0 1"

    @pytest.mark.parametrize("m,max_size", [(0, 0), (3, 50), (10, 250), (6, 300), (0, 1500)])
    def test_text_bytes_match_the_reference(self, capsys, m, max_size):
        run(["stats", "--m", str(m), "--max-size", str(max_size)])
        out, _ = out_of(capsys)
        header = "size partitions fixed fixed+ fixed- residual coefficient"
        want = [header] + [" ".join(map(str, row)) for row in cancellation_stats(m, max_size)]
        assert out.splitlines(keepends=True) == [line + "\n" for line in want]


class TestVerifyCmd:
    def test_small_general_suite(self, capsys):
        code = run(["verify", "--suite", "general", "--m", "1", "--order", "60"])
        out, _ = out_of(capsys)
        assert code == 0
        assert "[PASS] general-product-formula m=1 order=60" in out
        assert "[PASS] fixed-point-formula m=1 order=60" in out
        assert "2/2 checks passed" in out

    def test_involution_suite(self, capsys):
        code = run(["verify", "--suite", "involution", "--m", "0", "--max-size", "20"])
        assert code == 0
        out, _ = out_of(capsys)
        assert "involution-audit" in out

    def test_order_zero_is_honoured(self, capsys):
        code = run(["verify", "--suite", "general", "--m", "0", "--order", "0", "--json"])
        assert code == 0
        payload = json.loads(out_of(capsys)[0])
        assert [r["params"]["order"] for r in payload] == [0, 0]

    def test_max_size_zero_is_honoured(self, capsys):
        code = run(["verify", "--suite", "involution", "--m", "2", "--max-size", "0", "--json"])
        assert code == 0
        payload = json.loads(out_of(capsys)[0])
        assert payload[0]["params"]["maxSize"] == 0
        assert payload[0]["params"]["totalPartitions"] == 1

    def test_involution_audit_is_timed(self, capsys):
        start = time.perf_counter()
        assert run(["verify", "--suite", "involution", "--json"]) == 0
        wall = time.perf_counter() - start
        payload = json.loads(out_of(capsys)[0])
        assert len(payload) == 5
        assert all(0 < r["elapsedSeconds"] <= wall for r in payload)
        assert sum(r["elapsedSeconds"] for r in payload) <= wall

    def test_involution_default_reaches_the_enumerators_deep_levels(self, capsys):
        # a level with more than _TAIL left to fill enumerates without the memo; the
        # first size where such a level can leave exactly its own part is 2 * (_TAIL + 1)
        assert run(["verify", "--suite", "involution", "--json"]) == 0
        payload = json.loads(out_of(capsys)[0])
        assert len(payload) == 5
        assert all(r["params"]["maxSize"] >= 2 * (partitions._TAIL + 1) for r in payload)

    def test_involution_audit_counts_moves(self, capsys):
        assert run(["verify", "--suite", "involution", "--max-size", "20", "--json"]) == 0
        for r in json.loads(out_of(capsys)[0]):
            p = r["params"]
            assert p["tauMoved"] == p["sigmaMoved"] == p["pairedCount"] // 2

    def test_involution_fault_fails(self, capsys, monkeypatch):
        import franklin.involution as involution

        real = involution._tau_tuple

        def corrupted(parts, m):
            image = real(parts, m)
            return (image[0] + 1,) + image[1:]

        monkeypatch.setattr(involution, "_tau_tuple", corrupted)
        code = run(["verify", "--suite", "involution", "--m", "0", "--max-size", "10", "--json"])
        assert code == 1
        [report] = json.loads(out_of(capsys)[0])
        assert report["verdict"] == "Fail"
        # (3,) is the first sigma-moved partition: tau of its image (2, 1) must give it back
        assert report["firstMismatch"] == {"law": "tau-sigma-roundtrip", "partition": "3"}

    def test_negative_durfee_order_exits_2(self, capsys):
        assert run(["verify", "--suite", "durfee", "--order", "-3"]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err == "error: argument --order: must be nonnegative\n"

    def test_negative_sylvester_order_exits_2(self, capsys):
        assert run(["verify", "--suite", "sylvester", "--order", "-1"]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err == "error: argument --order: must be nonnegative\n"

    @pytest.fixture
    def checks_raise(self, monkeypatch):
        def never(*args):
            raise AssertionError("a check ran")

        for check in ("check_general_formula", "check_fixed_point_formula", "check_sylvester",
                      "check_durfee_decomposition", "check_involution_laws"):
            monkeypatch.setattr(cli, check, never)

    @pytest.mark.parametrize(
        "suite,flag",
        [
            ("involution", "--order"),
            ("general", "--max-size"),
            ("sylvester", "--max-size"),
            ("durfee", "--max-size"),
            ("sylvester", "--m"),
            ("durfee", "--m"),
        ],
    )
    def test_flag_the_suite_does_not_read_exits_2(self, capsys, checks_raise, suite, flag):
        assert run(["verify", "--suite", suite, flag, "1"]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err == f"error: {flag} does not apply to --suite {suite}\n"

    def test_flag_the_suite_does_not_read_leaves_out_untouched(self, tmp_path, capsys, checks_raise):
        target = tmp_path / "kept.txt"
        target.write_text("old\n")
        assert run(["verify", "--suite", "durfee", "--max-size", "5", "--out", str(target)]) == 2
        assert out_of(capsys) == ("", "error: --max-size does not apply to --suite durfee\n")
        assert target.read_text() == "old\n"

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--max-size", "-1"], "--max-size"),
            # several negative flags: the first in argv order is named
            (["--suite", "general", "--m", "-1", "--order", "-2"], "--m"),
            (["--suite", "general", "--order", "-2", "--m", "-1"], "--order"),
            (["--m", "-1", "--order", "-2", "--max-size", "-3", "--json"], "--m"),
            # the sign is refused before the pairing
            (["--suite", "durfee", "--m", "-1"], "--m"),
        ],
    )
    def test_negative_flag_is_refused_before_any_check(self, capsys, checks_raise, argv, flag):
        assert run(["verify", *argv]) == 2
        assert out_of(capsys) == ("", f"error: argument {flag}: must be nonnegative\n")

    def test_every_suite_choice_has_one_row(self):
        [commands] = [a for a in cli._build_parser()._actions if a.dest == "command"]
        [suite] = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
        assert suite.choices == ("all", "general", "sylvester", "durfee", "involution")
        assert tuple(cli._SUITES) == suite.choices[1:]
        for flags, _ in cli._SUITES.values():
            assert set(flags) <= set(cli._INTEGER_FLAGS)

    def test_text_lines_are_written_as_each_check_finishes(self, capsys, monkeypatch):
        real, seen = cli.check_involution_laws, []

        def audit(m, max_size):
            seen.append(capsys.readouterr().out)
            return real(m, max_size)

        monkeypatch.setattr(cli, "check_involution_laws", audit)
        argv = ["verify", "--m", "0", "--order", "8", "--max-size", "4"]
        assert run(argv) == 0
        assert [line.split()[1] for line in seen[0].splitlines()] == [
            "general-product-formula",
            "fixed-point-formula",
            "sylvester",
            "durfee-decomposition",
        ]
        rest = out_of(capsys)[0].splitlines()
        assert rest[0].startswith("[PASS] involution-audit m=0 maxSize=4 ")
        assert rest[1:] == ["5/5 checks passed"]
        # the JSON list is written once, after the last check
        assert run(argv + ["--json"]) == 0
        assert seen[1] == ""

    def test_suite_all_takes_every_flag(self, capsys):
        code = run(["verify", "--m", "1", "--order", "8", "--max-size", "6", "--json"])
        assert code == 0
        payload = json.loads(out_of(capsys)[0])
        assert [(r["identity"], r["params"].get("m")) for r in payload] == [
            ("general-product-formula", 1),
            ("fixed-point-formula", 1),
            ("sylvester", None),
            ("durfee-decomposition", None),
            ("involution-audit", 1),
        ]
        assert [r["params"].get("order", r["params"].get("maxSize")) for r in payload] == [8] * 4 + [6]

    def test_json_reports(self, capsys):
        code = run(
            ["verify", "--suite", "sylvester", "--order", "12", "--json"]
        )
        assert code == 0
        out, _ = out_of(capsys)
        payload = json.loads(out)
        assert payload[0]["identity"] == "sylvester"
        assert payload[0]["verdict"] == "Pass"
        assert payload[0]["firstMismatch"] is None

    def test_failure_exit_code(self, capsys, monkeypatch):
        import franklin.verify as verify

        real = verify.rhs_general

        def corrupted(m, order):
            series = real(m, order)
            series.coeffs[3] += 1
            return series

        monkeypatch.setattr(cli, "check_general_formula", lambda m, order: verify.check_general_formula(m, order))
        monkeypatch.setattr(verify, "rhs_general", corrupted)
        code = run(["verify", "--suite", "general", "--m", "0", "--order", "20"])
        out, _ = out_of(capsys)
        assert code == 1
        assert "[FAIL]" in out


# a valid argv per command, the command word left out
VALID = {
    "expand": ["--order", "5"],
    "staircase": ["--partition", "3"],
    "involve": ["--partition", "3"],
    "fixed-points": ["--max-size", "5"],
    "stats": ["--max-size", "5"],
    "verify": ["--suite", "sylvester"],
}


def _refusals():
    """(argv, the flag or token its error line names): every flag of every command."""
    # each row adds one bad flag to a VALID argv or drops one
    [commands] = [a for a in cli._build_parser()._actions if a.dest == "command"]
    rows = [([], "command"), (["bogus"], "'bogus'")]
    for name, parser in commands.choices.items():
        base = [name, *VALID[name]]
        rows.append((base + ["--bogus"], "--bogus"))
        for action in parser._actions:
            flag = action.option_strings[-1]
            if flag == "--help":
                continue
            if action.required:
                at = base.index(flag)
                rows.append((base[:at] + base[at + 2:], flag))
            if action.type is cli._integer:
                rows += [(base + [flag, "-1"], flag), (base + [flag, "1_0"], flag)]
            elif action.choices:
                rows.append((base + [flag, "nope"], flag))
            elif action.nargs == 0:
                rows.append((base + [flag + "=1"], flag))
            else:
                rows.append((base + [flag], flag))  # its value left out
        if "--partition" in base:
            # a part is refused by the library, which names the token
            rows += [([name, "--partition", t], t) for t in ("-3", "1_0")]
            rows.append(([name, "--partition", "9" * 5000], "'99999999999999999999… (5000 characters)"))
    return rows


class TestUsageErrors:
    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        def exhausted(args, out):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "expand", exhausted)
        code = run(["expand", "--m", "0", "--order", "5"])
        out, err = out_of(capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "general", "--m", "0", "--order", "99999999999999999999"],
            ["verify", "--suite", "sylvester", "--order", "99999999999999999999"],
            ["verify", "--suite", "durfee", "--order", "99999999999999999999"],
            ["verify", "--suite", "involution", "--max-size", "99999999999999999999"],
            ["staircase", "--partition", "99999999999999999999", "--m", "0", "--render"],
            ["involve", "--partition", "99999999999999999999", "--m", "0", "--trace"],
        ],
    )
    def test_value_past_an_index_exits_2(self, capsys, argv):
        # a list or string of that length cannot exist: OverflowError, not MemoryError
        code = run(argv)
        out, err = out_of(capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: out of memory running {argv[0]}; a size, order or part is too large\n"

    @pytest.mark.parametrize(
        "argv,kernel",
        [
            (["expand", "--order", "5"], "euler_product"),
            (["fixed-points", "--max-size", "5"], "_fixed_point_blocks"),
            (["stats", "--max-size", "5", "--json"], "cancellation_stats"),
            (["verify", "--suite", "sylvester"], "check_sylvester"),
        ],
    )
    def test_out_path_is_checked_before_the_work(
        self, tmp_path, capsys, monkeypatch, argv, kernel
    ):
        def never(*args):
            raise AssertionError(f"{kernel} ran before --out was opened")

        monkeypatch.setattr(cli, kernel, never)
        monkeypatch.chdir(tmp_path)
        assert run(argv + ["--out", "missing/x.txt"]) == 2
        assert out_of(capsys) == ("", "error: cannot write missing/x.txt: No such file or directory\n")

    def test_long_out_path_keeps_the_reason(self, tmp_path, capsys, monkeypatch):
        # 13 + 5000 + 20 characters: the cut keeps the path's head and the whole reason
        monkeypatch.chdir(tmp_path)
        assert run(["expand", "--m", "0", "--order", "5", "--out", "x" * 5000]) == 2
        line = f"error: cannot write {'x' * 107}…{'x' * 20}: File name too long (5033 characters)\n"
        assert out_of(capsys) == ("", line)

    @pytest.mark.parametrize("stderr_closed", [False, True], ids=["stdout", "stdout+stderr"])
    def test_closed_stdout_ends_the_run_quietly(self, stderr_closed):
        # about 1 MB of rows: the writer fills the pipe and meets the closed end
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "franklin.cli", "stats", "--m", "0", "--max-size", "10000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": src},
        )
        with proc:
            assert proc.stdout.readline().startswith(b"size partitions ")
            proc.stdout.close()
            if stderr_closed:
                proc.stderr.close()
            else:
                assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 2

    def test_empty_out_path_is_not_stdout(self, capsys):
        assert run(["expand", "--m", "0", "--order", "5", "--out", ""]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: cannot write : ")

    def test_failure_after_out_opened_leaves_it_empty(self, tmp_path, capsys):
        # the part is checked against --m by the command, after --out is opened
        target = tmp_path / "staircase.txt"
        target.write_text("old\n")
        assert run(["staircase", "--partition", "2", "--m", "3", "--out", str(target)]) == 2
        assert out_of(capsys) == ("", "error: all parts must exceed m=3, got (2,)\n")
        assert target.read_text() == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fixed-points", "--m", "-1", "--max-size", "5"],
            ["expand", "--order", "1_0"],
        ],
    )
    def test_refused_flag_leaves_out_untouched(self, tmp_path, capsys, argv):
        target = tmp_path / "kept.txt"
        target.write_text("old\n")
        assert run(argv + ["--out", str(target)]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: argument ")
        assert target.read_text() == "old\n"

    # one argv per integer option, "X" standing for the value under test
    INTEGER_FLAGS = [
        ["expand", "--m", "X", "--order", "5"],
        ["expand", "--m", "0", "--order", "X"],
        ["fixed-points", "--m", "0", "--max-size", "X"],
        ["stats", "--m", "0", "--max-size", "X"],
        ["verify", "--suite", "general", "--m", "X", "--order", "5"],
        ["verify", "--suite", "general", "--m", "0", "--order", "X"],
        ["verify", "--suite", "involution", "--m", "0", "--max-size", "X"],
    ]
    FLAG_IDS = [a[0] + a[a.index("X") - 1] for a in INTEGER_FLAGS]

    @pytest.mark.parametrize(
        "token",
        # int() alone reads '1_0' as 10 and Arabic-Indic '\u0663' as 3, and refuses
        # 5000 digits with a hint about sys.set_int_max_str_digits()
        ["1_0", "\u0663", " 3_", "0x3", "3.0", "", pytest.param("9" * 5000, id="5000-digits")],
    )
    @pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=FLAG_IDS)
    def test_integer_flag_takes_only_ascii_digits(self, capsys, argv, token):
        flag = argv[argv.index("X") - 1]
        # a long token is echoed as its first 20 characters and its length
        shown = repr(token) if len(token) <= 20 else f"'{token[:20]}… ({len(token)} characters)"
        assert run([token if a == "X" else a for a in argv]) == 2
        assert out_of(capsys) == ("", f"error: argument {flag}: invalid integer {shown}\n")

    @pytest.mark.parametrize(
        # digits; a printable two-byte digit; an unprintable character whose repr takes 10
        "token", ["9" * 5000, "\u0663" * 5000, "\U000e0001" * 5000], ids=["digits", "arabic", "tag"]
    )
    @pytest.mark.parametrize(
        "argv",
        INTEGER_FLAGS + [["staircase", "--partition", "X"], ["involve", "--partition", "3,X"]],
        ids=FLAG_IDS + ["staircase--partition", "involve--partition"],
    )
    def test_refusal_of_a_long_token_is_short(self, capsys, argv, token):
        assert run([a.replace("X", token) for a in argv]) == 2
        out, err = out_of(capsys)
        assert out == "" and err.count("\n") == 1
        assert "… (5000 characters)" in err and len(err.encode()) < 200, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["staircase", "--partition", ",".join(map(str, range(1, 3000))), "--m", "0"],
            ["staircase", "--partition", "5", "--m", "9" * 4000],
            ["verify", "--suite", "9" * 5000],
            ["expand", "--m", "0", "--order", "5", "--rhs", "a" * 5000],
            ["expand", "--m", "0", "--order", "5", "9" * 5000],
            ["expand", "--m", "0", "--order", "5", "--out", "PATH"],
        ],
        ids=["partition", "m", "suite", "rhs", "extra-argument", "out"],
    )
    def test_refusal_of_a_long_input_is_short(self, capsys, tmp_path, argv):
        # the head names the flag or command, the tail ends the message, then its length
        argv = [str(tmp_path / ("x" * 5000)) if a == "PATH" else a for a in argv]
        assert run(argv) == 2
        out, err = out_of(capsys)
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
        assert re.search(r"…[^…]+ \(\d+ characters\)\n$", err) and len(err.encode()) < 200, err

    @pytest.mark.parametrize(
        "message,shown",
        [
            ("a" * 191, "a" * 191),  # a 199-byte line is written whole
            ("a" * 192, "a" * 120 + "…" + "a" * 40 + " (192 characters)"),
            ("é" * 5000, "é" * 60 + "…" + "é" * 20 + " (5000 characters)"),
            # a cut never splits a character: 120 bytes hold "a" and 39 three-byte ones, 40 hold 13
            ("a" + "€" * 5000, "a" + "€" * 39 + "…" + "€" * 13 + " (5001 characters)"),
            # an undecodable argv byte arrives as a lone surrogate; the cut shows it escaped
            ("\udcff" * 5000, "\\udcff" * 20 + "…dcff" + "\\udcff" * 6 + " (5000 characters)"),
        ],
        ids=["199-bytes", "200-bytes", "two-byte", "three-byte", "surrogate"],
    )
    def test_every_refusal_line_is_under_200_bytes(self, capsys, monkeypatch, message, shown):
        def refuse(args, out):
            raise ValueError(message)

        monkeypatch.setitem(cli._HANDLERS, "expand", refuse)
        assert run(["expand", "--m", "0", "--order", "5"]) == 2
        assert out_of(capsys) == ("", f"error: {shown}\n")

    @pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=FLAG_IDS)
    def test_integer_flag_keeps_sign_and_zero(self, argv):
        flag = argv[argv.index("X") - 1]
        dest = flag.lstrip("-").replace("-", "_")
        for token, value in (("0", 0), ("+3", 3), ("-0", 0), (" 7 ", 7)):
            args = cli._build_parser().parse_args([token if a == "X" else a for a in argv])
            assert getattr(args, dest) == value
        with pytest.raises(ValueError, match=f"^argument {flag}: must be nonnegative$"):
            cli._build_parser().parse_args(["-2" if a == "X" else a for a in argv])

    @pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=FLAG_IDS)
    def test_integer_flag_takes_as_many_digits_as_int_reads(self, argv):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 4300 by default
        if not limit:
            pytest.skip("int() reads any number of digits")
        flag = argv[argv.index("X") - 1]
        dest = flag.lstrip("-").replace("-", "_")
        args = cli._build_parser().parse_args(["9" * limit if a == "X" else a for a in argv])
        assert getattr(args, dest) == 10**limit - 1
        token = "9" * (limit + 1)
        with pytest.raises(ValueError) as refused:
            cli._build_parser().parse_args([token if a == "X" else a for a in argv])
        shown = f"'{token[:20]}… ({limit + 1} characters)"
        assert str(refused.value) == f"argument {flag}: invalid integer {shown}"

    @pytest.mark.parametrize(
        "argv,stdout",
        [
            (["expand", "--m", "9" * 700, "--order", "5"], "1\n"),
            (["stats", "--m", "9" * 700, "--max-size", "1"],
             "size partitions fixed fixed+ fixed- residual coefficient\n0 1 1 1 0 0 1\n1 0 0 0 0 0 0\n"),
        ],
        ids=["expand", "stats"],
    )
    def test_long_m_runs(self, capsys, argv, stdout):
        assert run(argv) == 0
        assert out_of(capsys) == (stdout, "")

    def test_unknown_flag(self, capsys):
        assert run(["expand", "--m", "0", "--order", "5", "--bogus"]) == 2
        assert out_of(capsys) == ("", "error: unrecognized arguments: --bogus\n")

    def test_unknown_command(self, capsys):
        assert run(["bogus"]) == 2
        out, err = out_of(capsys)
        assert out == ""
        # the list of choices is worded differently across Python versions
        assert err.startswith("error: argument command: invalid choice: 'bogus' (choose from ")
        assert err.count("\n") == 1 and err.endswith(")\n")

    def test_missing_required(self, capsys):
        assert run(["expand", "--m", "0"]) == 2
        assert out_of(capsys) == ("", "error: the following arguments are required: --order\n")

    REFUSALS = _refusals()
    REFUSAL_IDS = [
        " ".join(["franklin", *(a if len(a) < 99 else f"<{len(a)} digits>" for a in argv)])
        for argv, _ in REFUSALS
    ]

    @pytest.mark.parametrize("argv,named", REFUSALS, ids=REFUSAL_IDS)
    def test_every_refusal_is_one_error_line(self, capsys, argv, named):
        assert run(argv) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "usage:" not in err
        # named whole: '--m' must not pass on a line that names only '--max-size'
        assert re.search(rf"(?<![\w-]){re.escape(named)}(?![\w-])", err), err

    @pytest.mark.parametrize(
        "argv",
        # the rows that refuse --out itself have no file to keep
        [pytest.param(argv, id=i) for (argv, named), i in zip(REFUSALS, REFUSAL_IDS) if named != "--out"],
    )
    def test_every_refusal_leaves_out_untouched(self, capsys, tmp_path, argv):
        target = tmp_path / "kept.txt"
        target.write_bytes(b"old\n")
        assert run(argv + ["--out", str(target)]) == 2
        assert out_of(capsys)[0] == ""
        assert target.read_bytes() == b"old\n"


class TestDispatch:
    """A command word goes straight to its own parser; anything else to the top-level one."""

    class Reached(Exception):
        pass

    def refuse_top_level(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise self.Reached

        parser = cli._build_parser()
        monkeypatch.setattr(parser, "parse_args", refuse)
        monkeypatch.setattr(parser, "parse_known_args", refuse)

    @pytest.mark.parametrize("name", VALID)
    def test_a_command_skips_the_top_level_parser(self, capsys, monkeypatch, name):
        argv = [name, *VALID[name]]
        want = run(argv), out_of(capsys)
        self.refuse_top_level(monkeypatch)
        assert (run(argv), out_of(capsys)) == want
        assert want[0] == 0

    @pytest.mark.parametrize("argv", [[], ["bogus"]])
    def test_no_command_or_an_unknown_one_reaches_the_top_level_parser(self, monkeypatch, argv):
        self.refuse_top_level(monkeypatch)
        with pytest.raises(self.Reached):
            run(argv)

    @staticmethod
    def printed(capsys, argv):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse's help
            code = exc.code
        return code, out_of(capsys)

    # where a command's own parser could part from the top-level one: "--" after the
    # command word, which argparse's releases treat differently, combined short flags,
    # help after a flag, a stray positional (the golden corpus holds the stable cases)
    @pytest.mark.parametrize(
        "argv",
        [
            ["staircase", "--partition", "3", "--"],
            ["staircase", "--", "--partition", "3"],
            ["staircase", "--partition", "3", "--", "x"],
            ["expand", "--order", "5", "--", "--raw"],
            ["staircase", "-hx"],
            ["staircase", "--partition", "-3"],
            ["expand", "--order", "5", "-h"],
            ["expand", "--order", "5", "x"],
            ["--", "staircase", "--partition", "3"],
        ],
    )
    def test_a_command_word_prints_what_the_top_level_parser_prints(
        self, capsys, monkeypatch, argv
    ):
        got = self.printed(capsys, argv)
        monkeypatch.setattr(cli._build_parser(), "commands", {})  # every argv to the top level
        assert self.printed(capsys, argv) == got

    def test_run_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["franklin"])
        assert run() == 2
        assert out_of(capsys) == ("", "error: the following arguments are required: command\n")
        argv = ["franklin", "staircase", "--partition", "5,3,1", "--render"]
        assert run(argv[1:]) == 0
        want = out_of(capsys)
        monkeypatch.setattr(sys, "argv", argv)
        self.refuse_top_level(monkeypatch)  # sys.argv's command word is dispatched too
        assert run() == 0
        assert out_of(capsys) == want
