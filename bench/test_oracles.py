"""The benchmark's own tests: each oracle accepts the program's real output
and rejects a deliberately corrupted copy.  Run with

    python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import random
from pathlib import Path

import pytest

import oracles
import run
import tracing
import workloads

cli = run.load_cli()


def output(argv: list[str]) -> str:
    code, text, _ = run.run_command(cli, argv)
    assert code == 0, argv
    return text


def rerun(argv: list[str]) -> tuple[int, str]:
    code, text, _ = run.run_command(cli, argv)
    return code, text


def distinct_partitions(total: int, lo: int, count: int | None = None):
    """Brute force: partitions of total into distinct parts >= lo, largest first."""
    if total == 0:
        if count in (None, 0):
            yield ()
        return
    for part in range(lo, total + 1):
        for rest in distinct_partitions(total - part, part + 1, None if count is None else count - 1):
            yield rest + (part,)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_distinct_counts_match_brute_force(m):
    assert oracles.distinct_counts(m, 30) == [
        sum(1 for _ in distinct_partitions(n, m + 1)) for n in range(31)
    ]


def test_pentagonal_is_the_m0_product():
    assert oracles.pentagonal(12) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


# --- expand -----------------------------------------------------------------


@pytest.mark.parametrize("rhs", [[], ["--rhs", "general"], ["--rhs", "fixed"]])
def test_expand_oracle_rejects_a_flipped_coefficient(rhs):
    text = output(["expand", "--m", "3", "--order", "80", "--raw", *rhs])
    assert oracles.check_expand_raw(text, 3, 80) == []
    coeffs = text.strip().split(",")
    k = max(i for i, c in enumerate(coeffs) if c != "0")
    coeffs[k] = str(-int(coeffs[k]))
    assert oracles.check_expand_raw(",".join(coeffs), 3, 80)
    assert oracles.check_expand_raw(text, 3, 79)


# --- verify -----------------------------------------------------------------


AUDIT = ["verify", "--suite", "involution", "--m", "2", "--max-size", "24", "--json"]


def _audit_corruptions():
    def total_off(p):
        p["totalPartitions"] += 2
        p["fixedCount"] += 2

    def odd_pairs(p):
        p["pairedCount"] += 1
        p["fixedCount"] -= 1

    def lost_partition(p):
        p["fixedCount"] -= 1

    return [total_off, odd_pairs, lost_partition]


@pytest.mark.parametrize("corrupt", _audit_corruptions())
def test_audit_oracle_rejects_wrong_counts(corrupt):
    text = output(AUDIT)
    assert oracles.check_audit(text, [2], 24) == []
    reports = json.loads(text)
    corrupt(reports[0]["params"])
    assert oracles.check_audit(json.dumps(reports), [2], 24)


def test_verify_oracle_rejects_a_failed_check():
    text = output(["verify", "--suite", "sylvester", "--order", "12", "--json"])
    expected = [("sylvester", {"order": 12})]
    assert oracles.check_verify(text, expected) == []
    reports = json.loads(text)
    reports[0]["verdict"] = "Fail"
    assert oracles.check_verify(json.dumps(reports), expected)
    assert oracles.check_verify(text, [("sylvester", {"order": 13})])
    assert oracles.check_verify("[]", expected)


# --- stats ------------------------------------------------------------------


def _stats_corruptions():
    def partitions_off(rows):
        rows[100]["partitions"] = str(int(rows[100]["partitions"]) + 1)

    def published_row_off(rows):
        rows[250]["partitions"] = str(int(rows[250]["partitions"]) - 1)

    def signs_swapped(rows):
        r = rows[250]
        r["fixedPositive"], r["fixedNegative"] = r["fixedNegative"], r["fixedPositive"]

    def coefficient_flipped(rows):
        r = rows[200]
        r["fixedPositive"], r["fixedNegative"] = r["fixedNegative"], r["fixedPositive"]
        r["productCoefficient"] = str(-int(r["productCoefficient"]))

    return [partitions_off, published_row_off, signs_swapped, coefficient_flipped]


@pytest.fixture(scope="module")
def stats_m10():
    return output(["stats", "--m", "10", "--max-size", "250", "--json"])


def test_stats_oracle_accepts_the_published_row(stats_m10):
    assert oracles.check_stats(stats_m10, 10, 250) == []


@pytest.mark.parametrize("corrupt", _stats_corruptions())
def test_stats_oracle_rejects_corrupted_rows(stats_m10, corrupt):
    payload = json.loads(stats_m10)
    corrupt(payload["perSize"])
    assert oracles.check_stats(json.dumps(payload), 10, 250)


# --- fixed-points -----------------------------------------------------------


M, MAX_SIZE = 2, 45


@pytest.fixture(scope="module")
def fixed_points():
    payload = json.loads(output(["fixed-points", "--m", str(M), "--max-size", str(MAX_SIZE), "--json"]))
    return [(tuple(p["parts"]), p["size"], p["sign"]) for p in payload["fixedPoints"]]


def _not_fixed_like(parts):
    """Another partition with the same size and part count, not in box form."""
    for candidate in distinct_partitions(sum(parts), M + 1, len(parts)):
        if not oracles.in_box_form(candidate, M):
            return candidate
    raise AssertionError("no non-fixed partition of that shape")


def _fixed_point_corruptions():
    def dropped(points):
        del points[len(points) // 2]

    def duplicated(points):
        points.append(points[-1])

    def sign_flipped(points):
        parts, size, sign = points[5]
        points[5] = (parts, size, -sign)

    def size_misstated(points):
        parts, size, sign = points[5]
        points[5] = (parts, size + 1, sign)

    def not_a_fixed_point(points):
        i = max(i for i, (p, _, _) in enumerate(points) if len(p) == 3)
        parts, size, sign = points[i]
        points[i] = (_not_fixed_like(parts), size, sign)

    return [dropped, duplicated, sign_flipped, size_misstated, not_a_fixed_point]


def test_fixed_points_oracle_accepts_real_listings(fixed_points):
    assert oracles.check_fixed_points(fixed_points, M, MAX_SIZE) == []
    text = output(["fixed-points", "--m", str(M), "--max-size", str(MAX_SIZE)])
    assert oracles.check_fixed_points_text(text, M, MAX_SIZE) == []


@pytest.mark.parametrize("corrupt", _fixed_point_corruptions())
def test_fixed_points_oracle_rejects_corrupted_listings(fixed_points, corrupt):
    points = list(fixed_points)
    corrupt(points)
    assert oracles.check_fixed_points(points, M, MAX_SIZE)


def test_fixed_points_text_oracle_rejects_a_dropped_line():
    lines = output(["fixed-points", "--m", str(M), "--max-size", str(MAX_SIZE)]).splitlines()
    del lines[len(lines) // 2]
    assert oracles.check_fixed_points_text("\n".join(lines) + "\n", M, MAX_SIZE)


# --- staircase and involve --------------------------------------------------


def _staircase_text(parts, m):
    return output(["staircase", "--partition", ",".join(map(str, parts)), "--m", str(m), "--render"])


def _staircase_corruptions():
    def length_off(text):
        line = next(x for x in text.splitlines() if x.startswith("s_m = "))
        return text.replace(line, f"s_m = {int(line[6:]) + 1}")

    def cell_unmarked(text):
        i = text.rindex("[")
        return text[:i] + " " + text[i + 1 : i + 2] + " " + text[i + 3 :]

    def cell_dropped(text):
        line = next(x for x in text.splitlines() if x.startswith("cells = "))
        return text.replace(line, line.rsplit(" ", 1)[0])

    return [length_off, cell_unmarked, cell_dropped]


@pytest.mark.parametrize("corrupt", _staircase_corruptions())
def test_staircase_oracle_rejects_corrupted_output(corrupt):
    parts, m = (14, 11, 9, 8, 6), 3
    text = _staircase_text(parts, m)
    assert oracles.check_staircase(text, parts, m) == []
    assert oracles.check_staircase(corrupt(text), parts, m)


def test_staircase_and_involve_oracles_accept_drawn_partitions():
    commands = workloads.listing(seed=7)[2:60]
    for cmd in commands:
        assert cmd.check(output(cmd.argv), rerun) == [], cmd.argv


@pytest.mark.parametrize(
    "parts, m, case",
    [((11, 10, 8, 5), 1, "SigmaMoved"), ((10, 8, 7, 5, 4), 1, "TauMoved"), ((8, 7, 6, 5), 1, "Fixed")],
)
def test_involve_oracle_rejects_a_wrong_image(parts, m, case):
    argv = ["involve", "--partition", ",".join(map(str, parts)), "--m", str(m), "--trace"]
    text = output(argv)
    assert text.startswith(f"case: {case}\n")
    assert oracles.check_involve(text, rerun, parts, m) == []
    image_line = text.splitlines()[1]
    image = oracles.parse_parts(image_line.removeprefix("image: "))
    bumped = ",".join(map(str, (image[0] + 1, *image[1:])))
    assert oracles.check_involve(text.replace(image_line, f"image: {bumped}"), rerun, parts, m)


def test_involve_oracle_rejects_a_wrong_case_and_a_broken_inverse():
    parts, m = (11, 10, 8, 5), 1
    text = output(["involve", "--partition", "11,10,8,5", "--m", "1", "--trace"])
    assert oracles.check_involve(text.replace("SigmaMoved", "TauMoved"), rerun, parts, m)
    assert oracles.check_involve(text.replace("SigmaMoved", "Fixed"), rerun, parts, m)
    assert oracles.check_involve(text, lambda argv: (0, "case: TauMoved\nimage: 11,10,9,4\n"), parts, m)


# --- workloads, tracing and BENCHMARK.json ----------------------------------


def test_listing_draws_valid_partitions_from_the_seed():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(0, 4)
        size = rng.randint(m + 1, 60)
        parts = workloads.draw_partition(rng, size, m)
        assert sum(parts) == size and oracles.is_distinct_above(parts, m)
    argv = [c.argv for c in workloads.listing(5)]
    assert argv == [c.argv for c in workloads.listing(5)]
    assert argv != [c.argv for c in workloads.listing(6)]


def test_traced_enumerator_yields_the_counted_partitions():
    involution = importlib.import_module("franklin.involution")
    original = involution._distinct_tuples
    commands = [workloads.Command(AUDIT, lambda text, rerun: [])]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        done = run.Pass(cli, commands)
    finally:
        tracing.uninstall(restore)
    assert involution._distinct_tuples is original
    metrics = tracing.layer_metrics(tracer, done.output_bytes)
    assert metrics["partitions.enum_yields"] == sum(oracles.distinct_counts(2, 24))
    assert 1.5 < metrics["staircase.walks_per_partition"] <= 2.0
    assert metrics["involution.audit_self_s"] > 0
    assert set(metrics) | {"trace.overhead_s"} == {name for name, _ in tracing.PER_LAYER}


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
