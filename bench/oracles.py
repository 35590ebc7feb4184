"""Correctness oracles for the benchmark, computed apart from the program.

Each check takes the text one CLI command printed and returns a list of
error messages (empty when the output is correct).  The references are the
benchmark's own: Euler's pentagonal series built from the exponents
k(3k-1)/2, a partition count by a different route than the program's
dynamic programme, and the properties the involution must have.  The
program is only called again where the property itself needs it (applying
the involution to an image must give the input back).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Iterable

# rerun(argv) -> (exit code, stdout text) of one more CLI command.
Rerun = Callable[[list[str]], tuple[int, str]]

PUBLISHED_ROW = {"m": 10, "size": 250, "partitions": 31_571_191, "fixed": 3_537, "fixedPositive": 47}


def pentagonal(order: int) -> list[int]:
    """Coefficients of (q;q)_inf up to q^order by Euler's pentagonal theorem."""
    c = [0] * (order + 1)
    c[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        sign = -1 if k % 2 else 1
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= order:
                c[e] += sign
        k += 1
    return c


def check_product_series(m: int, coeffs: list[int]) -> list[str]:
    """F_m(q) times (q;q)_m must equal the pentagonal series, term by term."""
    c = list(coeffs)
    for k in range(1, m + 1):
        for i in range(len(c) - 1, k - 1, -1):
            c[i] -= c[i - k]
    expected = pentagonal(len(c) - 1)
    for e, (got, want) in enumerate(zip(c, expected)):
        if got != want:
            return [f"F_{m} * (q;q)_{m} has {got} at q^{e}, pentagonal series has {want}"]
    return []


def distinct_counts(m: int, order: int) -> list[int]:
    """Partitions of each size <= order into distinct parts > m.

    Removing the staircase (m+k, ..., m+1) from a partition with k such parts
    leaves a partition into at most k parts, which by conjugation is a
    partition into parts of size at most k.  So the count of size N is the
    sum over k of p_{<=k}(N - km - k(k+1)/2).
    """
    out = [0] * (order + 1)
    bounded = [1] + [0] * order  # partitions into parts of size <= k
    k = 0
    while k * m + k * (k + 1) // 2 <= order:
        shift = k * m + k * (k + 1) // 2
        for n in range(shift, order + 1):
            out[n] += bounded[n - shift]
        k += 1
        for n in range(k, order + 1):
            bounded[n] += bounded[n - k]
    return out


def is_distinct_above(parts: tuple[int, ...], m: int) -> bool:
    return all(p > m for p in parts) and all(a > b for a, b in zip(parts, parts[1:]))


def in_box_form(parts: tuple[int, ...], m: int) -> bool:
    """The paper's fixed-point form: base (2n-1+m, ..., n+m) plus a box mu
    with mu_1 <= m, or mu_1 = m + 1 and mu_n >= 1."""
    n = len(parts)
    if n == 0:
        return True
    mu = [p - (2 * n - i) - m for i, p in enumerate(parts, start=1)]
    if mu[-1] < 0 or any(a < b for a, b in zip(mu, mu[1:])):
        return False
    return mu[0] <= m or (mu[0] == m + 1 and mu[-1] >= 1)


def parse_parts(text: str) -> tuple[int, ...]:
    text = text.strip()
    return () if text in ("()", "") else tuple(int(v) for v in text.split(","))


def _join(parts: Iterable[int]) -> str:
    return ",".join(map(str, parts))


# --- expand -----------------------------------------------------------------


def check_expand_raw(text: str, m: int, order: int) -> list[str]:
    coeffs = [int(v) for v in text.strip().split(",")]
    if len(coeffs) != order + 1:
        return [f"expected {order + 1} coefficients, got {len(coeffs)}"]
    return check_product_series(m, coeffs)


# --- verify -----------------------------------------------------------------


def check_verify(text: str, expected: list[tuple[str, dict]]) -> list[str]:
    """Every report passes, and the reports are the expected identities."""
    reports = json.loads(text)
    errors = [
        f"{r['identity']} {r['params']} verdict {r['verdict']}"
        for r in reports
        if r["verdict"] != "Pass"
    ]
    got = [r["identity"] for r in reports]
    want = [identity for identity, _ in expected]
    if got != want:
        return errors + [f"reports {got}, expected {want}"]
    for r, (_, params) in zip(reports, expected):
        for key, value in params.items():
            if r["params"].get(key) != value:
                errors.append(f"{r['identity']} has {key}={r['params'].get(key)}, expected {value}")
    return errors


def check_audit(text: str, ms: Iterable[int], max_size: int) -> list[str]:
    """Involution audit reports: totals from the benchmark's own count,
    pairs come in twos, and every partition is paired or fixed."""
    ms = list(ms)
    errors = check_verify(text, [("involution-audit", {"m": m, "maxSize": max_size}) for m in ms])
    for r in json.loads(text):
        p = r["params"]
        total = sum(distinct_counts(p["m"], max_size))
        if p["totalPartitions"] != total:
            errors.append(f"m={p['m']}: totalPartitions {p['totalPartitions']}, counted {total}")
        if p["pairedCount"] % 2:
            errors.append(f"m={p['m']}: pairedCount {p['pairedCount']} is odd")
        if p["pairedCount"] + p["fixedCount"] != p["totalPartitions"]:
            errors.append(f"m={p['m']}: paired + fixed != totalPartitions")
    return errors


# --- stats ------------------------------------------------------------------


def check_stats(text: str, m: int, max_size: int) -> list[str]:
    payload = json.loads(text)
    rows = payload["perSize"]
    if [r["size"] for r in rows] != list(range(max_size + 1)):
        return [f"rows do not cover sizes 0..{max_size}"]
    errors = []
    counts = distinct_counts(m, max_size)
    for r, count in zip(rows, counts):
        pos, neg = r["fixedPositive"], r["fixedNegative"]
        if int(r["partitions"]) != count:
            errors.append(f"size {r['size']}: partitions {r['partitions']}, counted {count}")
        if r["fixed"] != pos + neg or r["residual"] != min(pos, neg):
            errors.append(f"size {r['size']}: fixed/residual disagree with the signed tallies")
        if int(r["productCoefficient"]) != pos - neg:
            errors.append(f"size {r['size']}: productCoefficient != fixedPositive - fixedNegative")
    errors += check_product_series(m, [int(r["productCoefficient"]) for r in rows])
    if m == PUBLISHED_ROW["m"] and max_size >= PUBLISHED_ROW["size"]:
        row = rows[PUBLISHED_ROW["size"]]
        got = (int(row["partitions"]), row["fixed"], row["fixedPositive"])
        want = (PUBLISHED_ROW["partitions"], PUBLISHED_ROW["fixed"], PUBLISHED_ROW["fixedPositive"])
        if got != want:
            errors.append(f"published row for m=10, size 250 is {want}, got {got}")
    return errors


# --- fixed-points -----------------------------------------------------------


def check_fixed_points(points: list[tuple[tuple[int, ...], int, int]], m: int, max_size: int) -> list[str]:
    """Listed (parts, size, sign) triples: each a fixed point in box form,
    no duplicates, and per size their signed sum is the product coefficient."""
    errors = []
    tally = [0] * (max_size + 1)
    for parts, size, sign in points:
        where = f"fixed point {_join(parts) or '()'}"
        if not is_distinct_above(parts, m):
            errors.append(f"{where}: parts are not distinct and > {m}")
        if size != sum(parts) or not 0 <= size <= max_size:
            errors.append(f"{where}: stated size {size}")
            continue
        if sign != (-1) ** len(parts):
            errors.append(f"{where}: sign {sign}")
        if not in_box_form(parts, m):
            errors.append(f"{where}: not in the box form of a fixed point")
        tally[size] += sign
    dupes = [p for p, n in Counter(p for p, _, _ in points).items() if n > 1]
    if dupes:
        errors.append(f"{len(dupes)} fixed points listed twice, e.g. {_join(dupes[0])}")
    return errors + check_product_series(m, tally)


def check_fixed_points_json(text: str, m: int, max_size: int) -> list[str]:
    payload = json.loads(text)
    points = [(tuple(p["parts"]), p["size"], p["sign"]) for p in payload["fixedPoints"]]
    return check_fixed_points(points, m, max_size)


def check_fixed_points_text(text: str, m: int, max_size: int) -> list[str]:
    """Lines like ``+q^50 14,13,12,11``."""
    points = []
    for line in text.splitlines():
        weight, parts = line.split(" ", 1)
        points.append((parse_parts(parts), int(weight[3:]), 1 if weight[0] == "+" else -1))
    return check_fixed_points(points, m, max_size)


# --- staircase and involve --------------------------------------------------


def _check_render(lines: list[str], parts: tuple[int, ...], marked: int | None) -> list[str]:
    """A marked diagram: top row first, three characters per cell."""
    if [len(line) for line in lines] != [3 * p for p in reversed(parts)]:
        return [f"diagram rows do not match parts {_join(parts)}"]
    if marked is not None and sum(line.count("[") for line in lines) != marked:
        return [f"diagram marks {sum(line.count('[') for line in lines)} cells, staircase has {marked}"]
    return []


def check_staircase(text: str, parts: tuple[int, ...], m: int) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    field = dict(line.split(" = ", 1) for line in lines[1:6])
    errors = []
    if parse_parts(lines[0].removeprefix("partition: ")) != parts:
        errors.append(f"echoed partition {lines[0]!r}")
    length = int(field["s_m"])
    n = len(parts)
    if not m + 1 <= length <= m + n:
        errors.append(f"s_m = {length} outside [{m + 1}, {m + n}]")
    cells = [tuple(map(int, c.strip("()").split(","))) for c in field["cells"].split()]
    landing_rows = field["landing rows"].split(",") if field["landing rows"] else []
    if len(cells) != length or len(set(cells)) != length:
        errors.append(f"{len(cells)} staircase cells listed for s_m = {length}")
    landings = int(field["landings"])
    if int(field["stairs"]) + landings != length or len(landing_rows) != landings:
        errors.append("stairs + landings != s_m")
    render = lines[6:]
    errors += _check_render(render, parts, length)
    if not errors:
        for row, col in cells:
            line = render[n - row]
            if not 1 <= col <= parts[row - 1] or line[3 * col - 3] != "[":
                errors.append(f"cell ({row},{col}) is not marked in the diagram")
                break
    return errors


def _involve(text: str) -> tuple[str, tuple[int, ...], list[str]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].removeprefix("case: "), parse_parts(lines[1].removeprefix("image: ")), lines[2:]


INVERSE = {"TauMoved": "SigmaMoved", "SigmaMoved": "TauMoved", "Fixed": "Fixed"}


def check_involve(text: str, rerun: Rerun, parts: tuple[int, ...], m: int) -> list[str]:
    """A moved image has the same size and one part fewer (tau) or more
    (sigma); a fixed point is in box form and is its own image.  Either way,
    involving the image gives the input back by the inverse move."""
    case, image, rest = _involve(text)
    if case not in INVERSE:
        return [f"unknown case {case!r}"]
    errors = []
    if case == "Fixed":
        if image != parts or not in_box_form(parts, m):
            errors.append(f"fixed point {_join(parts)} is not in box form or moved")
        shown = [("input", parts)]
    else:
        step = -1 if case == "TauMoved" else 1
        if len(image) != len(parts) + step or sum(image) != sum(parts) or not is_distinct_above(image, m):
            errors.append(f"{case} image {_join(image)} of {_join(parts)} breaks size or part count")
        shown = [("input", parts), ("image", image)]
    for label, p in shown:
        header, rows, rest = rest[:1], rest[1 : len(p) + 1], rest[len(p) + 1 :]
        if header != [f"{label} (staircase marked):"] or _check_render(rows, p, None):
            errors.append(f"missing or malformed {label} diagram")
    if rest:
        errors.append("unexpected lines after the diagrams")
    code, back = rerun(["involve", "--partition", _join(image), "--m", str(m)])
    back_case, back_image, _ = _involve(back) if code == 0 else ("", (), [])
    if back_image != parts or back_case != INVERSE[case]:
        errors.append(f"involving {_join(image)} gives {back_case} {_join(back_image)}, not {_join(parts)}")
    return errors
