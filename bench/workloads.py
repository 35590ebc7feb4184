"""The benchmark's workloads: CLI command lists, each with its oracle.

Each workload is a fixed list of commands that one client issues back to
back; a pass is one trip through the list.  Only ``listing`` draws inputs
from the seed.  Every command exits 0 on a correct program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import oracles

AUDIT_MS = range(5)
AUDIT_SIZE = 60
DURFEE_ORDER = 40
LISTING_PARTITIONS = 200
LISTING_MAX_SIZE = 60
LISTING_MAX_M = 4


@dataclass
class Command:
    """One CLI invocation and the oracle for its output.

    ``check(text, rerun)`` returns error messages; ``yields`` is how many
    partitions the enumerator must hand to ``involution`` and ``verify``
    while the command runs.
    """

    argv: list[str]
    check: Callable[[str, oracles.Rerun], list[str]] = field(repr=False)
    yields: int = 0


def _ignore_rerun(check: Callable[..., list[str]], **params) -> Callable[[str, oracles.Rerun], list[str]]:
    return lambda text, rerun: check(text, **params)


def audit(seed: int) -> list[Command]:
    """The involution audit at the size bound of acceptance criterion 5."""
    return [
        Command(
            ["verify", "--suite", "involution", "--max-size", str(AUDIT_SIZE), "--json"],
            _ignore_rerun(oracles.check_audit, ms=AUDIT_MS, max_size=AUDIT_SIZE),
            yields=sum(sum(oracles.distinct_counts(m, AUDIT_SIZE)) for m in AUDIT_MS),
        )
    ]


def series(seed: int) -> list[Command]:
    """The q-series kernels: product, both closed forms, the identity checks."""
    general = [
        (identity, {"m": m})
        for m in range(5)
        for identity in ("general-product-formula", "fixed-point-formula")
    ]
    return [
        Command(
            ["expand", "--m", "0", "--order", "4000", "--raw"],
            _ignore_rerun(oracles.check_expand_raw, m=0, order=4000),
        ),
        Command(
            ["expand", "--m", "30", "--order", "2000", "--rhs", "general", "--raw"],
            _ignore_rerun(oracles.check_expand_raw, m=30, order=2000),
        ),
        Command(
            ["expand", "--m", "20", "--order", "2000", "--rhs", "fixed", "--raw"],
            _ignore_rerun(oracles.check_expand_raw, m=20, order=2000),
        ),
        Command(
            ["verify", "--suite", "general", "--json"],
            _ignore_rerun(oracles.check_verify, expected=general),
        ),
        Command(
            ["verify", "--suite", "sylvester", "--order", "100", "--json"],
            _ignore_rerun(oracles.check_verify, expected=[("sylvester", {"order": 100})]),
        ),
        Command(
            ["verify", "--suite", "durfee", "--order", str(DURFEE_ORDER), "--json"],
            _ignore_rerun(
                oracles.check_verify, expected=[("durfee-decomposition", {"order": DURFEE_ORDER})]
            ),
            yields=sum(oracles.distinct_counts(0, DURFEE_ORDER)),
        ),
    ]


def tallies(seed: int) -> list[Command]:
    """Fixed-point tallies; (10, 250) is acceptance criterion 8."""
    return [
        Command(
            ["stats", "--m", str(m), "--max-size", str(n), "--json"],
            _ignore_rerun(oracles.check_stats, m=m, max_size=n),
        )
        for m, n in ((10, 250), (6, 300), (0, 1500))
    ]


@lru_cache(maxsize=None)
def _count(total: int, lo: int, hi: int) -> int:
    """Partitions of total into distinct parts in [lo, hi]."""
    if total == 0:
        return 1
    if hi < lo:
        return 0
    return _count(total, lo, hi - 1) + (_count(total - hi, lo, hi - 1) if hi <= total else 0)


def draw_partition(rng: random.Random, size: int, m: int) -> tuple[int, ...]:
    """A partition of size into distinct parts > m, uniform among all such."""
    parts: list[int] = []
    total, hi = size, size
    while total:
        pick = rng.randrange(_count(total, m + 1, hi))
        for p in range(min(hi, total), m, -1):
            ways = _count(total - p, m + 1, p - 1)
            if pick < ways:
                break
            pick -= ways
        parts.append(p)
        total, hi = total - p, p - 1
    return tuple(parts)


def listing(seed: int) -> list[Command]:
    """Fixed-point listings, then staircase and involve on seeded partitions.

    For each partition m is uniform in 0..4, the size uniform in m+1..60, and
    the partition uniform among those of that size with distinct parts > m.
    """
    rng = random.Random(seed)
    commands = [
        Command(
            ["fixed-points", "--m", "10", "--max-size", "160", "--json"],
            _ignore_rerun(oracles.check_fixed_points_json, m=10, max_size=160),
        ),
        Command(
            ["fixed-points", "--m", "6", "--max-size", "200"],
            _ignore_rerun(oracles.check_fixed_points_text, m=6, max_size=200),
        ),
    ]
    for _ in range(LISTING_PARTITIONS):
        m = rng.randint(0, LISTING_MAX_M)
        parts = draw_partition(rng, rng.randint(m + 1, LISTING_MAX_SIZE), m)
        text = ",".join(map(str, parts))
        commands.append(
            Command(
                ["staircase", "--partition", text, "--m", str(m), "--render"],
                _ignore_rerun(oracles.check_staircase, parts=parts, m=m),
            )
        )
        commands.append(
            Command(
                ["involve", "--partition", text, "--m", str(m), "--trace"],
                partial(oracles.check_involve, parts=parts, m=m),
            )
        )
    return commands


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "audit": audit,
    "series": series,
    "tallies": tallies,
    "listing": listing,
}
