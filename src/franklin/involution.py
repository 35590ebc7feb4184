"""The extended Franklin involution on partitions with distinct parts > m.

Two mutually inverse moves act on a partition via its m-landing staircase
and top row (t = smallest part):

  * tau removes the top row and rebuilds it along the staircase: one cell
    goes on top of each staircase landing in the t-m-1 bottommost rows,
    the m leftover landing cells go to the end of row 1, and the remaining
    t-m cells extend rows 1..t-m by one each.  Afterwards the staircase
    length equals the old top row, s_m(tau(p)) = t(p).
  * sigma removes the staircase and lays it down as a new top row of
    length s_m(p), so t(sigma(p)) = s_m(p).

Both are slices of the parts p_0 > ... > p_{n-1} = t.  With k = t - m - 1,
tau fills rows 2..k+1 up to the row before them: (p_k + t, p_0, ...,
p_{k-1}, p_{k+1}, ..., p_{n-2}).  With j = s_m - m, sigma cuts rows 1..j-1
down to the row after them and row j to p_0 - s_m: (p_1, ..., p_{j-1},
p_0 - s_m, p_j, ..., p_{n-1}, s_m).

The involution applies tau when t <= s_m and t < m + n, sigma when
t - (staircase cells in the top row) > s_m, and otherwise fixes the
partition.  With lo = n + m, the n-part fixed points are the n-subsets of
lo..2*lo that do not hold both ends.  As boxes over base_partition(n, m),
whose parts are lo..2*lo - 1, they are base + mu for a weakly decreasing
mu with n rows and either mu_1 <= m (family A: the top end 2*lo is
missing) or mu_1 = m + 1 and mu_n >= 1 (family B: the top end is held and
the bottom end lo is not).  The empty partition is fixed.
"""

from __future__ import annotations

import enum
from itertools import chain
from operator import add, sub
from typing import Iterable, Iterator, NamedTuple

from .partitions import DistinctPartition, SignedMonomial, _distinct_tuples, base_partition
from .qseries import _distinct_counts, _fixed_point_tallies, _nonnegative
from .staircase import _require_valid, _walk


class PreconditionViolated(ValueError):
    """The guard of the requested move does not hold for this partition."""


class InvolutionCase(enum.Enum):
    TAU_MOVED = "TauMoved"
    SIGMA_MOVED = "SigmaMoved"
    FIXED = "Fixed"


TAU_MOVED, SIGMA_MOVED, FIXED = InvolutionCase


class InvolutionResult(NamedTuple):
    image: DistinctPartition
    case: InvolutionCase


class AuditReport(NamedTuple):
    """Outcome of exhaustively checking the involution laws on a size range.

    Each violation is (law, parts) for the partition that broke the law,
    except the three count laws, whose item maps the fields `verify`
    prints to their values: partition-count's {size, enumerated, counted},
    pair-count's {size, tauMoved, sigmaMoved} and fixed-count's {size,
    parity, enumerated, counted}, with parity "even" or "odd".  The totals
    are the sums of the per-size tallies that these laws checked.
    """

    m: int
    size_range: tuple[int, int]
    total_partitions: int
    paired_count: int
    fixed_count: int
    tau_moved: int
    sigma_moved: int
    violations: list[tuple[str, tuple[int, ...] | dict[str, int | str]]]


class SizeStats(NamedTuple):
    """Cancellation bookkeeping for one size."""

    size: int
    partitions: int
    fixed: int
    fixed_positive: int
    fixed_negative: int
    residual: int
    product_coefficient: int


def _tau_tuple(parts: tuple[int, ...], m: int) -> tuple[int, ...]:
    """tau on raw parts as a slice (module docstring); caller guarantees the tau guard."""
    t = parts[-1]
    k = t - m - 1
    return (parts[k] + t,) + parts[:k] + parts[k + 1 : -1]


def _sigma_tuple(parts: tuple[int, ...], m: int, s: int) -> tuple[int, ...]:
    """sigma on raw parts as a slice (module docstring); caller guarantees the sigma guard."""
    j = s - m
    return parts[1:j] + (parts[0] - s,) + parts[j:] + (s,)


def _move(parts: tuple[int, ...], m: int) -> tuple[InvolutionCase | None, tuple[int, ...], int, int]:
    """(case, image, s_m, overlap) of nonempty parts by one walk; case None if both guards hold."""
    t = parts[-1]
    s, overlap = _walk(parts, m)
    tau_ok = t <= s and t < m + len(parts)
    if tau_ok is (t - overlap > s):  # both guards hold, or neither
        return (None if tau_ok else FIXED), parts, s, overlap
    if tau_ok:
        return TAU_MOVED, _tau_tuple(parts, m), s, overlap
    return SIGMA_MOVED, _sigma_tuple(parts, m, s), s, overlap


def _restricted(p: DistinctPartition, m: int, move: str, case: InvolutionCase) -> DistinctPartition:
    """The involution where it applies `move`; raises elsewhere, the empty partition included."""
    _require_valid(p, m)
    image, applied = involute(p, m)
    if applied is not case:
        raise PreconditionViolated(f"{move} guard fails for {p.parts} with m={m}")
    return image


def tau(p: DistinctPartition, m: int) -> DistinctPartition:
    """The involution where it moves by tau (t <= s_m and t < m + n); raises elsewhere."""
    return _restricted(p, m, "tau", InvolutionCase.TAU_MOVED)


def sigma(p: DistinctPartition, m: int) -> DistinctPartition:
    """The involution where it moves by sigma (t - overlap > s_m); raises elsewhere."""
    return _restricted(p, m, "sigma", InvolutionCase.SIGMA_MOVED)


def involute(p: DistinctPartition, m: int) -> InvolutionResult:
    """Apply the involution once; the empty partition is fixed.  tau and sigma restrict it."""
    if p.n == 0 and m >= 0:
        return InvolutionResult(p, FIXED)
    _require_valid(p, m)
    case, image, _, _ = _move(p.parts, m)
    if case is None:
        raise AssertionError(f"move guards are not exclusive on {p.parts}, m={m}")
    return InvolutionResult(p if case is FIXED else DistinctPartition(image), case)


def _fixed_criterion(parts: tuple[int, ...], m: int) -> bool:
    """Fixed-point test on distinct parts > m, the interval form (module docstring); no move."""
    lo = len(parts) + m
    return not parts or (lo <= parts[-1] and parts[0] <= 2 * lo and parts[0] - parts[-1] < lo)


def _box_lex(base: tuple[int, ...], width: int, total: int) -> Iterator[tuple[int, ...]]:
    """base + mu for each weakly decreasing mu in [0, width] summing to total, mu lex-increasing.

    mu has len(base) rows.  From the flattest mu, each step raises by one the
    rightmost entry that can go up while the entries after it hold rest > 0
    units, then refills those as flat as possible with rest - 1 units (Knuth,
    TAOCP 4A, 7.2.1.4).  The sum parts = base + mu is stepped in place next to
    mu, so each point costs the one tuple yielded.
    """
    rows = len(base)
    if not 0 <= total <= rows * width:
        return
    mu, parts, i, rest = [0] * rows, list(base), -1, total + 1
    while True:
        for j in range(rows - 1, i, -1):  # j - i entries left to hold rest - 1 units
            mu[j] = v = (rest - 1) // (j - i)
            parts[j] = base[j] + v
            rest -= v
        yield tuple(parts)
        i, rest = rows - 1, 0
        while i >= 0 and (not rest or mu[i] == width or (i and mu[i] == mu[i - 1])):
            rest += mu[i]
            i -= 1
        if i < 0:
            return
        mu[i] += 1
        parts[i] += 1


def _fixed_point_blocks(
    m: int, max_size: int
) -> Iterator[tuple[int, SignedMonomial, Iterator[tuple[int, ...]]]]:
    """The fixed points in boxes (n, weight, points), in enumerate_fixed_points' order.

    Each (n, r) gives one box: the points with n parts and the weight
    (-1)^n q^{sum(base) + r}, base = base_partition(n, m), possibly none.
    Within n the sizes rise, and the first box is the empty partition alone.
    A box holds its family-A points, base + mu for mu in the n x m box
    summing to r, and then its family-B points: mu = (m + 1, 1 + nu) for nu
    in the (n - 1) x m box, the top part base[0] + m + 1 followed by
    base[1:] + 1 + nu.  Every family-A point has a lower top part, so the
    box is in lexicographic order.
    """
    n = 0
    while (base_size := sum(base := base_partition(n, m).parts)) <= max_size:
        least_b = tuple(map(add, base, (m + 1,) + (1,) * (n - 1)))  # mu = (m + 1, 1, ..., 1)
        top, below = least_b[:1], least_b[1:]
        for r in range(min(max_size - base_size, n * (m + 1)) + 1):
            weight = SignedMonomial(-1 if n % 2 else 1, base_size + r)
            family_b = map(top.__add__, _box_lex(below, m, r - m - n)) if n else ()
            yield n, weight, chain(_box_lex(base, m, r), family_b)
        n += 1


def enumerate_fixed_points(
    m: int, max_size: int
) -> Iterator[tuple[DistinctPartition, SignedMonomial]]:
    """All involution fixed points of size <= max_size, with their weights.

    Streamed by increasing part count n; within each n ordered by size,
    ties broken lexicographically on the parts.  A negative m or max_size
    raises at the call.
    """
    _nonnegative(m=m, max_size=max_size)
    return (
        (DistinctPartition(parts), weight)
        for _, weight, points in _fixed_point_blocks(m, max_size)
        for parts in points
    )


def _is_valid_distinct(parts: tuple[int, ...], m: int) -> bool:
    prev = None
    for v in parts:
        if v <= m or (prev is not None and v >= prev):
            return False
        prev = v
    return True


def _audit_one(
    size: int, m: int, violations: list[tuple[str, tuple[int, ...] | dict[str, int | str]]]
) -> tuple[int, int, int, int, int]:
    """Check every involution law on each partition of one size, in one loop.

    Applies `involute`'s kernel `_move` to each nonempty partition and each moved one's image.
    Violations are appended in enumeration order.  Returns the size's tally
    (tau-moved, sigma-moved, fixed with an even part count, fixed with an
    odd part count, both guards holding).  The helpers are read as module
    globals on every use, so a replaced one is the one called.
    """
    tau_moved = sigma_moved = even = odd = both = 0
    for parts in _distinct_tuples(size, m):
        n = len(parts)
        if not n:
            if not _fixed_criterion(parts, m):
                violations.append(("fixed-criterion", parts))
            even += 1
            continue
        t = parts[-1]
        full = m + n  # the longest staircase n rows allow
        case, img, s, overlap = _move(parts, m)
        if not (m < s <= full):
            violations.append(("staircase-bounds", parts))
        if case is None:
            violations.append(("guards-overlap", parts))
            both += 1
            continue
        # maximal staircase + box form pins down the sigma guard quantity:
        # t - overlap = mu_1 + n - 1 with mu_1 = parts[0] - (2n - 1) - m
        if s == full and t >= full and t - overlap != parts[0] - full:
            violations.append(("taxicab", parts))
        crit = _fixed_criterion(parts, m)
        if case is FIXED:
            if not crit:
                violations.append(("fixed-criterion", parts))
            if t < full or s != full:
                violations.append(("fixed-shape", parts))
            if n % 2:
                odd += 1
            else:
                even += 1
            continue
        if crit:
            violations.append(("fixed-criterion", parts))
        if case is TAU_MOVED:
            tau_moved += 1
            if len(img) != n - 1 or sum(img) != size or not _is_valid_distinct(img, m):
                violations.append(("tau-image", parts))
                continue
            i_case, back, i_s, _ = _move(img, m)
            if i_s != t:
                violations.append(("tau-staircase-transfer", parts))
            if i_case is not SIGMA_MOVED:
                violations.append(("tau-image-guard", parts))
            elif back != parts:
                violations.append(("sigma-tau-roundtrip", parts))
            continue
        sigma_moved += 1
        if len(img) != n + 1 or sum(img) != size or not _is_valid_distinct(img, m):
            violations.append(("sigma-image", parts))
            continue
        if img[-1] != s:
            violations.append(("sigma-top-transfer", parts))
        i_case, back, _, _ = _move(img, m)
        if i_case is not TAU_MOVED:
            violations.append(("sigma-image-guard", parts))
        elif back != parts:
            violations.append(("tau-sigma-roundtrip", parts))
    return tau_moved, sigma_moved, even, odd, both


def orbit_audit(m: int, max_size: int, sizes: Iterable[int] | None = None) -> AuditReport:
    """Exhaustively verify the involution laws on all sizes <= max_size.

    Checks, for every partition with distinct parts > m in range: guard
    exclusivity, staircase length bounds, involutivity (each move lands in
    the other move's domain and reverses), the staircase/top-row transfer
    laws, weight antisymmetry (size preserved, part count changed by one),
    and agreement of the fixed-point criterion with the applied case.
    Three count laws then hold each size's tally against that size's
    `cancellation_stats` row, the row `stats` prints, which no enumeration
    builds.  The partition-count law compares the enumerated total with
    `partitions`, Euler's sum of q^{nm + n(n+1)/2} / (q)_n over n
    (`_distinct_counts`).  The pair-count law requires as many tau moves
    as sigma moves, since each move maps one side onto the other.  The
    fixed-count law compares the fixed points found with an even and an
    odd part count with `fixed_positive` and `fixed_negative`
    (`_fixed_point_tallies`): the n-part fixed points are counted by
    q^{(3n^2-n)/2 + nm} ([n+m, m]_q + q^{n+m} [n+m-1, m]_q) and all carry
    the sign (-1)^n.  Mismatches are reported after that size's
    per-partition violations: partition-count, pair-count, then even, then
    odd.
    Each size is one `_audit_one` pass over the enumerator's tuples.

    `sizes` restricts the audit to a nonempty set of distinct sizes in
    0..max_size so runs can be sharded; reports for disjoint shards add
    component-wise.
    """
    _nonnegative(m=m, max_size=max_size)
    size_list = sorted(sizes) if sizes is not None else list(range(max_size + 1))
    if not size_list or len(set(size_list)) < len(size_list):
        raise ValueError("sizes must be a nonempty set of distinct sizes")
    if size_list[0] < 0 or size_list[-1] > max_size:
        raise ValueError(f"sizes must lie in 0..{max_size}")
    stats = cancellation_stats(m, max_size)
    violations: list[tuple[str, tuple[int, ...] | dict[str, int | str]]] = []
    rows = []
    for size in size_list:
        rows.append(_audit_one(size, m, violations))
        tau_n, sigma_n, even, odd, _ = rows[-1]
        found, want = sum(rows[-1]), stats[size]
        if found != want.partitions:
            fields = {"size": size, "enumerated": found, "counted": want.partitions}
            violations.append(("partition-count", fields))
        if tau_n != sigma_n:
            fields = {"size": size, "tauMoved": tau_n, "sigmaMoved": sigma_n}
            violations.append(("pair-count", fields))
        tallies = (("even", even, want.fixed_positive), ("odd", odd, want.fixed_negative))
        for parity, fixed_n, tally in tallies:
            if fixed_n != tally:
                fields = {"size": size, "parity": parity, "enumerated": fixed_n, "counted": tally}
                violations.append(("fixed-count", fields))
    tau_n, sigma_n, even, odd, both = map(sum, zip(*rows))
    paired, fixed = tau_n + sigma_n + both, even + odd
    return AuditReport(
        m=m,
        size_range=(size_list[0], size_list[-1]),
        total_partitions=paired + fixed,
        paired_count=paired,
        fixed_count=fixed,
        tau_moved=tau_n,
        sigma_moved=sigma_n,
        violations=violations,
    )


def cancellation_stats(m: int, max_size: int) -> list[SizeStats]:
    """Per-size cancellation statistics up to max_size, the rows `stats` prints.

    No partition is enumerated: partitions, fixed_positive and
    fixed_negative are stepped from the closed forms that `orbit_audit`'s
    count laws check by enumeration, and its docstring names them.  fixed
    is their sum, residual the smaller, and the product coefficient the
    signed excess fixed_positive - fixed_negative.  Each row is a named
    tuple built positionally from these columns.
    """
    _nonnegative(m=m, max_size=max_size)
    counts = _distinct_counts(m, max_size)
    pos, neg = _fixed_point_tallies(m, max_size)
    return list(
        map(
            SizeStats,
            range(max_size + 1),
            counts,
            map(add, pos, neg),
            pos,
            neg,
            map(min, pos, neg),
            map(sub, pos, neg),
        )
    )
