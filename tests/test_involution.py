import inspect
import itertools
import re
import tracemalloc
from collections import Counter
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import franklin.involution as involution
from franklin.involution import (
    InvolutionCase,
    PreconditionViolated,
    AuditReport,
    SizeStats,
    _box_lex,
    _fixed_criterion,
    _fixed_point_blocks,
    _move,
    cancellation_stats,
    enumerate_fixed_points,
    involute,
    orbit_audit,
    sigma,
    tau,
)
from franklin.partitions import (
    DistinctPartition,
    SignedMonomial,
    base_partition,
    count_distinct_signed,
    enumerate_distinct,
    weight,
)
from franklin.qseries import _distinct_counts, _fixed_point_tallies, _product_coeffs
from franklin.staircase import _walk, staircase


@st.composite
def partition_with_m(draw, max_part=24, max_n=7):
    m = draw(st.integers(0, 4))
    universe = list(range(m + 1, max_part + 1))
    chosen = draw(st.sets(st.sampled_from(universe), max_size=max_n))
    return DistinctPartition(tuple(sorted(chosen, reverse=True))), m


class TestSigma:
    def test_case_one_two(self):
        assert sigma(DistinctPartition((11, 10, 8, 5)), 1).parts == (10, 8, 7, 5, 4)

    def test_case_two_two(self):
        assert sigma(DistinctPartition((11, 10, 9, 7)), 1).parts == (10, 9, 7, 6, 5)

    def test_single_long_row(self):
        assert sigma(DistinctPartition((3,)), 0).parts == (2, 1)

    def test_new_top_is_staircase_length(self):
        p = DistinctPartition((11, 10, 8, 5))
        assert sigma(p, 1).parts[-1] == staircase(p, 1).length

    def test_guard_enforced(self):
        with pytest.raises(PreconditionViolated):
            sigma(DistinctPartition((9, 7, 6, 5)), 1)  # a fixed point

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sigma(DistinctPartition(), 0)


class TestTau:
    def test_case_one_one(self):
        assert tau(DistinctPartition((10, 8, 7, 5, 4)), 1).parts == (11, 10, 8, 5)

    def test_case_two_one(self):
        assert tau(DistinctPartition((9, 8, 7, 5, 4)), 1).parts == (11, 9, 8, 5)

    def test_guard_boundary_probe(self):
        # image must stay strictly decreasing and invert back through sigma
        p = DistinctPartition((10, 8, 7, 6, 5))
        image = tau(p, 1)
        assert image.parts == (11, 10, 8, 7)
        assert sigma(image, 1) == p

    def test_staircase_transfer(self):
        p = DistinctPartition((10, 8, 7, 5, 4))
        assert staircase(tau(p, 1), 1).length == p.parts[-1]

    def test_guard_enforced(self):
        with pytest.raises(PreconditionViolated):
            tau(DistinctPartition((11, 10, 8, 5)), 1)  # sigma territory

    def test_single_part_never_tau(self):
        with pytest.raises(PreconditionViolated):
            tau(DistinctPartition((7,)), 2)


class TestInvolute:
    def test_fixed_examples(self):
        assert involute(DistinctPartition((9, 7, 6, 5)), 1).case is InvolutionCase.FIXED
        assert involute(DistinctPartition((10, 9, 7, 6)), 1).case is InvolutionCase.FIXED

    def test_sigma_case(self):
        res = involute(DistinctPartition((11, 10, 8, 5)), 1)
        assert res.case is InvolutionCase.SIGMA_MOVED
        assert res.image.parts == (10, 8, 7, 5, 4)

    def test_tau_case(self):
        res = involute(DistinctPartition((10, 8, 7, 5, 4)), 1)
        assert res.case is InvolutionCase.TAU_MOVED
        assert res.image.parts == (11, 10, 8, 5)

    def test_empty_fixed(self):
        res = involute(DistinctPartition(), 4)
        assert res.case is InvolutionCase.FIXED
        assert res.image.n == 0

    @given(partition_with_m())
    @settings(max_examples=150, deadline=None)
    def test_involution_laws(self, pm):
        p, m = pm
        res = involute(p, m)
        assert res.image.size == p.size
        again = involute(res.image, m)
        assert again.image == p
        if res.case is InvolutionCase.FIXED:
            assert res.image == p
        else:
            assert abs(res.image.n - p.n) == 1
            w, wi = weight(p), weight(res.image)
            assert (wi.sign, wi.exponent) == (-w.sign, w.exponent)


class TestMovesRestrictInvolute:
    """tau and sigma are the involution restricted to one case each."""

    @pytest.mark.parametrize("m", range(5))
    def test_every_partition_up_to_size_30(self, m):
        moves = (
            ("tau", tau, InvolutionCase.TAU_MOVED),
            ("sigma", sigma, InvolutionCase.SIGMA_MOVED),
        )
        for size in range(1, 31):
            for p in enumerate_distinct(size, m):
                image, case = involute(p, m)
                for name, move, own in moves:
                    if case is own:
                        assert move(p, m) == image
                        continue
                    with pytest.raises(PreconditionViolated) as refused:
                        move(p, m)
                    assert str(refused.value) == f"{name} guard fails for {p.parts} with m={m}"


class TestFixedCriterion:
    def test_box_witness(self):
        assert _fixed_criterion((14, 13, 12, 11), 3)

    def test_base_partitions(self):
        for n in range(7):
            for m in range(5):
                assert _fixed_criterion(base_partition(n, m).parts, m)

    def test_moved_partition(self):
        assert not _fixed_criterion((11, 10, 8, 5), 1)

    def test_empty(self):
        assert _fixed_criterion((), 2)

    def test_agrees_with_involute_small(self):
        for total in range(32):
            for m in range(4):
                for p in enumerate_distinct(total, m):
                    fixed = involute(p, m).case is InvolutionCase.FIXED
                    assert fixed == _fixed_criterion(p.parts, m), p.parts


class TestEnumerateFixedPoints:
    def test_m1_two_parts(self):
        points = [
            (p.parts, w) for p, w in enumerate_fixed_points(1, 11) if p.n == 2
        ]
        assert sorted(w.exponent for _, w in points) == [7, 8, 9, 10, 11]
        assert all(w.sign == 1 for _, w in points)

    def test_m0_is_pentagonal(self):
        got = [p.parts for p, _ in enumerate_fixed_points(0, 40)]
        expected = [()]
        n = 1
        while (3 * n * n - n) // 2 <= 40:
            a = tuple(range(2 * n - 1, n - 1, -1))
            b = tuple(range(2 * n, n, -1))
            expected.append(a)
            if sum(b) <= 40:
                expected.append(b)
            n += 1
        assert sorted(got) == sorted(expected)

    def test_m3_size_fifty_witnesses(self):
        table = {p.parts: w for p, w in enumerate_fixed_points(3, 50)}
        assert table[(14, 13, 12, 11)].sign == 1
        assert table[(12, 11, 10, 9, 8)].sign == -1

    def test_weights_and_dedup(self):
        points = list(enumerate_fixed_points(2, 30))
        parts_seen = [p.parts for p, _ in points]
        assert len(parts_seen) == len(set(parts_seen))
        for p, w in points:
            assert w.exponent == p.size <= 30
            assert w.sign == (1 if p.n % 2 == 0 else -1)
            assert _fixed_criterion(p.parts, 2)

    def test_matches_involute_fixed_set(self):
        # the stream's order, pinned: part count, then size, then lex on the parts
        for m in (*range(7), 10):
            direct = sorted(
                (
                    p.parts
                    for total in range(37)
                    for p in enumerate_distinct(total, m)
                    if involute(p, m).case is InvolutionCase.FIXED
                ),
                key=lambda parts: (len(parts), sum(parts), parts),
            )
            for max_size in (0, 1, 7, 36):
                enumerated = [p.parts for p, _ in enumerate_fixed_points(m, max_size)]
                assert enumerated == [parts for parts in direct if sum(parts) <= max_size]

    def test_bad_m_raises_before_iteration(self):
        with pytest.raises(ValueError):
            enumerate_fixed_points(-1, 5)

    def test_bad_size_raises_before_iteration(self):
        # the distinct-part enumerator checks at the call too, as this one does
        for size, m, names in ((-1, 0, "size"), (3, -1, "m"), (-1, -1, "size and m")):
            with pytest.raises(ValueError, match=f"^{names} must be nonnegative$"):
                enumerate_distinct(size, m)

    def test_negative_max_size_raises_before_iteration(self):
        with pytest.raises(ValueError, match="max_size must be nonnegative"):
            enumerate_fixed_points(3, -1)

    def test_malformed_point_is_refused(self, monkeypatch):
        # each point is built by DistinctPartition's checks, as involute's images are
        box = (2, SignedMonomial(1, 6), iter([(3, 3)]))
        monkeypatch.setattr(involution, "_fixed_point_blocks", lambda m, max_size: iter([box]))
        points = enumerate_fixed_points(0, 6)
        with pytest.raises(ValueError, match="strictly decreasing"):
            next(points)

    def test_drains_in_bounded_memory(self):
        # the first drain leaves tuples in CPython's free lists, which tracemalloc
        # would charge to the stream; warm them so only the stream's own memory counts
        sum(1 for _ in enumerate_fixed_points(10, 200))
        tracemalloc.start()
        try:
            count = sum(1 for _ in enumerate_fixed_points(10, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 50550
        assert peak < 2**20

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_boxes_share_part_count_and_weight(self, m):
        # the empty partition first, alone; then a family-A and a family-B box per (n, size)
        boxes = [(n, w, list(points)) for n, w, points in _fixed_point_blocks(m, 40)]
        assert boxes[0] == (0, SignedMonomial(1, 0), [()])
        for n, w, points in boxes:
            assert w.sign == (-1) ** n
            assert all(len(parts) == n and sum(parts) == w.exponent for parts in points)
        pairs = [(n, w) for n, w, _ in boxes[1:]]
        assert pairs[::2] == pairs[1::2]
        flat = [(DistinctPartition(parts), w) for _, w, points in boxes for parts in points]
        assert flat == list(enumerate_fixed_points(m, 40))


class TestBoxLex:
    @pytest.mark.parametrize("rows", range(6))
    @pytest.mark.parametrize("shifted", [False, True], ids=["zero-base", "base-partition"])
    def test_matches_brute_force(self, rows, shifted):
        # a nonzero base checks the parts stepped in place, not only mu
        base = base_partition(rows, 2).parts if shifted else (0,) * rows
        for width in range(5):
            boxes = sorted(
                mu
                for mu in itertools.product(range(width + 1), repeat=rows)
                if all(a >= b for a, b in zip(mu, mu[1:]))
            )
            for total in range(-1, rows * width + 2):
                expected = [tuple(map(add, base, mu)) for mu in boxes if sum(mu) == total]
                assert list(_box_lex(base, width, total)) == expected, (base, width, total)


def sum_shards(reports):
    """Add shard reports field by field: counts add, violations concatenate."""
    (m,) = {r.m for r in reports}
    return AuditReport(
        m=m,
        size_range=(
            min(r.size_range[0] for r in reports),
            max(r.size_range[1] for r in reports),
        ),
        total_partitions=sum(r.total_partitions for r in reports),
        paired_count=sum(r.paired_count for r in reports),
        fixed_count=sum(r.fixed_count for r in reports),
        tau_moved=sum(r.tau_moved for r in reports),
        sigma_moved=sum(r.sigma_moved for r in reports),
        violations=[v for r in reports for v in r.violations],
    )


class TestOrbitAudit:
    def test_clean_audit(self):
        report = orbit_audit(1, 30)
        assert report.violations == []
        assert report.paired_count % 2 == 0
        assert report.total_partitions == report.paired_count + report.fixed_count

    def test_m0_fixed_counts_are_pentagonal(self):
        report = orbit_audit(0, 30)
        pent = {k * (3 * k - 1) // 2 for k in range(-10, 11)}
        assert report.fixed_count == len({s for s in pent if 0 <= s <= 30})

    def test_m3_size_fifty_witnesses_in_tally(self):
        report = orbit_audit(3, 50)
        assert report.violations == []
        by_size_fifty = [
            p.parts for p, _ in enumerate_fixed_points(3, 50) if p.size == 50
        ]
        assert sorted(by_size_fifty) == [(12, 11, 10, 9, 8), (14, 13, 12, 11)]
        assert report.fixed_count >= 2

    def test_sharding_merge(self):
        whole = orbit_audit(2, 24)
        lo = orbit_audit(2, 24, sizes=range(0, 12))
        hi = orbit_audit(2, 24, sizes=range(12, 25))
        merged = sum_shards([lo, hi])
        assert merged.total_partitions == whole.total_partitions
        assert merged.paired_count == whole.paired_count
        assert merged.fixed_count == whole.fixed_count
        assert merged.size_range == whole.size_range
        assert merged.violations == whole.violations

    def test_moves_split_the_pairs(self):
        for m in range(4):
            report = orbit_audit(m, 30)
            assert report.tau_moved == report.sigma_moved == report.paired_count // 2

    def test_sharded_moves_add_up(self):
        whole = orbit_audit(2, 24)
        merged = sum_shards(
            [orbit_audit(2, 24, sizes=range(0, 12)), orbit_audit(2, 24, sizes=range(12, 25))]
        )
        assert (merged.tau_moved, merged.sigma_moved) == (whole.tau_moved, whole.sigma_moved)
        assert merged.tau_moved == merged.sigma_moved == merged.paired_count // 2

    def test_walks_each_partition_and_each_moved_image(self, walk_calls):
        """One walk per nonempty partition, one more for the image of each moved one.

        The benchmark's oracle test pins this two-walk structure
        (bench/test_oracles.py::test_traced_enumerator_yields_the_counted_partitions
        asserts 1.5 < walks_per_partition <= 2.0), so a one-walk audit has to
        land together with that bound's refresh.
        """
        report = orbit_audit(2, 24)
        assert report.violations == []
        assert len(walk_calls) == report.total_partitions - 1 + report.paired_count

    @pytest.mark.parametrize("m", range(4))
    def test_tallies_match_the_case_of_each_involute(self, m):
        cases = Counter(
            involute(p, m).case for size in range(21) for p in enumerate_distinct(size, m)
        )
        report = orbit_audit(m, 20)
        assert (report.fixed_count, report.tau_moved, report.sigma_moved) == (
            cases[InvolutionCase.FIXED],
            cases[InvolutionCase.TAU_MOVED],
            cases[InvolutionCase.SIGMA_MOVED],
        )

    def test_shards_covering_all_sizes_merge_to_the_whole(self):
        for m in range(3):
            shards = [[0], range(1, 21, 2), range(2, 21, 2)]
            merged = sum_shards([orbit_audit(m, 20, sizes=sizes) for sizes in shards])
            assert merged == orbit_audit(m, 20)

    @pytest.mark.parametrize("m", range(5, 11))
    def test_clean_audit_past_each_residual_onset(self, m):
        # size 60 passes 27 + 3(m - 5), the first size where fixed points of both signs meet
        report = orbit_audit(m, 60)
        assert report.violations == []
        assert report.tau_moved == report.sigma_moved

    def test_sizes_above_max_size_rejected(self):
        with pytest.raises(ValueError):
            orbit_audit(0, 5, sizes=[40])

    def test_repeated_sizes_rejected(self):
        with pytest.raises(ValueError):
            orbit_audit(0, 5, sizes=[3, 3])

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            orbit_audit(0, 5, sizes=[-2])

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            orbit_audit(0, 5, sizes=[])


class TestGuards:
    def test_walk_statistics_match_the_staircase_cells(self):
        for m in range(5):
            for total in range(25):
                for p in enumerate_distinct(total, m):
                    if not p.n:
                        continue
                    lands, s, overlap = _walk(p.parts, m)
                    cells = staircase(p, m).cells
                    assert s == len(cells), p.parts
                    assert overlap == sum(1 for c in cells if c.row == p.n), p.parts
                    per_row = [sum(1 for c in cells if c.row == i + 1) for i in range(len(lands))]
                    assert lands == [k - 1 for k in per_row], p.parts
                    assert sum(per_row) == len(cells), p.parts


def _staircase_laid_on_top(parts, m):
    """Sigma read off the diagram: each staircase cell leaves its row, then all of them
    form a new top row.  A reference for both moves that calls neither."""
    stairs = staircase(DistinctPartition(parts), m)
    rows = list(parts)
    for cell in stairs.cells:
        rows[cell.row - 1] -= 1
    return (*rows, stairs.length)


class TestMovesAgainstCells:
    @pytest.mark.parametrize("m", range(5))
    def test_moves_match_the_staircase_cells(self, m):
        moved = Counter()
        for size in range(1, 41):
            for parts in (p.parts for p in enumerate_distinct(size, m)):
                case, image, _, _ = _move(parts, m)
                if case is InvolutionCase.SIGMA_MOVED:
                    assert image == _staircase_laid_on_top(parts, m), parts
                elif case is InvolutionCase.TAU_MOVED:
                    assert _staircase_laid_on_top(image, m) == parts, parts
                moved[case] += 1
        assert moved[InvolutionCase.TAU_MOVED] == moved[InvolutionCase.SIGMA_MOVED] > 0


# One corruption of one audit helper per law that _audit_one names: each
# wraps the real helper and bends its result so that the law must fire.
def _flip_fixed(real):
    return lambda parts, m: not real(parts, m)


def _staircase_too_long(real):
    def moved(parts, m):
        case, image, s, overlap = real(parts, m)
        return case, image, s + m + len(parts), overlap

    return moved


def _both_guards(real):
    def moved(parts, m):
        _, _, s, overlap = real(parts, m)
        return None, parts, s, overlap

    return moved


def _top_overlap_plus_one(real):
    def moved(parts, m):
        case, image, s, overlap = real(parts, m)
        if overlap:  # the walk reached the top row
            overlap += 1
        return case, image, s, overlap

    return moved


def _no_guards(real):
    def moved(parts, m):
        _, _, s, overlap = real(parts, m)
        return InvolutionCase.FIXED, parts, s, overlap

    return moved


def _tau_extra_part(real):
    return lambda parts, m, lands: real(parts, m, lands) + (0,)


def _staircase_plus_one(real):
    def moved(parts, m):
        case, image, s, overlap = real(parts, m)
        return case, image, s + 1, overlap

    return moved


def _unmoved(case):
    """The kernel with each move of the given case reported as a fixed point."""

    def fault(real):
        def moved(parts, m):
            found, image, s, overlap = real(parts, m)
            if found is case:
                return InvolutionCase.FIXED, parts, s, overlap
            return found, image, s, overlap

        return moved

    return fault


def _sigma_top_cell_to_bottom(real):
    def moved(parts, lands, s):
        image = real(parts, lands, s)
        return (image[0] + 1,) + image[1:-1] + (image[-1] - 1,)

    return moved


def _sigma_drops_top(real):
    return lambda parts, lands, s: real(parts, lands, s)[:-1]


def _tau_bottom_plus_one(real):
    def moved(parts, m, lands):
        image = real(parts, m, lands)
        return (image[0] + 1,) + image[1:]

    return moved


AUDIT_FAULTS = {
    "fixed-criterion": ("_fixed_criterion", _flip_fixed),
    "staircase-bounds": ("_move", _staircase_too_long),
    "guards-overlap": ("_move", _both_guards),
    "taxicab": ("_move", _top_overlap_plus_one),
    "fixed-shape": ("_move", _no_guards),
    "tau-image": ("_tau_tuple", _tau_extra_part),
    "tau-staircase-transfer": ("_move", _staircase_plus_one),
    "tau-image-guard": ("_move", _unmoved(InvolutionCase.SIGMA_MOVED)),
    "sigma-tau-roundtrip": ("_sigma_tuple", _sigma_top_cell_to_bottom),
    "sigma-image": ("_sigma_tuple", _sigma_drops_top),
    "sigma-top-transfer": ("_sigma_tuple", _sigma_top_cell_to_bottom),
    "sigma-image-guard": ("_move", _unmoved(InvolutionCase.TAU_MOVED)),
    "tau-sigma-roundtrip": ("_tau_tuple", _tau_bottom_plus_one),
}


class TestAuditFaults:
    def test_every_law_has_a_fault(self):
        source = inspect.getsource(involution._audit_one)
        assert set(re.findall(r'violations\.append\(\("([a-z-]+)"', source)) == set(AUDIT_FAULTS)

    @pytest.mark.parametrize("law", sorted(AUDIT_FAULTS))
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_fault_is_reported(self, monkeypatch, law, m):
        helper, fault = AUDIT_FAULTS[law]
        monkeypatch.setattr(involution, helper, fault(getattr(involution, helper)))
        report = orbit_audit(m, 16)
        assert law in {name for name, _ in report.violations}


def counts_off_at(*sizes):
    """`_distinct_counts` with the sign +1 count of each given size one too high."""

    def corrupted(m, order, sign=1):
        c = _distinct_counts(m, order, sign)
        for size in sizes:
            if sign > 0 and size <= order:
                c[size] += 1
        return c

    return corrupted


class TestPartitionCountLaw:
    def test_count_fault_is_reported_in_size_order(self, monkeypatch):
        monkeypatch.setattr(involution, "_distinct_counts", counts_off_at(11, 7))
        report = orbit_audit(1, 14)
        real = _distinct_counts(1, 14)
        assert report.violations == [
            ("partition-count", (7, real[7], real[7] + 1)),
            ("partition-count", (11, real[11], real[11] + 1)),
        ]

    def test_count_fault_follows_that_sizes_partition_laws(self, monkeypatch):
        real_tau = involution._tau_tuple

        def corrupted(parts, m, lands):
            image = real_tau(parts, m, lands)
            return (image[0] + 1,) + image[1:]

        monkeypatch.setattr(involution, "_tau_tuple", corrupted)
        monkeypatch.setattr(involution, "_distinct_counts", counts_off_at(3))
        violations = orbit_audit(0, 5).violations
        sizes = [item[0] if law == "partition-count" else sum(item) for law, item in violations]
        at = [law for law, _ in violations].index("partition-count")
        assert sizes == sorted(sizes)
        assert sizes[at - 1] == sizes[at] == 3 < sizes[at + 1]

    def test_count_fault_under_sizes(self, monkeypatch):
        monkeypatch.setattr(involution, "_distinct_counts", counts_off_at(12))
        assert orbit_audit(2, 20, sizes=[12]).violations[0][0] == "partition-count"
        assert orbit_audit(2, 20, sizes=[11, 13]).violations == []

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_enumerator_dropping_a_partition_is_reported(self, monkeypatch, m):
        real = involution._distinct_tuples

        def drops_last(total, m):
            found = list(real(total, m))
            return iter(found[:-1] if total == 9 + m else found)

        monkeypatch.setattr(involution, "_distinct_tuples", drops_last)
        report = orbit_audit(m, 16)
        expected = _distinct_counts(m, 16)[9 + m]
        assert ("partition-count", (9 + m, expected - 1, expected)) in report.violations


class TestFixedCountLaw:
    @staticmethod
    def odd_tally_off_at(size):
        def corrupted(m, order):
            even, odd = _fixed_point_tallies(m, order)
            odd[size] += 1
            return even, odd

        return corrupted

    def test_tally_fault_names_size_and_parity(self, monkeypatch):
        # the one fixed point of size 5 at m = 0 is (3, 2), two parts
        monkeypatch.setattr(involution, "_fixed_point_tallies", self.odd_tally_off_at(5))
        assert orbit_audit(0, 8).violations == [("fixed-count", (5, "odd", 0, 1))]
        assert orbit_audit(0, 8, sizes=[4, 6]).violations == []

    def test_counted_after_that_sizes_partition_count(self, monkeypatch):
        monkeypatch.setattr(involution, "_fixed_point_tallies", self.odd_tally_off_at(7))
        monkeypatch.setattr(involution, "_distinct_counts", counts_off_at(7))
        violations = orbit_audit(1, 9).violations
        real = _distinct_counts(1, 9)[7]
        assert [law for law, _ in violations] == ["partition-count", "fixed-count"]
        assert violations[0] == ("partition-count", (7, real, real + 1))


def moved_counts_shifted_at(size):
    """`_audit_one` counting one tau-moved partition of the given size as sigma-moved."""
    real = involution._audit_one

    def corrupted(at, m, violations):
        tau_n, sigma_n, even, odd, both = real(at, m, violations)
        if at == size:
            tau_n, sigma_n = tau_n - 1, sigma_n + 1
        return tau_n, sigma_n, even, odd, both

    return corrupted


class TestPairCountLaw:
    def test_moved_count_fault_fires_only_the_pair_count_law(self, monkeypatch):
        tau_n, sigma_n, *_ = involution._audit_one(9, 1, [])
        clean = orbit_audit(1, 14)
        monkeypatch.setattr(involution, "_audit_one", moved_counts_shifted_at(9))
        report = orbit_audit(1, 14)
        assert report.violations == [("pair-count", (9, tau_n - 1, sigma_n + 1))]
        moved = report.tau_moved + 1, report.sigma_moved - 1
        assert moved == (clean.tau_moved, clean.sigma_moved)
        assert report[:5] == clean[:5]  # m, size range, total, paired and fixed counts

    def test_counted_after_that_sizes_partition_count(self, monkeypatch):
        monkeypatch.setattr(involution, "_audit_one", moved_counts_shifted_at(7))
        monkeypatch.setattr(involution, "_distinct_counts", counts_off_at(7))
        violations = orbit_audit(1, 9).violations
        assert [law for law, _ in violations] == ["partition-count", "pair-count"]


class TestCancellationStats:
    def test_m0_explains_everything(self):
        for row in cancellation_stats(0, 60):
            assert row.residual == 0
            assert row.fixed in (0, 1)

    def test_m3_size_fifty(self):
        row = cancellation_stats(3, 50)[50]
        assert row.fixed_positive >= 1
        assert row.fixed_negative >= 1
        assert row.residual >= 1

    def test_residual_onset_law(self):
        # the n-part fixed points fill sizes base(n)..base(n) + n(m+1), and
        # base(n+1) - base(n) = 3n+1+m, so parts n and n+1 first meet once n(m-2) >= m+1
        def base(n, m):
            return (3 * n * n - n) // 2 + n * m

        onsets = {}
        for m in range(13):
            table = cancellation_stats(m, 1000)
            onsets[m] = next((row.size for row in table if row.residual), None)
            if m <= 2:
                assert onsets[m] is None, m
            else:
                n_star = -(-(m + 1) // (m - 2))
                assert onsets[m] == base(n_star + 1, m), m
        assert [onsets[m] for m in range(3, 11)] == [50, 38, 27, 30, 33, 36, 39, 42]

    def test_coefficient_matches_signed_dp(self):
        for m in range(4):
            table = cancellation_stats(m, 45)
            dp = count_distinct_signed(m, 45)
            for row in table:
                assert row.product_coefficient == dp[row.size][1]
                assert row.partitions == dp[row.size][0]

    def test_fixed_tally_matches_enumeration(self):
        for m in range(4):
            table = cancellation_stats(m, 40)
            per_size = [0] * 41
            for p, _ in enumerate_fixed_points(m, 40):
                per_size[p.size] += 1
            for row in table:
                assert row.fixed == per_size[row.size]
                assert row.fixed == row.fixed_positive + row.fixed_negative
                assert row.residual == min(row.fixed_positive, row.fixed_negative)

    @pytest.mark.parametrize("m", range(7))
    def test_closed_form_tallies_match_box_enumeration(self, m):
        for max_size in (0, 1, 7, 60):
            pos = [0] * (max_size + 1)
            neg = [0] * (max_size + 1)
            n = 0
            while (base := (3 * n * n - n) // 2 + n * m) <= max_size:
                tally = neg if n % 2 else pos
                for r in range(max_size - base + 1):
                    tally[base + r] += sum(1 for _ in _box_lex((0,) * n, m, r))
                    if n:
                        # mu_1 = m + 1, mu_n >= 1: one less in rows 2..n
                        tally[base + r] += sum(1 for _ in _box_lex((0,) * (n - 1), m, r - m - n))
                n += 1
            table = cancellation_stats(m, max_size)
            assert [row.fixed_positive for row in table] == pos
            assert [row.fixed_negative for row in table] == neg

    def test_m20_to_400_matches_the_product(self):
        table = cancellation_stats(20, 400)
        assert [r.fixed_positive - r.fixed_negative for r in table] == _product_coeffs(20, 400, -1)
        assert [r.partitions for r in table] == _product_coeffs(20, 400, 1)

    @pytest.mark.parametrize("m,max_size", [(10, 250), (6, 300), (0, 1500)])
    def test_rows_read_the_columns_field_by_field(self, m, max_size):
        counts = _distinct_counts(m, max_size)
        pos, neg = _fixed_point_tallies(m, max_size)
        table = cancellation_stats(m, max_size)
        assert len(table) == max_size + 1
        for s, row in enumerate(table):
            assert type(row) is SizeStats
            assert row.size == s
            assert row.partitions == counts[s]
            assert row.fixed == pos[s] + neg[s]
            assert row.fixed_positive == pos[s]
            assert row.fixed_negative == neg[s]
            assert row.residual == min(pos[s], neg[s])
            assert row.product_coefficient == pos[s] - neg[s]


class TestSizeStats:
    def test_fields_cannot_be_assigned(self):
        row = cancellation_stats(0, 3)[0]
        with pytest.raises(AttributeError):
            row.size = 7

    def test_repr_names_every_field(self):
        assert repr(cancellation_stats(0, 3)[0]) == (
            "SizeStats(size=0, partitions=1, fixed=1, fixed_positive=1,"
            " fixed_negative=0, residual=0, product_coefficient=1)"
        )

    def test_keyword_construction(self):
        row = SizeStats(
            size=4,
            partitions=2,
            fixed=0,
            fixed_positive=0,
            fixed_negative=0,
            residual=0,
            product_coefficient=0,
        )
        assert row == cancellation_stats(0, 4)[4]
        assert tuple(row) == (4, 2, 0, 0, 0, 0, 0)
