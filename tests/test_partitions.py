import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franklin import partitions
from franklin.partitions import (
    DistinctPartition,
    DurfeeCategory,
    SignedMonomial,
    _TAIL,
    _distinct_tuples,
    _tails,
    base_partition,
    count_distinct_signed,
    durfee,
    enumerate_distinct,
    format_partition,
    parse_partition,
    weight,
)


def brute_distinct(total, m):
    """Oracle: subsets of {m+1, ..., total} summing to total."""
    universe = range(m + 1, total + 1)
    found = set()
    for r in range(total + 2):
        for combo in combinations(universe, r):
            if sum(combo) == total:
                found.add(tuple(sorted(combo, reverse=True)))
    return found


@st.composite
def distinct_parts(draw, m=0, max_part=30, max_n=8):
    universe = list(range(m + 1, max_part + 1))
    chosen = draw(st.sets(st.sampled_from(universe), max_size=max_n))
    return tuple(sorted(chosen, reverse=True))


class TestDistinctPartition:
    def test_valid_construction(self):
        p = DistinctPartition((14, 11, 9, 8, 6))
        assert p.n == 5
        assert p.size == 48
        assert p.parts[-1] == 6

    def test_empty(self):
        p = DistinctPartition()
        assert p.n == 0
        assert p.size == 0
        assert p.parts == ()

    @pytest.mark.parametrize("bad", [(5, 5), (3, 4), (2, 0), (1, -1), (0,)])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            DistinctPartition(bad)

    @pytest.mark.parametrize("bad", [(3.5, 2), (2.0,), (True,), ("3",), (4, False)])
    def test_parts_that_are_not_ints_rejected(self, bad):
        with pytest.raises(ValueError, match="parts must be positive integers"):
            DistinctPartition(bad)

    def test_equality_and_hash(self):
        assert DistinctPartition((3, 1)) == DistinctPartition([3, 1])
        assert hash(DistinctPartition((3, 1))) == hash(DistinctPartition((3, 1)))
        assert DistinctPartition((3, 1)) != DistinctPartition((3, 2))


class TestParse:
    def test_typical_input(self):
        assert parse_partition("14,11,9,8,6").parts == (14, 11, 9, 8, 6)

    def test_empty_string(self):
        assert parse_partition("").n == 0
        assert parse_partition("  ").n == 0

    def test_not_strictly_decreasing(self):
        with pytest.raises(ValueError):
            parse_partition("5,5")

    @pytest.mark.parametrize("text", ["a,b", "3,x", "4,,2", "3.5", "1_0", "\u0663"])
    def test_non_integer_token(self, text):
        with pytest.raises(ValueError, match="not an integer"):
            parse_partition(text)

    @pytest.mark.parametrize("text", ["3,0", "-1"])
    def test_nonpositive_part(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)

    def test_parts_as_long_as_int_reads(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 4300 by default
        if not limit:
            pytest.skip("int() reads any number of digits")
        text = "9" * limit + ",1"
        assert format_partition(parse_partition(text)) == text
        with pytest.raises(ValueError, match="not an integer"):
            parse_partition("9" * (limit + 1))

    def test_whitespace_insignificant(self):
        assert parse_partition(" 5 , 3 ").parts == (5, 3)

    @given(distinct_parts())
    def test_roundtrip(self, parts):
        p = DistinctPartition(parts)
        assert parse_partition(format_partition(p)) == p


class TestWeight:
    def test_five_parts(self):
        assert weight(DistinctPartition((14, 11, 9, 8, 6))) == SignedMonomial(-1, 48)

    def test_empty(self):
        assert weight(DistinctPartition()) == SignedMonomial(1, 0)

    def test_size_fifty_fixed_point(self):
        assert weight(DistinctPartition((12, 11, 10, 9, 8))) == SignedMonomial(-1, 50)

    # a bool or a float equal to a valid value is still rejected: `type(x) is int`
    @pytest.mark.parametrize(
        "sign,exponent",
        [(2, 0), (1, -3), (True, 3), (1.0, 3), (-1.0, 3), (1, 2.5), (-1, False), (1, 3.0), (1, "3")],
    )
    def test_sign_validation(self, sign, exponent):
        with pytest.raises(ValueError, match="must be"):
            SignedMonomial(sign, exponent)

    def test_keyword_construction_validates(self):
        assert SignedMonomial(sign=-1, exponent=4) == SignedMonomial(-1, 4)
        with pytest.raises(ValueError, match="^sign must be"):
            SignedMonomial(sign=0, exponent=4)

    def test_replace_and_make_validate(self):
        w = SignedMonomial(1, 3)
        assert w._replace(sign=-1) == SignedMonomial(-1, 3)
        assert type(SignedMonomial._make((1, 0))) is SignedMonomial
        with pytest.raises(ValueError):
            w._replace(exponent=-1)
        with pytest.raises(ValueError):
            SignedMonomial._make((True, 3))


class TestDurfee:
    @pytest.mark.parametrize(
        "parts,dim,cat",
        [
            ((3, 2, 1), 2, DurfeeCategory.ONE),
            ((4, 3, 2), 2, DurfeeCategory.TWO),
            ((5,), 1, DurfeeCategory.ONE),
            ((), 0, DurfeeCategory.ONE),
            ((2, 1), 1, DurfeeCategory.TWO),
        ],
    )
    def test_examples(self, parts, dim, cat):
        info = durfee(DistinctPartition(parts))
        assert info.dimension == dim
        assert info.category == cat

    @given(distinct_parts())
    def test_against_definition(self, parts):
        info = durfee(DistinctPartition(parts))
        candidates = [i for i in range(1, len(parts) + 1) if parts[i - 1] >= i]
        assert info.dimension == (max(candidates) if candidates else 0)
        d = info.dimension
        expect_two = len(parts) > d and parts[d] == d
        assert (info.category == DurfeeCategory.TWO) == expect_two


class TestEnumerate:
    def test_five_no_bound(self):
        got = [p.parts for p in enumerate_distinct(5, 0)]
        assert got == [(5,), (4, 1), (3, 2)]

    def test_five_parts_above_two(self):
        assert [p.parts for p in enumerate_distinct(5, 2)] == [(5,)]

    def test_empty_stream(self):
        assert list(enumerate_distinct(1, 1)) == []

    def test_zero_size(self):
        assert [p.parts for p in enumerate_distinct(0, 3)] == [()]

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("total", [0, 1, 7, 13, 20])
    def test_matches_subset_oracle(self, total, m):
        got = [p.parts for p in enumerate_distinct(total, m)]
        assert len(got) == len(set(got)), "duplicates in stream"
        assert set(got) == brute_distinct(total, m)
        assert got == sorted(got, reverse=True), "not decreasing lexicographic"

    @given(st.integers(0, 28), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_stream_invariants(self, total, m):
        for p in enumerate_distinct(total, m):
            assert p.size == total
            assert p.n == 0 or p.parts[-1] > m


class TestDistinctTuples:
    @pytest.mark.parametrize("m", range(5))
    def test_valid_strictly_decreasing_lex_and_counted(self, m):
        counts = count_distinct_signed(m, 60)
        for total in range(61):
            got = list(_distinct_tuples(total, m))
            for parts in got:
                assert sum(parts) == total
                assert all(a > b for a, b in zip(parts, parts[1:]))
                assert not parts or parts[-1] > m
            assert all(a > b for a, b in zip(got, got[1:])), "not strictly decreasing lex"
            assert len(got) == counts[total][0]

    @pytest.mark.parametrize("m", [0, 2, 7, 16, 17, 30])
    def test_matches_combinations_across_the_tail_boundary(self, m):
        # totals up to 45 cover rests of _TAIL - 1, _TAIL and _TAIL + 1
        max_total = 45
        by_total = {total: [] for total in range(max_total + 1)}
        r = 0
        while (least := r * (2 * m + r + 1) // 2) <= max_total:  # (m+1) + ... + (m+r)
            # the other r - 1 parts take at least least - (m + r)
            for combo in combinations(range(m + 1, max_total - least + m + r + 1), r):
                if (total := sum(combo)) <= max_total:
                    by_total[total].append(combo[::-1])
            r += 1
        assert list(_distinct_tuples(-1, m)) == []
        for total, found in by_total.items():
            assert list(_distinct_tuples(total, m)) == sorted(found, reverse=True), total

    def test_tail_memo_holds_one_entry_per_fillable_key(self):
        _tails.cache_clear()
        for m in range(5):
            for total in range(61):
                for _ in _distinct_tuples(total, m):
                    pass
        fillable = [
            (rest, cap, m)
            for m in range(5)
            for rest in range(m + 1, _TAIL + 1)
            for cap in range(m + 1, rest + 1)
            if (cap + m + 1) * (cap - m) // 2 >= rest  # (m+1) + ... + cap
        ]
        assert _tails.cache_info().currsize == len(fillable) == 389

    def test_tail_memo_holds_616_entries_over_every_m(self):
        _tails.cache_clear()
        for m in range(18):
            for total in range(60):
                for _ in _distinct_tuples(total, m):
                    pass
        assert _tails.cache_info().currsize == 616

    def test_tail_memo_is_only_a_cache(self, monkeypatch):
        # where the loop hands over to the memo changes no output
        want = {(total, m): list(_distinct_tuples(total, m)) for m in (0, 2, 5) for total in range(46)}
        for tail in (0, 3, _TAIL, 45):
            monkeypatch.setattr(partitions, "_TAIL", tail)
            _tails.cache_clear()
            for (total, m), found in want.items():
                assert list(_distinct_tuples(total, m)) == found, (tail, total, m)
        _tails.cache_clear()

    @pytest.mark.parametrize("m", [0, 3])
    def test_negative_total_yields_nothing(self, m):
        assert list(_distinct_tuples(-1, m)) == []
        assert list(_distinct_tuples(-7, m)) == []


class TestCountSigned:
    def test_small_pentagonal_values(self):
        table = count_distinct_signed(0, 12)
        assert table[5] == (3, 1)
        assert table[3][1] == 0
        assert table[12][1] == -1

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_matches_enumeration(self, m):
        table = count_distinct_signed(m, 40)
        for total in range(41):
            ps = list(enumerate_distinct(total, m))
            assert table[total][0] == len(ps)
            assert table[total][1] == sum(1 if p.n % 2 == 0 else -1 for p in ps)

    def test_pentagonal_support(self):
        table = count_distinct_signed(0, 120)
        pent = {k * (3 * k - 1) // 2 for k in range(-10, 11)}
        for total, (_, signed) in enumerate(table):
            assert signed in (-1, 0, 1)
            assert (signed != 0) == (total in pent)

    def test_headline_count_of_250(self):
        assert count_distinct_signed(10, 250)[250][0] == 31571191


class TestBasePartition:
    def test_two_parts(self):
        p = base_partition(2, 3)
        assert p.parts == (6, 5)
        assert p.size == 11

    def test_empty(self):
        assert base_partition(0, 7).n == 0

    def test_size_fifty(self):
        assert base_partition(5, 3).parts == (12, 11, 10, 9, 8)

    @given(st.integers(0, 12), st.integers(0, 6))
    def test_size_formula(self, n, m):
        assert base_partition(n, m).size == (3 * n * n - n) // 2 + n * m

