"""Partitions into distinct parts: data model, Durfee statistics, counting.

Parts are stored largest first, so ``parts[0]`` is the longest row of the
Ferrers diagram (drawn at the bottom) and ``parts[-1]`` is the top row.
"""

from __future__ import annotations

import enum
import functools
import re
from typing import Iterable, Iterator, NamedTuple

from .qseries import _nonnegative, _product_coeffs


class DistinctPartition:
    """A partition into strictly decreasing positive parts, largest first.

    The empty partition (n = 0) is valid and is the identity for the
    generating-function bookkeeping: it has weight +1 and size 0.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        prev = 0
        for p in parts:
            if type(p) is not int or p < 1:  # not isinstance: bool is an int subclass
                raise ValueError(f"parts must be positive integers, got {p!r}")
            if prev and p >= prev:
                raise ValueError(f"parts must be strictly decreasing, got {parts}")
            prev = p
        self.parts = parts

    @property
    def n(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, DistinctPartition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"DistinctPartition({list(self.parts)})"


class _Monomial(NamedTuple):
    sign: int
    exponent: int


class SignedMonomial(_Monomial):
    """Exactly sign * q**exponent with sign in {+1, -1}."""

    __slots__ = ()

    def __new__(cls, sign: int, exponent: int):
        # not isinstance: bool is an int subclass
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if type(exponent) is not int or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        return super().__new__(cls, sign, exponent)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> SignedMonomial:
        """Construct through the checks, so `_replace` validates too."""
        return cls(*iterable)

    def __str__(self) -> str:
        s = "+" if self.sign > 0 else "-"
        return f"{s}q^{self.exponent}"


class DurfeeCategory(enum.Enum):
    ONE = "One"
    TWO = "Two"


class DurfeeInfo(NamedTuple):
    """Durfee square dimension plus the shape category at its upper boundary.

    Category TWO means the part just above the square equals the square's
    dimension exactly; ONE covers every other shape (including no such part).
    """

    dimension: int
    category: DurfeeCategory


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_integer(token: str) -> int:
    if not _INTEGER.fullmatch(token.strip()):  # int() also takes '1_0' and non-ASCII digits
        raise ValueError(token)
    return int(token)  # raises ValueError past its digit limit (4300 by default)


def _shown(token: str) -> str:
    """repr(token) for a refusal line; past 22 characters, its first 21, '…' and the token's length."""
    shown = repr(token)
    return shown if len(shown) <= 22 else f"{shown[:21]}… ({len(token)} characters)"


def parse_partition(text: str) -> DistinctPartition:
    """Parse comma-separated decimal parts, largest first.

    Each token is an optional sign and ASCII digits; whitespace around
    tokens is ignored; an empty (or all-space) string is the empty partition.
    """
    if text.strip() == "":
        return DistinctPartition()
    parts = []
    for token in text.split(","):
        token = token.strip()
        try:
            parts.append(_parse_integer(token))
        except ValueError:
            raise ValueError(f"invalid part {_shown(token)}: not an integer") from None
    return DistinctPartition(parts)


def format_partition(p: DistinctPartition) -> str:
    """Inverse of parse_partition; the empty partition renders as ''."""
    return ",".join(map(str, p.parts))


def _parts_text(parts: Iterable) -> str:
    """Every printed partition: comma-separated parts, largest first, or ``()`` when empty."""
    return ",".join(map(str, parts)) or "()"


def weight(p: DistinctPartition) -> SignedMonomial:
    """The signed monomial (-1)**n * q**size contributed by the partition."""
    return SignedMonomial(-1 if p.n % 2 else 1, p.size)


def _durfee(parts: tuple[int, ...]) -> tuple[int, DurfeeCategory]:
    """Durfee dimension and category of raw parts, largest first."""
    d = 0
    for i, part in enumerate(parts, start=1):
        if part >= i:
            d = i
        else:
            break
    two = len(parts) > d and parts[d] == d
    return d, DurfeeCategory.TWO if two else DurfeeCategory.ONE


def durfee(p: DistinctPartition) -> DurfeeInfo:
    """Durfee square dimension d = max{i : part_i >= i} and its category."""
    return DurfeeInfo(*_durfee(p.parts))


_TAIL = 16


@functools.cache
def _tails(rest: int, cap: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Strictly decreasing tuples of parts in (m, cap] summing to rest, decreasing lex.

    Callers pass m < cap <= rest <= _TAIL and only keys that the parts in
    (m, cap] can fill, so the memo is bounded by that key space: 616
    entries over every m (none for m >= _TAIL), 389 of them for
    m = 0..4, about 0.09 MiB with their tuples.
    """
    return tuple(_parts_below(rest, cap, m))


def _parts_below(total: int, cap: int, m: int) -> Iterator[tuple[int, ...]]:
    """Strictly decreasing tuples of parts in (m, cap] summing to total > 0, decreasing lex.

    Depth-first without recursion for the leading parts: `parts` holds the
    chosen prefix and `stack` one `(rest, part)` per open level, the amount
    that level still has to fill and the next part it will try there.  Once
    a part leaves at most _TAIL to fill, every completion comes from the
    memo `_tails`.
    """
    parts: list[int] = []
    stack = [(total, cap)]
    while stack:
        rest, part = stack.pop()
        while part > m:
            left = rest - part
            # parts below `part` can contribute at most (m+1) + ... + (part-1)
            if left > (part + m) * (part - 1 - m) // 2:
                break
            if left > _TAIL:
                stack.append((rest, part - 1))
                parts.append(part)
                rest, part = left, left if left < part else part - 1
                continue
            if not left:
                yield (*parts, part)
            elif left > m:
                tails = _tails(left, left if left < part else part - 1, m)
                yield from map((*parts, part).__add__, tails)
            part -= 1
        if parts:
            parts.pop()


def _distinct_tuples(total: int, m: int) -> Iterator[tuple[int, ...]]:
    """Strictly decreasing tuples of parts > m summing to total, decreasing lex order."""
    return iter([()]) if total == 0 else _parts_below(total, total, m)


def enumerate_distinct(size: int, m: int = 0) -> Iterator[DistinctPartition]:
    """All partitions of `size` into distinct parts > m, decreasing lex order.

    A negative size or m raises at the call.
    """
    _nonnegative(size=size, m=m)
    return map(DistinctPartition, _distinct_tuples(size, m))


def count_distinct_signed(m: int, n_max: int) -> list[tuple[int, int]]:
    """Per-size (count, signed sum) over partitions into distinct parts > m.

    Entry N holds (number of such partitions of N, sum of (-1)**#parts):
    the coefficients of the products of (1 + q**k) and of (1 - q**k) over
    m < k <= n_max, both from the `_product_coeffs` knapsack.  This is the
    reference route: tests compare `cancellation_stats` and `euler_product`,
    which read Euler's staircase sum instead, against it.
    """
    _nonnegative(m=m, n_max=n_max)
    counts = _product_coeffs(m, n_max, 1)
    signed = _product_coeffs(m, n_max, -1)
    return list(zip(counts, signed))


def base_partition(n: int, m: int) -> DistinctPartition:
    """The minimal involution fixed point with n parts: (2n-1+m, ..., n+m)."""
    _nonnegative(n=n, m=m)
    return DistinctPartition(tuple(2 * n - 1 + m - i for i in range(n)))

