"""Exact truncated power series in q and in (z, q) with integer coefficients.

QSeries holds coefficients c[0..order]; ZQSeries holds z-columns, the
q-coefficient lists of z**k for k <= max_distinct_parts(q_order), every
later power of z being zero, so its truncation is q_order alone.  ZQSeries
arithmetic is exact (Python integers), never reads or writes past the
truncation and requires matching orders.  The expansions
step plain coefficient lists in place and invert no series: times (1 +- q^k)
or (1 + z q^i) by a shifted add, over (1 - q^n) by a stride running sum.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import isqrt
from operator import add, sub
from typing import Callable, Iterable, Iterator, Sequence


class TruncationMismatch(ValueError):
    """Operands were truncated at different orders."""


class NonUnitConstantTerm(ValueError):
    """Series inversion needs constant term +1 or -1."""


def _nonnegative(**args: int) -> None:
    """The one check that sizes, orders and bounds are nonnegative; names the negative ones."""
    if min(args.values()) < 0:
        negative = [name for name, value in args.items() if value < 0]
        raise ValueError(f"{' and '.join(negative)} must be nonnegative")


class QSeries:
    """Integer power series in q truncated (inclusively) at `order`."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[int] = ()):
        _nonnegative(order=order)
        c = list(coeffs)
        if len(c) > order + 1:
            raise ValueError(f"{len(c)} coefficients exceed order {order}")
        c.extend([0] * (order + 1 - len(c)))
        self.order = order
        self.coeffs = c

    def invert(self) -> "QSeries":
        """Multiplicative inverse up to the order; constant term must be a unit."""
        u = self.coeffs[0]
        if u not in (1, -1):
            raise NonUnitConstantTerm(f"constant term {u} is not +1 or -1")
        a = self.coeffs
        b = [0] * (self.order + 1)
        b[0] = u
        for k in range(1, self.order + 1):
            acc = 0
            for j in range(1, k + 1):
                if a[j]:
                    acc += a[j] * b[k - j]
            b[k] = -u * acc
        return QSeries(self.order, b)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"QSeries(order={self.order}, {format_series(self)})"


def format_series(s: QSeries) -> str:
    """Human form like ``1 - q - q^2 + q^5``; zero terms omitted."""
    pieces = []
    for k, c in enumerate(s.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "q" if k == 1 else f"q^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


class ZQSeries:
    """Integer series in q and z, truncated at q_order.

    Stored as z-columns: columns[k] lists the coefficients of q**0..q**q_order
    in z**k.  Only k <= max_distinct_parts(q_order) is stored and every
    later power of z reads as 0, as in a generating function of
    distinct-part partitions by part count (k distinct parts sum to at least
    k(k+1)/2); a nonzero coefficient there is rejected.
    """

    __slots__ = ("q_order", "columns")

    def __init__(self, q_order: int, columns: Sequence[Sequence[int]] = ()):
        _nonnegative(q_order=q_order)
        if any(len(c) > q_order + 1 for c in columns):
            raise ValueError("columns do not fit the truncation")
        stored = max_distinct_parts(q_order) + 1
        if any(any(c) for c in columns[stored:]):
            raise ValueError(f"nonzero z power above max_distinct_parts({q_order})")
        self.q_order = q_order
        self.columns = [list(c) + [0] * (q_order + 1 - len(c)) for c in columns[:stored]]
        self.columns += ([0] * (q_order + 1) for _ in range(stored - len(self.columns)))

    @classmethod
    def one(cls, q_order: int) -> "ZQSeries":
        return cls(q_order, [[1]])

    def _check(self, other: "ZQSeries") -> None:
        if self.q_order != other.q_order:
            raise TruncationMismatch(f"q orders differ: {self.q_order} vs {other.q_order}")

    def __iadd__(self, other: "ZQSeries") -> "ZQSeries":
        self._check(other)
        for total, c in zip(self.columns, other.columns):
            total[:] = map(add, total, c)
        return self

    def __mul__(self, other: "ZQSeries") -> "ZQSeries":
        self._check(other)
        n = self.q_order
        out = [[0] * (n + 1) for _ in range(len(self.columns) + len(other.columns) - 1)]
        for k1, a in enumerate(self.columns):
            for k2, b in enumerate(other.columns):
                for j, v in enumerate(a):
                    if v:
                        _add_shifted(out[k1 + k2], [v * x for x in b], j, add)
        return ZQSeries(n, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZQSeries)
            and self.q_order == other.q_order
            and self.columns == other.columns
        )

    def __repr__(self) -> str:
        return f"ZQSeries({self.q_order}, {self.columns})"


def _product_coeffs(m: int, order: int, sign: int) -> list[int]:
    """Coefficients of prod_{k>m} (1 + sign*q^k) up to q**order, by the knapsack.

    The series of `_distinct_counts(m, order, sign)`, by another algorithm.
    The factors m < k <= order go in largest first.  Once every factor
    j > k is in, c is zero strictly between q**0 and q**(k+1), so the
    knapsack update c[i] += sign*c[i-k] for factor k sets c[k] = sign,
    leaves c[k+1..2k] alone and touches only c[2k+1:]: about order**2/4
    element updates in all, not order**2/2, and O(1) for every k > order/2.
    The update must still read only old values, since it reads c[k+1:] and
    writes c[2k+1:], which overlap; the slice assignment builds the whole
    right side before writing any of it.
    """
    op = add if sign > 0 else sub
    c = [1] + [0] * order
    for k in range(order, m, -1):
        c[k] = sign
        c[2 * k + 1 :] = map(op, c[2 * k + 1 :], c[k + 1 :])
    return c


def _distinct_counts(m: int, order: int, sign: int = 1) -> list[int]:
    """Coefficients of prod_{k>m} (1 + sign*q^k) up to q**order, sign = +1 or -1.

    For sign = +1 these count the partitions of each size into distinct
    parts > m.  Euler: prod_{k>m} (1 + sign*q^k) = sum_n sign^n q^{e(n)} / (q)_n
    with e(n) = nm + n(n+1)/2, as removing the staircase (m+n, ..., m+1)
    from n such parts leaves a partition into at most n parts.  The sum is
    nested Horner-style: V_N = sign^N for the largest N with e(N) <= order,
    V_{n-1} = sign^{n-1} + q^{n+m} V_n / (1 - q^n) down to n = 1, and V_0
    is the product.  V_n is read up to q**(order - e(n)) and no further, so
    step n divides exactly order - e(n) + 1 entries by `_divide_step`, the
    shift is a list splice and the sign lands on the constant term alone,
    so for sign = -1 the entries stay near the size of the product's own
    coefficients (11 bits at most for m = 0, order 4000).  About
    order**1.5 element steps, not the order**2/4 big-integer adds of the
    `_product_coeffs` knapsack, which stays the reference route.
    """
    b = 2 * m + 1
    top = (isqrt(b * b + 8 * order) - b) // 2  # the largest n with e(n) <= order
    v = [sign**top] + [0] * (order - top * m - top * (top + 1) // 2)
    for n in range(top, 0, -1):
        _divide_step(v, n)
        v[:0] = [sign ** (n - 1)] + [0] * (n + m - 1)
    return v


def euler_product(m: int, order: int) -> QSeries:
    """Product of (1 - q**k) over m < k <= order, truncated at order.

    Read from Euler's signed staircase sum, `_distinct_counts(m, order, -1)`.
    """
    _nonnegative(m=m, order=order)
    return QSeries(order, _distinct_counts(m, order, -1))


def _divide_step(c: list[int], n: int) -> None:
    """Divide c by (1 - q^n) in place: a stride-n running sum, c[k] += c[k-n].

    The one division kernel: `_gauss_step`, `_durfee_terms` and
    `_distinct_counts` all divide through it.
    """
    for r in range(min(n, len(c) - n)):
        c[r::n] = accumulate(c[r::n])


def _gauss_step(c: list[int], n: int, m: int) -> None:
    """Turn [n+m-1, m]_q into [n+m, m]_q in place, truncated at len(c) - 1.

    [n+m, m] = [n+m-1, m] (1 - q^{n+m}) / (1 - q^n) for n >= 1.  The product
    is a descending subtract, c[k] -= c[k-n-m], then `_divide_step`.  Both
    read only lower coefficients, so the truncation loses nothing a kept
    coefficient needs.
    """
    c[n + m :] = map(sub, c[n + m :], c)  # the right side is built before any write
    _divide_step(c, n)


def _gauss_columns(
    m: int, order: int, lead: Callable[[int], int]
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (n, lead(n), [n+m, m]_q) for n = 0, 1, ... while lead(n) <= order.

    One column is stepped in place by `_gauss_step`, so each yield holds
    until the next.  Before step n it is cut or zero-padded to
    min(nm, order - lead(n)) + 1 entries: [n+m, m] has degree nm, and a term
    at lead(n) reads no entry past order - lead(n).  Exact, since the step
    reads only lower entries.  For m = 0 the column stays [1].  The closed
    forms read it (`rhs_general`, `_fixed_point_tallies`, `gauss_binomial`);
    the product does not, so `verify` can set the two against each other.
    """
    column = [1]
    n = 0
    while (e := lead(n)) <= order:
        if n:
            size = min(n * m, order - e) + 1
            column[size:] = [0] * (size - len(column))  # past the end: appends
            _gauss_step(column, n, m)
        yield n, e, column
        n += 1


def _add_shifted(out: list[int], c: Sequence[int], shift: int, op) -> None:
    """out[shift + k] = op(out[shift + k], c[k]) wherever shift + k stays in out."""
    end = min(len(out), shift + len(c))
    if shift < end:
        out[shift:end] = map(op, out[shift:end], c)


def _times_one_plus_zq(columns: list[list[int]], i: int) -> None:
    """Multiply z-columns by (1 + z q^i) in place, highest power of z first."""
    for k in range(len(columns) - 1, 0, -1):
        _add_shifted(columns[k], columns[k - 1], i, add)


def _shifted(columns: list[list[int]], lead: int, z_shift: int, q_order: int) -> ZQSeries:
    """z^{z_shift} q^{lead} times the z-columns, as a truncated ZQSeries."""
    pad = [0] * lead
    return ZQSeries(q_order, [[]] * z_shift + [(pad + c)[: q_order + 1] for c in columns])


def pochhammer_neg_zq(n: int, q_order: int) -> ZQSeries:
    """(-zq)_n = product of (1 + z q**i) for 1 <= i <= n, truncated."""
    _nonnegative(n=n, q_order=q_order)
    series = ZQSeries.one(q_order)
    for i in range(1, min(n, q_order) + 1):
        _times_one_plus_zq(series.columns, i)
    return series


def _durfee_terms(q_order: int) -> Iterator[tuple[int, ZQSeries, ZQSeries]]:
    """Yield (d, one, two) for d >= 1 while z^d q^{(3d^2-d)/2} stays in the truncation.

    one = z^d q^{(3d^2-d)/2} (-zq)_{d-1} / (q)_d counts the distinct-part
    partitions of Durfee dimension d in category One, two = z q^{2d} one
    those in category Two; every later term is zero within the truncation.
    One list of z-columns is stepped in place: divided by (1 - q^d) it holds
    (-zq)_{d-1} / (q)_d for the yield, then times (1 + z q^d) it is set for d + 1.
    """
    columns = ZQSeries.one(q_order).columns
    d = 1
    while (lead := (3 * d * d - d) // 2) <= q_order:
        for c in columns:
            _divide_step(c, d)
        one = _shifted(columns, lead, d, q_order)
        yield d, one, _shifted(columns, lead + 2 * d, d + 1, q_order)
        _times_one_plus_zq(columns, d)
        d += 1


def gauss_binomial(a: int, b: int) -> QSeries:
    """The Gaussian binomial [a, b]_q as an exact polynomial of degree b(a-b).

    Item n of `_gauss_columns`, with n the smaller of b and a-b (the
    polynomial is symmetric in the two); integer coefficient lists only, no
    division, and every coefficient is positive.
    """
    if b < 0 or b > a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    n, m = sorted((b, a - b))
    _, _, c = next(islice(_gauss_columns(m, n * m, lambda k: 0), n, None))
    return QSeries(n * m, c)


def rhs_general(m: int, order: int) -> QSeries:
    """Closed-form expansion of the product over parts > m.

    Sum over n >= 0 of (-1)^n [n+m, m]_q q^{(3n^2+n)/2 + nm} (1 - q^{2n+m+1}),
    including terms while their leading exponent stays within the order,
    each read from `_gauss_columns`.
    """
    _nonnegative(m=m, order=order)
    c = [0] * (order + 1)
    for n, lead, column in _gauss_columns(m, order, lambda n: (3 * n * n + n) // 2 + n * m):
        plus, minus = (sub, add) if n % 2 else (add, sub)
        _add_shifted(c, column, lead, plus)
        _add_shifted(c, column, lead + 2 * n + m + 1, minus)
    return QSeries(order, c)


def _fixed_point_tallies(m: int, order: int) -> tuple[list[int], list[int]]:
    """Fixed points counted by size up to order: (even part count, odd part count).

    The n-part fixed points are counted by q^{base(n)} ([n+m, m]_q +
    q^{n+m} [n+m-1, m]_q), base(n) = (3n^2-n)/2 + nm, whose coefficients are
    nonnegative; their sign is (-1)^n.  Column n of `_gauss_columns` is read
    twice before its next step: at base(n) for term n, and at
    base(n+1) + n+1+m = base(n) + 4n+2+2m for the second half of term n+1.
    """
    tallies = ([0] * (order + 1), [0] * (order + 1))
    for n, base, column in _gauss_columns(m, order, lambda n: (3 * n * n - n) // 2 + n * m):
        _add_shifted(tallies[n % 2], column, base, add)
        _add_shifted(tallies[1 - n % 2], column, base + 4 * n + 2 + 2 * m, add)
    return tallies


def rhs_fixed_points(m: int, order: int) -> QSeries:
    """Sum of the per-n fixed-point polynomials, truncated at order."""
    _nonnegative(m=m, order=order)
    even, odd = _fixed_point_tallies(m, order)
    return QSeries(order, list(map(sub, even, odd)))


def sylvester_sides(q_order: int) -> tuple[ZQSeries, ZQSeries]:
    """Both sides of Sylvester's Durfee-square identity, truncated alike.

    Left: product of (1 + z q**n) for n >= 1.  Right: 1 plus the sum over
    n >= 1 of z^n q^{(3n^2-n)/2} (1 + z q^{2n}) (-zq)_{n-1} / (q)_n, the
    terms of `_durfee_terms`.
    """
    _nonnegative(q_order=q_order)
    lhs = pochhammer_neg_zq(q_order, q_order)
    rhs = ZQSeries.one(q_order)
    for _, one, two in _durfee_terms(q_order):
        rhs += one
        rhs += two
    return lhs, rhs


def max_distinct_parts(size: int) -> int:
    """Largest k with k(k+1)/2 <= size: a cap on distinct part counts."""
    _nonnegative(size=size)
    return (isqrt(8 * size + 1) - 1) // 2
