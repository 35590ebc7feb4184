"""Exact truncated power series in q and in (z, q) with integer coefficients.

QSeries holds coefficients c[0..order]; ZQSeries holds a dense grid
c[j][k] for q**j z**k with j <= q_order and k <= z_degree.  All arithmetic
is exact (Python integers) and never reads or writes past the truncation;
binary operations require matching truncation parameters.  The expansions
step plain coefficient lists in place and invert no series: times (1 +- q^k)
or (1 + z q^i) by a shifted add, over (1 - q^n) by a stride running sum.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import add, sub
from typing import Iterable, Iterator, Sequence


class TruncationMismatch(ValueError):
    """Operands were truncated at different orders."""


class NonUnitConstantTerm(ValueError):
    """Series inversion needs constant term +1 or -1."""


class QSeries:
    """Integer power series in q truncated (inclusively) at `order`."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[int] = ()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        c = list(coeffs)
        if len(c) > order + 1:
            raise ValueError(f"{len(c)} coefficients exceed order {order}")
        c.extend([0] * (order + 1 - len(c)))
        self.order = order
        self.coeffs = c

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls(order, [1])

    @classmethod
    def monomial(cls, coeff: int, exponent: int, order: int) -> "QSeries":
        s = cls(order)
        if 0 <= exponent <= order:
            s.coeffs[exponent] = coeff
        elif exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return s

    def coeff(self, k: int) -> int:
        """Coefficient of q**k; k beyond the truncation is unknown, not zero."""
        if not 0 <= k <= self.order:
            raise IndexError(f"exponent {k} outside truncation order {self.order}")
        return self.coeffs[k]

    def shift(self, k: int) -> "QSeries":
        """Multiply by q**k, dropping coefficients pushed past the order."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k > self.order:
            return QSeries(self.order)
        return QSeries(self.order, [0] * k + self.coeffs[: self.order + 1 - k])

    def _check(self, other: "QSeries") -> None:
        if self.order != other.order:
            raise TruncationMismatch(f"orders differ: {self.order} vs {other.order}")

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        return QSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        return QSeries(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "QSeries":
        return QSeries(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries(self.order, [other * a for a in self.coeffs])
        self._check(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs[: n + 1 - i]):
                    if b:
                        out[i + j] += a * b
        return QSeries(n, out)

    __rmul__ = __mul__

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

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

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
    """Integer series in q and z, truncated at q_order and z_degree."""

    __slots__ = ("q_order", "z_degree", "grid")

    def __init__(self, q_order: int, z_degree: int, grid: Sequence[Sequence[int]] | None = None):
        if q_order < 0 or z_degree < 0:
            raise ValueError("truncation parameters must be nonnegative")
        self.q_order = q_order
        self.z_degree = z_degree
        if grid is None:
            self.grid = [[0] * (z_degree + 1) for _ in range(q_order + 1)]
        else:
            if len(grid) != q_order + 1 or any(len(r) != z_degree + 1 for r in grid):
                raise ValueError("grid shape does not match truncation")
            self.grid = [list(r) for r in grid]

    @classmethod
    def one(cls, q_order: int, z_degree: int) -> "ZQSeries":
        s = cls(q_order, z_degree)
        s.grid[0][0] = 1
        return s

    @classmethod
    def monomial(cls, coeff: int, q_exp: int, z_exp: int, q_order: int, z_degree: int) -> "ZQSeries":
        if q_exp < 0 or z_exp < 0:
            raise ValueError("exponents must be nonnegative")
        s = cls(q_order, z_degree)
        if q_exp <= q_order and z_exp <= z_degree:
            s.grid[q_exp][z_exp] = coeff
        return s

    def coeff(self, q_exp: int, z_exp: int) -> int:
        if not (0 <= q_exp <= self.q_order and 0 <= z_exp <= self.z_degree):
            raise IndexError(f"({q_exp}, {z_exp}) outside truncation")
        return self.grid[q_exp][z_exp]

    def z_slice(self, z_exp: int) -> QSeries:
        """Coefficient of z**z_exp as a series in q."""
        if not 0 <= z_exp <= self.z_degree:
            raise IndexError(f"z exponent {z_exp} outside truncation")
        return QSeries(self.q_order, [row[z_exp] for row in self.grid])

    def _check(self, other: "ZQSeries") -> None:
        if self.q_order != other.q_order or self.z_degree != other.z_degree:
            raise TruncationMismatch(
                f"truncations differ: ({self.q_order},{self.z_degree})"
                f" vs ({other.q_order},{other.z_degree})"
            )

    def _items(self) -> list[tuple[int, int, int]]:
        return [
            (j, k, v)
            for j, row in enumerate(self.grid)
            for k, v in enumerate(row)
            if v
        ]

    def __add__(self, other: "ZQSeries") -> "ZQSeries":
        self._check(other)
        return ZQSeries(
            self.q_order,
            self.z_degree,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.grid, other.grid)],
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return ZQSeries(
                self.q_order, self.z_degree, [[other * a for a in r] for r in self.grid]
            )
        self._check(other)
        n, d = self.q_order, self.z_degree
        a_items = self._items()
        b_items = other._items()
        if len(b_items) > len(a_items):
            a_items, b_items = b_items, a_items
        out = [[0] * (d + 1) for _ in range(n + 1)]
        for j1, k1, v1 in a_items:
            jmax = n - j1
            kmax = d - k1
            for j2, k2, v2 in b_items:
                if j2 <= jmax and k2 <= kmax:
                    out[j1 + j2][k1 + k2] += v1 * v2
        return ZQSeries(n, d, out)

    __rmul__ = __mul__

    def eval_z_at_monomial(self, coeff: int, q_exp: int) -> QSeries:
        """Substitute z = coeff * q**q_exp, collapsing to a series in q.

        Exact to q_order provided z powers beyond z_degree cannot reach it,
        i.e. (z_degree + 1) * q_exp > q_order.
        """
        if q_exp < 0:
            raise ValueError("substitution exponent must be nonnegative")
        out = [0] * (self.q_order + 1)
        for j, k, v in self._items():
            e = j + k * q_exp
            if e <= self.q_order:
                out[e] += v * coeff**k
        return QSeries(self.q_order, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZQSeries)
            and self.q_order == other.q_order
            and self.z_degree == other.z_degree
            and self.grid == other.grid
        )

    def __str__(self) -> str:
        pieces = []
        for j, k, v in self._items():
            factors = []
            if abs(v) != 1 or (j == 0 and k == 0):
                factors.append(str(abs(v)))
            if j:
                factors.append("q" if j == 1 else f"q^{j}")
            if k:
                factors.append("z" if k == 1 else f"z^{k}")
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if v > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(pieces) if pieces else "0"

    __repr__ = __str__


def _product_coeffs(lo: int, hi: int, order: int, sign: int) -> list[int]:
    """Coefficients of prod (1 + sign*q**k) over lo <= k <= hi, up to q**order.

    The knapsack update c[i] += sign*c[i-k] must read only old values; the
    slice assignment builds the whole right side before writing any of it.
    """
    op = add if sign > 0 else sub
    c = [1] + [0] * order
    for k in range(lo, min(hi, order) + 1):
        c[k:] = map(op, c[k:], c)
    return c


def euler_product(m: int, order: int) -> QSeries:
    """Product of (1 - q**k) over m < k <= order, truncated at order."""
    if m < 0 or order < 0:
        raise ValueError("m and order must be nonnegative")
    return QSeries(order, _product_coeffs(m + 1, order, order, -1))


def pochhammer_q(n: int, order: int) -> QSeries:
    """(q)_n = product of (1 - q**i) for 1 <= i <= n, truncated at order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return QSeries(order, _product_coeffs(1, n, order, -1))


def _divide_step(c: list[int], n: int) -> None:
    """Divide c by (1 - q^n) in place: a stride-n running sum, c[k] += c[k-n]."""
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


def _add_shifted(out: list[int], c: Sequence[int], shift: int, op) -> None:
    """out[shift + k] = op(out[shift + k], c[k]) wherever shift + k stays in out."""
    end = min(len(out), shift + len(c))
    if shift < end:
        out[shift:end] = map(op, out[shift:end], c)


def _unit_columns(q_order: int, z_degree: int) -> list[list[int]]:
    """1 as q-coefficient lists of z^k, for the k <= max_distinct_parts(q_order): the rest stay 0."""
    if q_order < 0 or z_degree < 0:
        raise ValueError("truncation parameters must be nonnegative")
    columns = [[0] * (q_order + 1) for _ in range(min(z_degree, max_distinct_parts(q_order)) + 1)]
    columns[0][0] = 1
    return columns


def _times_one_plus_zq(columns: list[list[int]], i: int) -> None:
    """Multiply z-columns by (1 + z q^i) in place, highest power of z first."""
    for k in range(len(columns) - 1, 0, -1):
        _add_shifted(columns[k], columns[k - 1], i, add)


def _zq_from_columns(
    columns: list[list[int]], lead: int, z_shift: int, q_order: int, z_degree: int
) -> ZQSeries:
    """z^{z_shift} q^{lead} times the z-columns, as a truncated ZQSeries."""
    zero = [0] * (q_order + 1)
    shifted = [zero] * (z_degree + 1)
    for k, c in enumerate(columns[: max(z_degree + 1 - z_shift, 0)]):
        shifted[k + z_shift] = (zero[:lead] + c)[: q_order + 1]
    return ZQSeries(q_order, z_degree, list(zip(*shifted)))


def pochhammer_neg_zq(n: int, q_order: int, z_degree: int) -> ZQSeries:
    """(-zq)_n = product of (1 + z q**i) for 1 <= i <= n, truncated."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    columns = _unit_columns(q_order, z_degree)
    for i in range(1, min(n, q_order) + 1):
        _times_one_plus_zq(columns, i)
    return _zq_from_columns(columns, 0, 0, q_order, z_degree)


def _durfee_terms(q_order: int, z_degree: int) -> Iterator[tuple[int, ZQSeries, ZQSeries]]:
    """Yield (d, one, two) for d >= 1 while z^d q^{(3d^2-d)/2} stays in the truncation.

    one = z^d q^{(3d^2-d)/2} (-zq)_{d-1} / (q)_d counts the distinct-part
    partitions of Durfee dimension d in category One, two = z q^{2d} one
    those in category Two; every later term is zero within the truncation.
    One list of z-columns is stepped in place: divided by (1 - q^d) it holds
    (-zq)_{d-1} / (q)_d for the yield, then times (1 + z q^d) it is set for d + 1.
    """
    columns = _unit_columns(q_order, z_degree)
    d = 1
    while d <= z_degree and (lead := (3 * d * d - d) // 2) <= q_order:
        for c in columns:
            _divide_step(c, d)
        one = _zq_from_columns(columns, lead, d, q_order, z_degree)
        yield d, one, _zq_from_columns(columns, lead + 2 * d, d + 1, q_order, z_degree)
        _times_one_plus_zq(columns, d)
        d += 1


def gauss_binomial(a: int, b: int) -> QSeries:
    """The Gaussian binomial [a, b]_q as an exact polynomial of degree b(a-b).

    Stepped up from [m, m] = 1 to [n+m, m] by `_gauss_step`, with n the
    smaller of b and a-b (the polynomial is symmetric in the two); integer
    coefficient lists only, no division, and every coefficient is positive.
    """
    if b < 0 or b > a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    n, m = sorted((b, a - b))
    c = [1] + [0] * (n * m)
    for k in range(1, n + 1):
        _gauss_step(c, k, m)
    return QSeries(n * m, c)


def rhs_general(m: int, order: int) -> QSeries:
    """Closed-form expansion of the product over parts > m.

    Sum over n >= 0 of (-1)^n [n+m, m]_q q^{(3n^2+n)/2 + nm} (1 - q^{2n+m+1}),
    including terms while their leading exponent stays within the order.
    One column, stepped from [n+m-1, m] to [n+m, m], serves every n.
    """
    if m < 0 or order < 0:
        raise ValueError("m and order must be nonnegative")
    c = [0] * (order + 1)
    column = [1] + [0] * order
    n = lead = 0
    while lead <= order:
        if n:
            _gauss_step(column, n, m)
        plus, minus = (sub, add) if n % 2 else (add, sub)
        _add_shifted(c, column, lead, plus)
        _add_shifted(c, column, lead + 2 * n + m + 1, minus)
        n += 1
        lead = (3 * n * n + n) // 2 + n * m
    return QSeries(order, c)


def fixed_point_polynomial(n: int, m: int) -> QSeries:
    """Signed generating polynomial of the involution fixed points with n parts.

    (-1)^n q^{(3n^2-n)/2 + nm} ([n+m, m]_q + q^{n+m} [n+m-1, m]_q); the
    second binomial vanishes when n = 0, leaving the empty partition's 1.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if n == 0:
        return QSeries.one(0)
    base = (3 * n * n - n) // 2 + n * m
    op = sub if n % 2 else add
    previous = gauss_binomial(n + m - 1, m).coeffs + [0] * m
    column = previous.copy()
    _gauss_step(column, n, m)
    c = [0] * (base + n * m + n + 1)
    _add_shifted(c, column, base, op)
    _add_shifted(c, previous, base + n + m, op)
    return QSeries(len(c) - 1, c)


def _fixed_point_tallies(m: int, order: int) -> tuple[list[int], list[int]]:
    """Fixed points counted by size up to order: (even part count, odd part count).

    The n-part fixed points are counted by q^{(3n^2-n)/2 + nm} ([n+m, m]_q +
    q^{n+m} [n+m-1, m]_q), whose coefficients are nonnegative; their sign is
    (-1)^n.  [n+m-1, m] is the column before its step to [n+m, m].
    """
    even = [0] * (order + 1)
    odd = [0] * (order + 1)
    column = [1] + [0] * order
    n = base = 0
    while base <= order:
        tally = odd if n % 2 else even
        if n:
            _add_shifted(tally, column, base + n + m, add)
            _gauss_step(column, n, m)
        _add_shifted(tally, column, base, add)
        n += 1
        base = (3 * n * n - n) // 2 + n * m
    return even, odd


def rhs_fixed_points(m: int, order: int) -> QSeries:
    """Sum of the per-n fixed-point polynomials, truncated at order."""
    if m < 0 or order < 0:
        raise ValueError("m and order must be nonnegative")
    even, odd = _fixed_point_tallies(m, order)
    return QSeries(order, list(map(sub, even, odd)))


def sylvester_sides(q_order: int, z_degree: int) -> tuple[ZQSeries, ZQSeries]:
    """Both sides of Sylvester's Durfee-square identity, truncated alike.

    Left: product of (1 + z q**n) for n >= 1.  Right: 1 plus the sum over
    n >= 1 of z^n q^{(3n^2-n)/2} (1 + z q^{2n}) (-zq)_{n-1} / (q)_n, the
    terms of `_durfee_terms`.
    """
    lhs = pochhammer_neg_zq(q_order, q_order, z_degree)
    rhs = ZQSeries.one(q_order, z_degree)
    for _, one, two in _durfee_terms(q_order, z_degree):
        rhs = rhs + one + two
    return lhs, rhs


def max_distinct_parts(size: int) -> int:
    """Largest k with k(k+1)/2 <= size: a cap on distinct part counts."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    return (isqrt(8 * size + 1) - 1) // 2
