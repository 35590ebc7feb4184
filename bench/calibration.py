"""A fixed reference loop that scales the benchmark's times to one machine speed.

On a shared host the same pass can take 1.7 times as long for tens of
seconds at a time, and a run cannot average that away.  The reference loop
runs between passes and slows down with them.  The run reports each pass's
time multiplied by ``REFERENCE_SECONDS / loop time``, the loop time being
the mean of the loops just before and just after that pass.  That gives the
pass's time on a machine that runs the loop in ``REFERENCE_SECONDS``.

The loop is the benchmark's own code and never calls ``franklin``, so a
change to the program does not move it.  Its work is close to the program's:
a generator of partitions into distinct parts, a ``__slots__`` object
built and checked for each, a dict of tallies, and a convolution of
integer coefficient lists.
"""

from __future__ import annotations

import time

# Seconds the loop takes on the reference machine (2 cores, Python 3.11.7)
# at its usual speed.
REFERENCE_SECONDS = 0.2

ENUM_MAX_SIZE = 45
POLY_ORDER = 650
POLY_FACTORS = 40


class _Parts:
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        prev = 0
        for p in parts:
            if prev and p >= prev:
                raise ValueError(parts)
            prev = p
        self.parts = parts


def _distinct(total: int, hi: int):
    if total == 0:
        yield ()
        return
    for p in range(min(total, hi), 0, -1):
        for rest in _distinct(total - p, p - 1):
            yield (p,) + rest


def _enumerate() -> int:
    tallies: dict[tuple[int, int, int], int] = {}
    for size in range(ENUM_MAX_SIZE + 1):
        for parts in _distinct(size, size):
            q = _Parts(parts).parts
            run = 0
            while run + 1 < len(q) and q[run] == q[run + 1] + 1:
                run += 1
            key = (size, len(q) & 1, run)
            tallies[key] = tallies.get(key, 0) + 1
    return len(sorted(tallies.items()))


def _convolve() -> int:
    a = [1] + [0] * POLY_ORDER
    for k in range(1, POLY_FACTORS):
        b = [0] * (POLY_ORDER + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(0, POLY_ORDER + 1 - i, k):
                    b[i + j] += x * (j // k + 1)
        a = b
    return a[-1]


def loop_seconds() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    _enumerate()
    _convolve()
    return time.perf_counter() - start
