#!/usr/bin/env python3
"""Where does the staircase involution stop explaining cancellations?

For m = 0 the involution pairs off every cancelling partition, so the
product coefficients are recovered with no residual cancellation at all.
This experiment sweeps m and reports, per m, the first size at which fixed
points of opposite sign coexist, plus the worst residual in range.

Next to the measured first size it prints the predicted one.  The n-part
fixed points fill the sizes base(n) .. base(n) + n(m+1), with
base(n) = (3n^2 - n)/2 + nm, and base(n+1) - base(n) = 3n + 1 + m, so the
n-part and (n+1)-part families meet exactly when n(m - 2) >= m + 1: never
for m <= 2, and first at base(n* + 1) with n* = ceil((m+1)/(m-2)) for m >= 3.
"""

import argparse

from franklin.cli import _integer
from franklin.involution import cancellation_stats


def predicted_onset(m: int) -> int | None:
    """First size with fixed points of both signs, by the box-size argument."""
    if m <= 2:
        return None
    n = -(-(m + 1) // (m - 2)) + 1
    return (3 * n * n - n) // 2 + n * m


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=_integer, default=6)
    parser.add_argument("--max-size", type=_integer, default=200)
    args = parser.parse_args()

    print(f"residual cancellation among fixed points, sizes <= {args.max_size}")
    print("m first_residual_size predicted_first total_residual worst_size worst_residual")
    for m in range(args.max_m + 1):
        table = cancellation_stats(m, args.max_size)
        residual_rows = [row for row in table if row.residual]
        predicted = predicted_onset(m)
        predicted = "-" if predicted is None else predicted
        if not residual_rows:
            print(f"{m} - {predicted} 0 - 0")
            continue
        first = residual_rows[0]
        worst = max(residual_rows, key=lambda row: row.residual)
        total = sum(row.residual for row in residual_rows)
        print(f"{m} {first.size} {predicted} {total} {worst.size} {worst.residual}")


if __name__ == "__main__":
    main()
