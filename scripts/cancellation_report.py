#!/usr/bin/env python3
"""Where does the staircase involution stop explaining cancellations?

For m = 0 the involution pairs off every cancelling partition, so the
product coefficients are recovered with no residual cancellation at all.
This experiment sweeps m and reports, per m, the first size at which fixed
points of opposite sign coexist, plus the worst residual in range.
"""

import argparse

from franklin.cli import _integer
from franklin.involution import cancellation_stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=_integer, default=6)
    parser.add_argument("--max-size", type=_integer, default=200)
    args = parser.parse_args()
    for flag, value in (("--max-m", args.max_m), ("--max-size", args.max_size)):
        if value < 0:
            parser.error(f"{flag} must be nonnegative, got {value}")

    print(f"residual cancellation among fixed points, sizes <= {args.max_size}")
    print("m first_residual_size total_residual worst_size worst_residual")
    for m in range(args.max_m + 1):
        table = cancellation_stats(m, args.max_size)
        residual_rows = [row for row in table if row.residual]
        if not residual_rows:
            print(f"{m} - 0 - 0")
            continue
        first = residual_rows[0]
        worst = max(residual_rows, key=lambda row: row.residual)
        total = sum(row.residual for row in residual_rows)
        print(f"{m} {first.size} {total} {worst.size} {worst.residual}")


if __name__ == "__main__":
    main()
