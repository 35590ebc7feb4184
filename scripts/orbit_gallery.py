#!/usr/bin/env python3
"""Trace the involution on every distinct-part partition of one size.

Prints each orbit once (pairs shown as lambda <-> image with the move that
maps left to right, fixed points flagged), optionally with the labelled
Ferrers diagrams. Handy for eyeballing how the staircase and top row trade
places.
"""

import argparse

from franklin.cli import _integer
from franklin.involution import InvolutionCase, involute
from franklin.partitions import _parts_text, enumerate_distinct
from franklin.staircase import render_ferrers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=_integer, default=11)
    parser.add_argument("--m", type=_integer, default=1)
    parser.add_argument("--render", action="store_true", help="draw marked diagrams")
    args = parser.parse_args()

    seen = set()
    for p in enumerate_distinct(args.size, args.m):
        if p.parts in seen:
            continue
        result = involute(p, args.m)
        seen.add(result.image.parts)
        if result.case is InvolutionCase.FIXED:
            print(f"{_parts_text(p.parts)}  (fixed)")
        else:
            arrow = "tau" if result.case is InvolutionCase.TAU_MOVED else "sigma"
            print(f"{_parts_text(p.parts)}  <-{arrow}->  {_parts_text(result.image.parts)}")
        if args.render and p.n:
            print(render_ferrers(p, args.m))
            print()


if __name__ == "__main__":
    main()
