"""Command-line front end: expansion, diagrams, involution, statistics, checks.

Exit codes: 0 success (all checks Pass), 1 verification failure, 2 usage
or input error (one ``error:`` line under 200 bytes, argparse's too) or a
reader that closed stdout.  Big integers are serialized as decimal strings
in JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext
from itertools import chain, islice
from typing import Iterator, TextIO

from .involution import InvolutionCase, _fixed_point_blocks, cancellation_stats, involute
from .partitions import SignedMonomial, _parse_integer, _parts_text, _shown, parse_partition
from .qseries import euler_product, format_series, rhs_fixed_points, rhs_general
from .staircase import render_ferrers, staircase
from .verify import _SUITES, VerificationReport


def _integer(text: str) -> int:
    """The integer flags' type: a sign and ASCII digits, as in a partition; not negative."""
    try:
        value = _parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {_shown(text)}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # the top-level parser's, by command name

    def error(self, message: str):  # no usage block: run prints the one line; subparsers inherit
        raise ValueError(message)


@functools.cache
def _build_parser() -> _Parser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output to a file instead of stdout")
    m = argparse.ArgumentParser(add_help=False)
    m.add_argument("--m", type=_integer, default=0, help="parts must exceed m")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--max-size", type=_integer, required=True)
    table.add_argument("--json", action="store_true")

    parser = _Parser(
        prog="franklin",
        description=(
            "Exact expansions of the product of (1 - q^k) over k > m, and the"
            " staircase involution on partitions with distinct parts > m that"
            " explains their cancellations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[m, out], help="print a truncated series expansion")
    p.add_argument("--order", type=_integer, required=True, help="truncation order in q")
    p.add_argument(
        "--rhs",
        choices=("general", "fixed"),
        help="print a closed form instead of the product",
    )
    p.add_argument("--raw", action="store_true", help="comma-separated coefficients")

    p = sub.add_parser("staircase", parents=[m, out], help="describe the m-landing staircase")
    p.add_argument("--partition", required=True, help="comma-separated parts, largest first")
    p.add_argument("--render", action="store_true", help="draw the labelled diagram")

    p = sub.add_parser("involve", parents=[m, out], help="apply the involution once")
    p.add_argument("--partition", required=True)
    p.add_argument("--trace", action="store_true", help="draw both diagrams")

    sub.add_parser(
        "fixed-points", parents=[m, out, table], help="list involution fixed points by size"
    )
    sub.add_parser("stats", parents=[m, out, table], help="per-size cancellation statistics")

    p = sub.add_parser("verify", parents=[out], help="run identity checks")
    p.add_argument("--suite", choices=("all", *_SUITES), default="all")
    p.add_argument("--m", type=_integer, help="restrict to one m (default: sweep 0..4)")
    p.add_argument("--order", type=_integer, help="override the default truncation order")
    p.add_argument("--max-size", type=_integer, help="involution audit size bound")
    p.add_argument("--json", action="store_true")
    parser.commands = sub.choices
    return parser


def _cmd_expand(args, out: TextIO) -> int:
    if args.rhs == "general":
        series = rhs_general(args.m, args.order)
    elif args.rhs == "fixed":
        series = rhs_fixed_points(args.m, args.order)
    else:
        series = euler_product(args.m, args.order)
    print(",".join(map(str, series.coeffs)) if args.raw else format_series(series), file=out)
    return 0


def _cmd_staircase(args, out: TextIO) -> int:
    p = args.partition
    sc = staircase(p, args.m)
    lines = [
        f"partition: {_parts_text(p.parts)}",
        f"s_m = {sc.length}",
        f"stairs = {sc.stair_count}",
        f"landings = {len(sc.landing_rows)}",
        f"landing rows = {','.join(str(r) for r in sc.landing_rows)}",
        "cells = " + " ".join(f"({c.row},{c.col})" for c in sc.cells),
    ]
    if args.render:
        lines.append(render_ferrers(p, args.m))
    print("\n".join(lines), file=out)
    return 0


def _cmd_involve(args, out: TextIO) -> int:
    p = args.partition
    result = involute(p, args.m)
    lines = [f"case: {result.case.value}", f"image: {_parts_text(result.image.parts)}"]
    if args.trace and p.n:
        lines.append("input (staircase marked):")
        lines.append(render_ferrers(p, args.m))
        if result.case is not InvolutionCase.FIXED:
            lines.append("image (staircase marked):")
            lines.append(render_ferrers(result.image, args.m))
    print("\n".join(lines), file=out)
    return 0


def _json_payload(out: TextIO, m: int, max_size: int, key: str, rows: Iterator[str]) -> None:
    """Write ``json.dumps({"m": .., "maxSize": .., key: [..]}, indent=2)`` and a newline.

    Each of `rows` holds one or more of the list's objects at depth two, each after
    its own ``",\\n"`` separator, and is written as it comes: several times faster
    than ``json.dumps``, which drops to pure Python under ``indent``.  The first
    object's comma is dropped; every caller has at least one row (size 0), so the
    list is never ``[]``.
    """
    first = next(rows)
    out.write(f'{{\n  "m": {m},\n  "maxSize": {max_size},\n  "{key}": [{first[1:]}')
    out.writelines(rows)
    out.write("\n  ]\n}\n")


def _text_template(n: int, w: SignedMonomial) -> str:
    """The text row of an n-part fixed point of weight w, with %d for each part."""
    return f"{w} {_parts_text(['%d'] * n)}\n"


def _json_template(n: int, w: SignedMonomial) -> str:
    """The JSON row as ``json.dumps(.., indent=2)`` writes it at depth two, %d for each part.

    The row starts with the ``",\\n"`` that separates it from the one before.
    """
    parts = "[\n        " + ",\n        ".join(["%d"] * n) + "\n      ]" if n else "[]"
    return (
        f',\n    {{\n      "parts": {parts},\n'
        f'      "size": {w.exponent},\n      "sign": {w.sign}\n    }}'
    )


# a SizeStats row as JSON at depth two, after its separator, and as text, %d for each
# field in order; partitions and productCoefficient may exceed 64 bits: decimal strings
_STATS_JSON_ROW = (
    ',\n    {\n      "size": %d,\n      "partitions": "%d",\n      "fixed": %d,\n'
    '      "fixedPositive": %d,\n      "fixedNegative": %d,\n      "residual": %d,\n'
    '      "productCoefficient": "%d"\n    }'
)
_STATS_TEXT_ROW = "%d %d %d %d %d %d %d\n"


# fixed points per formatted block: one % and one write per block; the 64 KiB peak
# that test_writes_in_bounded_memory allows holds at 32 (JSON about 60 kB), not at 64
_CHUNK = 32


def _blocks(template: str, points: Iterator[tuple[int, ...]]) -> Iterator[str]:
    """The rows of a box's points, up to _CHUNK at a time, each block one C-level %."""
    while block := tuple(islice(points, _CHUNK)):
        yield (template * len(block)) % tuple(chain.from_iterable(block))


def _cmd_fixed_points(args, out: TextIO) -> int:
    template = _json_template if args.json else _text_template
    rows = chain.from_iterable(
        _blocks(template(n, w), points)
        for n, w, points in _fixed_point_blocks(args.m, args.max_size)
    )
    if args.json:
        _json_payload(out, args.m, args.max_size, "fixedPoints", rows)
    else:
        out.writelines(rows)
    return 0


def _cmd_stats(args, out: TextIO) -> int:
    table = cancellation_stats(args.m, args.max_size)
    if args.json:
        _json_payload(out, args.m, args.max_size, "perSize", map(_STATS_JSON_ROW.__mod__, table))
    else:
        out.write("size partitions fixed fixed+ fixed- residual coefficient\n")
        out.writelines(map(_STATS_TEXT_ROW.__mod__, table))
    return 0


def _verify_suites(args) -> tuple[str, ...]:
    """The suites --suite names; refuses an integer flag that none of them reads, trying
    the flags in the order the suite table first names them: m, order, max_size."""
    suites = tuple(_SUITES) if args.suite == "all" else (args.suite,)
    for dest in dict.fromkeys(chain.from_iterable(flags for flags, _ in _SUITES.values())):
        if getattr(args, dest) is not None and all(dest not in _SUITES[s][0] for s in suites):
            raise ValueError(f"--{dest.replace('_', '-')} does not apply to --suite {args.suite}")
    return suites


def _cmd_verify(args, out: TextIO) -> int:
    reports: list[VerificationReport] = []
    for suite in args.suites:
        flags, checks = _SUITES[suite]
        for r in checks(*(getattr(args, dest) for dest in flags)):
            reports.append(r)
            if not args.json:
                print(r.summary(), file=out, flush=True)
    passed = sum(r.passed for r in reports)
    if args.json:
        payload = [
            {
                "identity": r.identity,
                "params": r.params,
                "verdict": r.verdict,
                "firstMismatch": r.first_mismatch,
                "elapsedSeconds": round(r.elapsed, 6),
            }
            for r in reports
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(f"{passed}/{len(reports)} checks passed\n")
    return 0 if passed == len(reports) else 1


_HANDLERS = {
    "expand": _cmd_expand,
    "staircase": _cmd_staircase,
    "involve": _cmd_involve,
    "fixed-points": _cmd_fixed_points,
    "stats": _cmd_stats,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = argparse.Namespace(command="franklin", out=None)  # read below if parsing fails
    try:
        parser = _build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:  # help, or the refusal of a missing or unknown command
            args = parser.parse_args(argv)
        else:  # the command's own parser, as the top-level one would hand it the rest
            args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        # what the flags alone refuse is refused before --out is opened, which would empty it
        if args.command == "verify":
            args.suites = _verify_suites(args)
        elif "partition" in args:
            args.partition = parse_partition(args.partition)
        if args.out is None:
            target = nullcontext(sys.stdout)
        else:
            target = open(args.out, "w", encoding="utf-8")
        with target as out:
            return _HANDLERS[args.command](args, out)
    except BrokenPipeError:
        # the reader has gone: send what stdout still buffers to devnull, so the flush
        # at exit cannot fail, and say nothing (Python's signal docs, "Note on SIGPIPE")
        if args.out is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except OSError as exc:
        # strerror alone: str(exc) would name the path again, and push the reason into the cut
        reason = exc.strerror or str(exc)
        message = f"cannot write {'stdout' if args.out is None else args.out}: {reason}"
    except ValueError as exc:
        message = str(exc)
    except (MemoryError, OverflowError):
        message = f"out of memory running {args.command}; a size, order or part is too large"
    raw = message.encode(errors="backslashreplace")
    if len(raw) > 191:  # the line stays under 200 bytes: head (names the flag), tail, length
        head, tail = raw[:120].decode(errors="ignore"), raw[-40:].decode(errors="ignore")
        message = f"{head}…{tail} ({len(message)} characters)"
    print(f"error: {message}", file=sys.stderr)
    return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
