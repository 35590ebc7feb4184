"""Span tracing for the benchmark's traced run, from outside the program.

``install`` replaces each traced function under every name the package
binds it to (module globals, or the class attribute for methods), so
callers reach the wrapper while the program's files stay as they are;
``uninstall`` puts the originals back.

Coarse calls become spans ``[name, start, end, parent, hot]``.  Calls too
frequent to record one by one (each ``next()`` of the partition and
fixed-point enumerators, each staircase walk) are only summed, and a span's
``hot`` holds what they added while it was open, as ``name -> [calls,
seconds]``.  A span's self time is its duration minus its child spans and
the hot calls made directly inside it.  What a wrapper costs beyond its two
clock reads falls on the caller's self time; ``trace.overhead_s`` bounds it.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator

MODULES = ("franklin", "franklin.cli", "franklin.involution", "franklin.partitions",
           "franklin.qseries", "franklin.staircase", "franklin.verify")

# (module, attribute, kind, span name).  kind names the Tracer method that
# wraps it: "span" records each call, "hot_call" only sums calls and time,
# "hot_iter" sums the time of each next() of the returned generator.  Methods
# are given as "Class.method".
TARGETS = [
    ("franklin.cli", "run", "span", "cli.run"),
    ("franklin.verify", "check_general_formula", "span", "verify.check"),
    ("franklin.verify", "check_fixed_point_formula", "span", "verify.check"),
    ("franklin.verify", "check_sylvester", "span", "verify.check"),
    ("franklin.verify", "check_durfee_decomposition", "span", "verify.check"),
    ("franklin.involution", "orbit_audit", "span", "involution.orbit_audit"),
    ("franklin.involution", "cancellation_stats", "span", "involution.cancellation_stats"),
    ("franklin.involution", "involute", "span", "involution.involute"),
    ("franklin.involution", "enumerate_fixed_points", "hot_iter", "involution.enumerate_fixed_points"),
    ("franklin.partitions", "_distinct_tuples", "hot_iter", "partitions._distinct_tuples"),
    ("franklin.partitions", "count_distinct_signed", "span", "partitions.count_distinct_signed"),
    ("franklin.staircase", "_walk", "hot_call", "staircase._walk"),
    ("franklin.staircase", "staircase", "span", "staircase.render"),
    ("franklin.staircase", "classify_cells", "span", "staircase.render"),
    ("franklin.staircase", "render_ferrers", "span", "staircase.render"),
    ("franklin.qseries", "euler_product", "span", "qseries.euler_product"),
    ("franklin.qseries", "rhs_general", "span", "qseries.rhs_general"),
    ("franklin.qseries", "rhs_fixed_points", "span", "qseries.rhs_fixed_points"),
    ("franklin.qseries", "gauss_binomial", "span", "qseries.gauss_binomial"),
    ("franklin.qseries", "sylvester_sides", "span", "qseries.sylvester_sides"),
    ("franklin.qseries", "QSeries.invert", "span", "qseries.invert"),
    ("franklin.qseries", "ZQSeries.__mul__", "span", "qseries.zq_mul"),
]

# _distinct_tuples recurses through its own module global; wrapping that
# name would time every level of the recursion, so only its callers in
# involution and verify see the wrapper.
KEEP_DEFINING_MODULE = {"_distinct_tuples"}

PER_LAYER = [
    ("partitions.enum_s", "s"),
    ("partitions.enum_yields", "count"),
    ("partitions.count_signed_s", "s"),
    ("staircase.walk_s", "s"),
    ("staircase.walk_calls", "count"),
    ("staircase.walks_per_partition", "ratio"),
    ("staircase.render_s", "s"),
    ("involution.audit_self_s", "s"),
    ("involution.audit_us_per_partition", "us"),
    ("involution.stats_s", "s"),
    ("involution.fixed_enum_s", "s"),
    ("involution.fixed_points_yielded", "count"),
    ("involution.involute_s", "s"),
    ("qseries.euler_product_s", "s"),
    ("qseries.rhs_general_s", "s"),
    ("qseries.rhs_fixed_points_s", "s"),
    ("qseries.gauss_binomial_s", "s"),
    ("qseries.gauss_binomial_calls", "count"),
    ("qseries.zq_mul_s", "s"),
    ("qseries.zq_mul_pairs", "count"),
    ("qseries.invert_s", "s"),
    ("qseries.sylvester_sides_s", "s"),
    ("verify.self_s", "s"),
    ("verify.checks", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Spans, summed hot calls and counters of one traced pass, in memory.

    A hot call only adds to its running total in ``hot``; a span stores the
    growth of those totals while it was open, so the per-call cost stays at
    two clock reads and two additions.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.hot: dict[str, list] = {}  # name -> [calls, seconds], whole pass
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def hot_total(self, name: str) -> list:
        return self.hot.setdefault(name, [0, 0.0])

    def span(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, {}]
            self._open.append(len(self.spans))
            self.spans.append(record)
            before = {k: tuple(v) for k, v in self.hot.items()}
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
                for k, (calls, seconds) in self.hot.items():
                    was = before.get(k, (0, 0.0))
                    if calls != was[0] or seconds != was[1]:
                        record[4][k] = [calls - was[0], seconds - was[1]]

        return traced

    def hot_call(self, name: str, fn: Callable) -> Callable:
        total = self.hot_total(name)

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total[1] += perf_counter() - start
                total[0] += 1

        return traced

    def hot_iter(self, name: str, fn: Callable) -> Callable:
        total = self.hot_total(name)

        def timed_next(it: Iterator) -> Iterator:
            while True:
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    total[1] += perf_counter() - start
                    return
                total[1] += perf_counter() - start
                total[0] += 1
                yield item

        def traced(*args, **kwargs):
            return timed_next(fn(*args, **kwargs))

        return traced

    def self_times(self) -> list[float]:
        """Duration minus child spans and the hot calls made directly inside.

        A span's hot figures include those of its child spans, so the direct
        part is its own figure minus its children's.
        """
        covered = [sum(seconds for _, seconds in s[4].values()) for s in self.spans]
        for _, start, end, parent, hot in self.spans:
            if parent >= 0:
                covered[parent] += end - start - sum(seconds for _, seconds in hot.values())
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]


def _nonzero_terms(series) -> int:
    return sum(1 for row in series.grid for v in row if v)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Put tracer wrappers in place; returns what ``uninstall`` restores."""
    modules = [importlib.import_module(name) for name in MODULES]
    restore = []
    for owner_name, attr, kind, name in TARGETS:
        owner = importlib.import_module(owner_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            wrapper = getattr(tracer, kind)(name, original)
            if name == "qseries.zq_mul":
                wrapper = _counting_pairs(tracer, wrapper, cls)
            restore.append((cls, method, original))
            setattr(cls, method, wrapper)
            continue
        original = getattr(owner, attr)
        wrapper = getattr(tracer, kind)(name, original)
        for module in modules:
            if module.__dict__.get(attr) is not original:
                continue
            if module is owner and attr in KEEP_DEFINING_MODULE:
                continue
            restore.append((module, attr, original))
            setattr(module, attr, wrapper)
    return restore


def _counting_pairs(tracer: Tracer, traced_mul: Callable, cls: type) -> Callable:
    """Count the nonzero-term pairs a ZQSeries product visits.

    The count is taken before the span opens and its time is booked as a
    hot call, so it lands in no layer's self time.
    """
    bookkeeping = tracer.hot_total("trace.bookkeeping")

    def mul(a, b):
        if isinstance(b, cls):
            start = perf_counter()
            tracer.counters["qseries.zq_mul_pairs"] += _nonzero_terms(a) * _nonzero_terms(b)
            bookkeeping[1] += perf_counter() - start
        return traced_mul(a, b)

    return mul


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for target, attr, original in reversed(restore):
        setattr(target, attr, original)


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, except ``trace.overhead_s``."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    audit_s = 0.0
    audit_yields = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        name = span[0]
        self_s[name] += own
        calls[name] += 1
        if name == "involution.orbit_audit":
            audit_s += span[2] - span[1]
            audit_yields += span[4].get("partitions._distinct_tuples", [0])[0]
    enum_calls, enum_s = tracer.hot.get("partitions._distinct_tuples", (0, 0.0))
    walk_calls, walk_s = tracer.hot.get("staircase._walk", (0, 0.0))
    fixed_yielded, fixed_s = tracer.hot.get("involution.enumerate_fixed_points", (0, 0.0))
    return {
        "partitions.enum_s": enum_s,
        "partitions.enum_yields": enum_calls,
        "partitions.count_signed_s": self_s["partitions.count_distinct_signed"],
        "staircase.walk_s": walk_s,
        "staircase.walk_calls": walk_calls,
        "staircase.walks_per_partition": walk_calls / enum_calls if enum_calls else 0.0,
        "staircase.render_s": self_s["staircase.render"],
        "involution.audit_self_s": self_s["involution.orbit_audit"],
        "involution.audit_us_per_partition": 1e6 * audit_s / audit_yields if audit_yields else 0.0,
        "involution.stats_s": self_s["involution.cancellation_stats"],
        "involution.fixed_enum_s": fixed_s,
        "involution.fixed_points_yielded": fixed_yielded,
        "involution.involute_s": self_s["involution.involute"],
        "qseries.euler_product_s": self_s["qseries.euler_product"],
        "qseries.rhs_general_s": self_s["qseries.rhs_general"],
        "qseries.rhs_fixed_points_s": self_s["qseries.rhs_fixed_points"],
        "qseries.gauss_binomial_s": self_s["qseries.gauss_binomial"],
        "qseries.gauss_binomial_calls": calls["qseries.gauss_binomial"],
        "qseries.zq_mul_s": self_s["qseries.zq_mul"],
        "qseries.zq_mul_pairs": tracer.counters["qseries.zq_mul_pairs"],
        "qseries.invert_s": self_s["qseries.invert"],
        "qseries.sylvester_sides_s": self_s["qseries.sylvester_sides"],
        "verify.self_s": self_s["verify.check"],
        "verify.checks": calls["verify.check"],
        "cli.self_s": self_s["cli.run"],
        "cli.output_bytes": output_bytes,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes; counts stay whole numbers."""
    out = {}
    for name, first in per_pass[0].items():
        median = statistics.median_low if isinstance(first, int) else statistics.median
        out[name] = median(p[name] for p in per_pass)
    return out
