#!/usr/bin/env python3
"""Benchmark for franklin: closed-loop CLI workloads, run in-process.

    python3 bench/run.py --workload audit --seed 1 --seconds 20 --trace 0

One client issues the workload's commands back to back through
``franklin.cli.run`` with stdout captured, in one process with no threads.
A pass is one trip through the command list; the run repeats whole passes
for ``--seconds``.  The outputs of a first, untimed pass are checked by the
oracles in ``oracles.py`` and every timed pass must print the same.
Times are scaled to one machine speed by a reference loop run between
passes (see ``calibration.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (see ``tracing.py``).  ``--workload
all`` runs every workload in turn, each in a fresh interpreter so that
``peak_rss_mib`` is each workload's own.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "out"

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("cmd_p50_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# verify reports carry their own timings, which differ from pass to pass.
ELAPSED = re.compile(r'"elapsedSeconds": [-+.0-9e]+')

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "import franklin, franklin.cli\n"
    "print(time.monotonic())\n"
)


def load_cli():
    """Import franklin.cli from this checkout's src/, or exit non-zero."""
    if not (SRC / "franklin" / "__init__.py").is_file():
        sys.exit(f"error: franklin sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import franklin.cli

    if Path(franklin.cli.__file__).resolve().parent != SRC / "franklin":
        sys.exit(f"error: imported franklin from {franklin.cli.__file__}, not from {SRC}")
    return franklin.cli


def setup_seconds() -> float:
    """Wall time for a fresh interpreter to start and import franklin.cli.

    CLOCK_MONOTONIC is system-wide, so the child's reading after its
    imports and the parent's reading before the spawn are comparable.
    """
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(done.stdout) - start


def run_command(cli, argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one command; an exception counts as exit 1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


class Pass:
    """Timings and exit codes of one trip through the commands.

    The first pass keeps its outputs for the oracles; a later pass only
    records whether it printed the same, so memory does not grow with the
    number of passes.
    """

    def __init__(self, cli, commands: list[workloads.Command], reference: Pass | None = None) -> None:
        gc.collect()
        cpu = time.process_time() + _children_cpu()
        start = time.perf_counter()
        results = [run_command(cli, c.argv) for c in commands]
        self.seconds = time.perf_counter() - start
        self.cpu = time.process_time() + _children_cpu() - cpu
        self.codes = [code for code, _, _ in results]
        self.command_seconds = [s for _, _, s in results]
        self.failed = sum(code != 0 for code in self.codes)
        texts = [text for _, text, _ in results]
        self.output_bytes = sum(len(text.encode()) for text in texts)
        untimed = [ELAPSED.sub("", text) for text in texts]
        if reference is None:
            self.texts, self.untimed = texts, untimed
        self.same = reference is None or untimed == reference.untimed


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


def check_outputs(cli, commands, reference: Pass) -> list[str]:
    """Run each oracle on the reference outputs of commands that exited 0."""

    def rerun(argv):
        code, text, _ = run_command(cli, argv)
        return code, text

    errors = []
    for cmd, code, text in zip(commands, reference.codes, reference.texts):
        if code != 0:
            continue
        try:
            found = cmd.check(text, rerun)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"unreadable output ({exc!r})"]
        errors += [f"{' '.join(cmd.argv)}: {e}" for e in found]
    return errors


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = workloads.WORKLOADS[name](seed)
    cli = load_cli()

    reference = Pass(cli, commands)
    passes = [reference]
    # Each timed pass with the factor that scales its times to the
    # reference machine speed (see calibration.py).
    plain: list[tuple[Pass, float]] = []
    traced: list[tuple[Pass, float, tracing.Tracer]] = []
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    loop_before = calibration.loop_seconds()
    while not plain or (trace and not traced) or time.perf_counter() < deadline:
        tracer = None
        if trace and len(plain) > len(traced):
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                done = Pass(cli, commands, reference)
            finally:
                tracing.uninstall(restore)
        else:
            done = Pass(cli, commands, reference)
            if not trace:
                # Spread over the run, so setup_s sees the same machine as
                # pass_s; the window is stretched by the time this takes.
                spawned = time.perf_counter()
                setup_raw = setup_seconds()
                deadline += time.perf_counter() - spawned
        loop_after = calibration.loop_seconds()
        scale = 2 * calibration.REFERENCE_SECONDS / (loop_before + loop_after)
        loop_before = loop_after
        passes.append(done)
        if tracer is not None:
            traced.append((done, scale, tracer))
        else:
            plain.append((done, scale))
            if not trace:
                setup.append(setup_raw * scale)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = check_outputs(cli, commands, reference)
    if not all(p.same for p in passes):
        errors.append("a timed pass printed something other than the checked pass")
    if trace:
        per_pass = [
            tracing.layer_metrics(tracer, p.output_bytes)
            for p, _, tracer in traced
        ]
        expected_yields = sum(c.yields for c in commands)
        if any(m["partitions.enum_yields"] != expected_yields for m in per_pass):
            errors.append(f"enumerator yielded {per_pass[0]['partitions.enum_yields']}"
                          f" partitions, counted {expected_yields}")
        values = tracing.median_metrics(per_pass)
        values["trace.overhead_s"] = (
            statistics.median(p.seconds * scale for p, scale, _ in traced)
            - statistics.median(p.seconds * scale for p, scale in plain)
        )
        units = dict(tracing.PER_LAYER)
        write_trace(name, seed, [t for _, _, t in traced])
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(p.seconds * scale for p, scale in plain),
            # Median over the command list of each command's median time.
            # A workload of a few commands of unlike length (series has
            # six) would otherwise flip between two of them from run to run.
            "cmd_p50_ms": 1e3 * statistics.median(
                statistics.median(seconds)
                for seconds in zip(*(
                    [s * scale for s in p.command_seconds] for p, scale in plain
                ))
            ),
            "cpu_s": statistics.median(p.cpu * scale for p, scale in plain),
            "peak_rss_mib": peak_rss_mib,
        }
        print(
            f"{len(plain)} timed passes; unscaled medians: pass"
            f" {statistics.median(p.seconds for p, _ in plain):.4f} s, scale"
            f" {statistics.median(scale for _, scale in plain):.4f}",
            file=sys.stderr,
        )
        units = dict(END_TO_END)
    for e in errors[:20]:
        print(f"oracle: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(len(p.codes) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def write_trace(name: str, seed: int, tracers: list[tracing.Tracer]) -> None:
    """Spans of every traced pass, one JSON list per pass, one line each."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            record = {"spans": tracer.spans, "hot": tracer.hot, "counters": tracer.counters}
            fh.write(json.dumps(record) + "\n")


def run_all(args) -> dict:
    """Each workload in its own interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        sys.stderr.write(done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']},"
              f" correct {str(result['correct']).lower()}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36} {m['value']:14.6f} {m['unit']}")
            total["metrics"][f"{name}/{metric}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
