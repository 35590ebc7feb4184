#!/usr/bin/env python3
"""Record one benchmark run of every workload as ``BENCH_<tag>.json`` at the repository root.

    python scripts/bench_record.py --tag 43                 # 20 s per workload
    python scripts/bench_record.py --tag ci --seconds 1

Runs ``bench/run.py --workload all --seed 1 --trace 0`` from the root in a
child process that writes no bytecode, so nothing is written under ``bench/``.
The child's last stdout line is its JSON result; the record adds the git
revision of the checkout (with ``-dirty`` when tracked files differ from
it), the Python version, ``platform.processor()``, ``os.cpu_count()`` and
the child's argv, then writes it with the keys sorted.  The child's
stderr is passed through.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tag(text: str) -> str:
    if not text or not all(c.isalnum() or c in "._-" for c in text):
        raise argparse.ArgumentTypeError("must be letters, digits, '.', '_' or '-'")
    return text


def revision() -> str | None:
    """HEAD's commit, with -dirty when a tracked file differs from it; None without git or a checkout."""
    git = ["git", "-C", str(ROOT)]
    try:
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:  # no git on the path
        return None
    if head.returncode:
        return None
    dirty = subprocess.run([*git, "diff", "--quiet", "HEAD"]).returncode
    return head.stdout.strip() + ("-dirty" if dirty else "")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, type=_tag, help="names the file BENCH_<tag>.json")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    argv = ["bench/run.py", "--workload", "all", "--seed", "1",
            "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    sys.stderr.write(done.stderr)
    if done.returncode:
        sys.exit(f"error: bench/run.py exited {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record.update(
        revision=revision(),
        python=sys.version,
        processor=platform.processor(),
        cpuCount=os.cpu_count(),
        argv=[Path(sys.executable).name, *argv],
    )
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)


if __name__ == "__main__":
    main()
