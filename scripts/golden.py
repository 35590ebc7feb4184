#!/usr/bin/env python3
"""The CLI's output corpus: rerun each checked-in command and compare its digest.

    PYTHONPATH=src python scripts/golden.py           # name each command that differs
    PYTHONPATH=src python scripts/golden.py --write   # rewrite the digests

``tests/golden/commands.txt`` holds one argv per line as a JSON array: the
benchmark's four workloads at seeds 1 and 5, every refusal row of
``tests/test_cli.py``, each ``verify`` suite with an integer flag it does
not read, ``verify --suite all`` as text and as JSON, a text ``stats``
table, the argvs that print help or refuse the command word, and argvs where a
command's own parser could part from the top-level one (abbreviated flags,
``=`` forms, repeated flags, near-miss command words), and four commands
that write their output to a file with ``--out``.  Line i of
``tests/golden/digests.txt`` is the sha256 of line i's exit code, stdout and
stderr, and of any file its ``--out`` wrote, run in process through
``franklin.cli.run`` with help wrapped at 80 columns, in an empty temporary
working directory so that a relative ``--out`` path names the same file
wherever the corpus runs.  The times in verify's reports are masked.  A
change that alters output on purpose runs ``--write`` and names the
commands that changed.
Help and argparse's refusals are argparse's own wording: the digests hold
on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0, and a release that rewords
them shows here as changed commands.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

from franklin import cli

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
COMMANDS = GOLDEN / "commands.txt"
DIGESTS = GOLDEN / "digests.txt"

# verify's times: "elapsedSeconds" in JSON, "(0.12s)" closing a text report's params
_TIMES = re.compile(r'(?<="elapsedSeconds": )[-+.0-9e]+|(?<=\()\d+\.\d\d(?=s\))')


def commands() -> list[list[str]]:
    return [json.loads(line) for line in COMMANDS.read_text(encoding="utf-8").splitlines()]


def digest(argv: list[str]) -> str:
    """sha256 of the command's (exit code, stdout, stderr, files it wrote), verify's times masked.

    The command runs in an empty working directory; a command that writes no
    file is digested as (exit code, stdout, stderr) alone.
    """
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(argv)
                except SystemExit as exc:  # argparse's help
                    code = exc.code
            written = [path.read_text(encoding="utf-8") for path in sorted(Path().iterdir())]
        finally:
            os.chdir(home)
    printed = [_TIMES.sub("#", text) for text in (out.getvalue(), err.getvalue(), *written)]
    return hashlib.sha256(json.dumps([code, *printed]).encode()).hexdigest()


def digests(argvs: list[list[str]]) -> list[str]:
    # argparse wraps help to the terminal's width, read from COLUMNS when it is set
    with mock.patch.dict(os.environ, COLUMNS="80"):
        return [digest(argv) for argv in argvs]


def mismatches() -> list[list[str]]:
    """The commands whose digest differs from the checked-in one."""
    argvs = commands()
    want = DIGESTS.read_text(encoding="ascii").splitlines()
    if len(want) != len(argvs):
        raise ValueError(f"{len(argvs)} commands but {len(want)} digests")
    return [argv for argv, got, old in zip(argvs, digests(argvs), want) if got != old]


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare or rewrite the CLI's output digests.")
    parser.add_argument("--write", action="store_true", help="rewrite digests.txt")
    args = parser.parse_args()
    if args.write:
        DIGESTS.write_text("".join(d + "\n" for d in digests(commands())), encoding="ascii")
        return 0
    differ = mismatches()
    for argv in differ:
        print(json.dumps(argv))
    print(f"{len(differ)} of {len(commands())} commands differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
