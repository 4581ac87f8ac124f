"""List the statements of src/envtheory that no test executes.

Run it as a script from the root of a checkout; pytest does not collect it:

    PYTHONPATH=src python tests/uncovered.py [pytest arguments]

It runs pytest in this process, on the whole tier-1 suite unless pytest
arguments are given, under a sys.settrace line tracer that follows only the
frames of src/envtheory.  pytest's own report goes to stderr.  On stdout it
prints one line per module with the statement lines that never ran, as
"module.py: 12, 40-41", and then the total.  A statement line is one on which
a line event can fire: a line that starts an entry of the line table of some
code object compiled from the module, apart from the header line of each
function and class body.  Lines that run only in a child process, such as a
test that starts `python -m envtheory.cli`, are not seen and stay listed.  No
coverage package is needed.
"""

from __future__ import annotations

import contextlib
import dis
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "envtheory"


def statement_lines(path: Path) -> set[int]:
    """The lines of one module on which a line event can fire."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        starts = {line for _, line in dis.findlinestarts(code) if line}
        if code.co_name != "<module>":
            # A body's first entry is its header line (RESUME in the def line),
            # which raises a call event, not a line event.
            starts.discard(code.co_firstlineno)
        lines |= starts
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def run_traced(args: list[str]) -> dict[str, set[int]]:
    """Run pytest with ``args`` and return the executed lines of each package file."""
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return executed


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "1, 3-5"."""
    parts = []
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line is not None and line == prev + 1:
            prev = line
            continue
        parts.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = line
    return ", ".join(parts)


def main(argv: list[str]) -> int:
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    executed = run_traced(args)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(statement_lines(path) - executed.get(str(path), set()))
        if missed:
            total += len(missed)
            print(f"{path.name}: {ranges(missed)}")
    print(f"{total} statement lines not executed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
