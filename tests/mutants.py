"""Mutation audit: which guards of src/envtheory can go without a test noticing.

Run it as a script from the root of a checkout; pytest does not collect it:

    PYTHONPATH=src python tests/mutants.py MODULE... [--jobs J]

MODULE names a module of the package (``solver_nplus1`` or
``solver_nplus1.py``); ``MODULE:LINE,LINE`` keeps only the mutants on those
lines, which checks a new test against its mutant in seconds.  A mutant
changes one place of the source:

- the test of an ``if`` statement set to False, and to True where the
  ``if`` has an ``else`` (an ``elif`` included);
- one operand of an ``and``/``or`` dropped;
- a ``try`` reduced to its body (with its ``else`` and ``finally`` blocks,
  which is what runs when the body raises nothing).

Each mutant runs the tier-1 suite in a temporary copy of the checkout, with
no bytecode cache.  It survives when its failing tests are exactly those of
the unmutated copy; a run that fails other tests, or any more or fewer, or
that passes its time limit, kills it.  Progress goes to stderr; stdout
lists each survivor as "module.py:LINE  mutation", and then the counts.
SIGTERM stops a run as Ctrl-C does: it kills the running suites and removes
the temporary copies.
All modules make about 300 mutants, which take about 20 minutes with
``--jobs 2`` on two cores.  It needs only the standard library and pytest.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "envtheory"
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--tb=no", "-rfE"]


class Source:
    """A module's text as bytes, with (line, column) to offset conversion.

    ast gives columns as UTF-8 byte offsets, so all slicing is on bytes.
    """

    def __init__(self, text: str) -> None:
        self.data = text.encode("utf-8")
        self.starts = [0]
        for line in self.data.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))

    def span(self, node: ast.AST) -> tuple[int, int]:
        return (self.starts[node.lineno - 1] + node.col_offset,
                self.starts[node.end_lineno - 1] + node.end_col_offset)

    def text(self, node: ast.AST) -> str:
        start, end = self.span(node)
        return self.data[start:end].decode("utf-8")

    def replace(self, start: int, end: int, text: str) -> str:
        """The module with bytes [start, end) replaced by ``text``, padded to as many lines.

        The padding goes inside the closing parenthesis of a parenthesized
        ``text``, where a line break continues the expression.
        """
        pad = "\n" * (self.data[start:end].count(b"\n") - text.count("\n"))
        text = text[:-1] + pad + ")" if text.endswith(")") else text + pad
        return (self.data[:start] + text.encode("utf-8") + self.data[end:]).decode("utf-8")


def _short(text: str) -> str:
    text = " ".join(text.split())
    return text if len(text) <= 60 else text[:57] + "..."


def mutants(path: Path) -> list[tuple[int, str, str]]:
    """(line, description, mutated source) of every mutant of one module."""
    source = Source(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(ast.parse(source.data)):
        if isinstance(node, ast.If):
            start, end = source.span(node.test)
            found.append((node.lineno, f"if {_short(source.text(node.test))}  -> False",
                          source.replace(start, end, "(False)")))
            if node.orelse:
                found.append((node.lineno, f"if {_short(source.text(node.test))}  -> True",
                              source.replace(start, end, "(True)")))
        elif isinstance(node, ast.BoolOp):
            op = " and " if isinstance(node.op, ast.And) else " or "
            start, end = source.span(node)
            for i, dropped in enumerate(node.values):
                kept = [f"({source.text(v)})" for j, v in enumerate(node.values) if j != i]
                found.append((dropped.lineno,
                              f"drop `{op.strip()}` operand {_short(source.text(dropped))}",
                              source.replace(start, end, "(" + op.join(kept) + ")")))
        elif isinstance(node, ast.Try):
            start = source.starts[node.lineno - 1]
            end = source.starts[node.end_lineno]
            lines = source.data[start:end].decode("utf-8").splitlines(keepends=True)
            first = node.lineno
            body = []
            for block in (node.body, node.orelse, node.finalbody):
                if block:
                    body += lines[block[0].lineno - first:block[-1].end_lineno - first + 1]
            indent = " " * node.col_offset
            # A blank line takes the place of ``try:``, so the body keeps its lines.
            text = "\n" + textwrap.indent(textwrap.dedent("".join(body)), indent)
            found.append((node.lineno, "try reduced to its body",
                          source.replace(start, end, text)))
    seen, unique = set(), []
    for line, what, text in sorted(found, key=lambda m: (m[0], m[1])):
        if text not in seen:
            seen.add(text)
            unique.append((line, what, text))
    return unique


class Suites:
    """The pytest processes of a run, each in a process group of its own.

    stop() kills every running group and refuses to start another, so that
    a stopped run leaves no suite, nor a process a suite started, behind.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.running: set[subprocess.Popen] = set()
        self.stopped = False

    def _kill(self, child: subprocess.Popen) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()

    def stop(self) -> None:
        with self.lock:
            self.stopped = True
            for child in self.running:
                self._kill(child)

    def failing(self, checkout: Path, timeout: float) -> frozenset[str] | None:
        """The ids of the tests that fail in ``checkout``; None past ``timeout`` seconds."""
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
        with self.lock:
            if self.stopped:
                return None
            child = subprocess.Popen(PYTEST, cwd=checkout, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True,
                                     start_new_session=True)
            self.running.add(child)
        try:
            stdout = child.communicate(timeout=timeout)[0]
        except subprocess.TimeoutExpired:
            return None
        finally:
            with self.lock:
                self.running.discard(child)
                if child.poll() is None:
                    # Past the time limit, or the run is stopping (SystemExit).
                    self._kill(child)
        ids = set()
        for line in stdout.splitlines():
            for tag in ("FAILED ", "ERROR "):
                if line.startswith(tag):
                    ids.add(line[len(tag):].split(" - ")[0])
        if child.returncode not in (0, 1) or (child.returncode == 1 and not ids):
            ids.add(f"<pytest exit {child.returncode}>")
        return frozenset(ids)


def copy_checkout(into: Path) -> Path:
    """A copy of the files tier-1 reads, without bytecode caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", ".git")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    for name in ("pyproject.toml", "BENCHMARK.json"):
        if (ROOT / name).exists():
            shutil.copy2(ROOT / name, into / name)
    return into


def select(arg: str) -> tuple[Path, set[int] | None]:
    name, _, lines = arg.partition(":")
    path = PACKAGE / (name if name.endswith(".py") else name + ".py")
    if not path.is_file():
        raise SystemExit(f"no module {path.name} in {PACKAGE}")
    return path, {int(x) for x in lines.split(",")} if lines else None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="+", metavar="MODULE[:LINE,...]")
    parser.add_argument("--jobs", type=int, default=1, help="parallel suites (default 1)")
    args = parser.parse_args(argv)
    todo = []
    for arg in args.modules:
        path, lines = select(arg)
        todo += [(path, line, what, text) for line, what, text in mutants(path)
                 if lines is None or line in lines]
    originals = {path: path.read_text(encoding="utf-8") for path, *_ in todo}
    # SIGTERM exits as SystemExit does, through the cleanup of the suites and
    # of the temporary directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    suites = Suites()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = [copy_checkout(Path(tmp) / f"copy{k}") for k in range(max(1, args.jobs))]
        began = time.perf_counter()
        parent = suites.failing(copies[0], timeout=600.0)
        if parent is None:
            raise SystemExit("the unmutated suite did not finish in 600 s")
        limit = max(60.0, 10.0 * (time.perf_counter() - began))
        print(f"unmutated: {len(parent)} failing tests; {len(todo)} mutants",
              file=sys.stderr)
        free = queue.SimpleQueue()
        for checkout in copies:
            free.put(checkout)
        survivors = []

        def run(item):
            path, line, what, text = item
            checkout = free.get()
            target = checkout / "src" / "envtheory" / path.name
            try:
                target.write_text(text, encoding="utf-8")
                result = suites.failing(checkout, limit)
            finally:
                target.write_text(originals[path], encoding="utf-8")
                free.put(checkout)
            return item, result

        with ThreadPoolExecutor(max_workers=len(copies)) as pool:
            try:
                for k, (item, result) in enumerate(pool.map(run, todo), 1):
                    path, line, what, _ = item
                    verdict = ("timeout" if result is None else "survived" if result == parent
                               else f"killed by {len(result ^ parent)}")
                    print(f"[{k}/{len(todo)}] {path.name}:{line}  {what}  {verdict}",
                          file=sys.stderr)
                    if result == parent:
                        survivors.append(f"{path.name}:{line}  {what}")
            finally:
                # The pool finishes its queue before the directory goes; a
                # stopped run's queue starts no suite.
                suites.stop()
    for survivor in survivors:
        print(survivor)
    print(f"{len(survivors)} of {len(todo)} mutants survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
