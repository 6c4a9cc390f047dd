"""Print each src/gapsieve statement that no test executes.

The coverage package is not a dependency, so this is a standard-library line
trace: it runs the test suite in this process under sys.settrace and
threading.settrace, tracing lines only in frames whose code lives in
src/gapsieve, then lists with ast every statement none of whose lines ran.
A statement counts when any line of it (its header, for a compound
statement) ran, and only statements that compile to bytecode are listed, so
docstrings and bare `else:` lines never are.  Lines run only in another
process (a pool worker, a `python -m gapsieve` subprocess) are not seen: the
trace does not cross a process boundary.

    python tools/untested_lines.py                         # the whole suite
    python tools/untested_lines.py tests/test_singular.py  # any pytest arguments

The trace adds about half to the suite's run time.  The exit status is
pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gapsieve"


def _statement_spans(tree: ast.AST) -> dict[int, ast.stmt]:
    """Each source line mapped to the innermost statement it belongs to: all
    the lines of a simple statement, the decorators and header of a compound
    one (up to its first body statement)."""
    owner: dict[int, ast.stmt] = {}
    for node in ast.walk(tree):  # breadth first: inner statements come later and win
        if not isinstance(node, ast.stmt):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        for line in range(start, end + 1):
            owner[line] = node
    return owner


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in code and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def untested(executed: dict[str, set[int]]) -> list[tuple[Path, int, str]]:
    """(path, line, first source line) of each statement with bytecode whose
    lines are not in executed, keyed by file name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        owner = _statement_spans(ast.parse(source))
        ran = {id(owner[line]) for line in executed.get(str(path), ()) if line in owner}
        statements = {id(owner[line]): owner[line] for line in _code_lines(compile(source, str(path), "exec"))
                      if line in owner}
        text = source.splitlines()
        for key, node in sorted(statements.items(), key=lambda item: item[1].lineno):
            if key not in ran:
                out.append((path, node.lineno, text[node.lineno - 1].strip()))
    return out


def main(args: list[str]) -> int:
    import pytest  # imported before the trace starts: its frames are never traced

    executed: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    found = untested(executed)
    for path, line, text in found:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(found)} statements no test executed")
    return int(status)


if __name__ == "__main__":
    # pool workers started by spawn re-import this module: only the parent runs the suite
    sys.exit(main(sys.argv[1:]))
