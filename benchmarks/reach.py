#!/usr/bin/env python3
"""List the lines of ``src/concurrel`` that the test suite never runs.

    python benchmarks/reach.py [pytest arguments]

Runs pytest in this process (with ``-q`` and the given arguments; the
default collects ``tests/``) under a line tracer set with ``sys.settrace``
and ``threading.settrace``, so it needs no ``coverage`` package.  Then it
prints, per file of ``src/concurrel``, each line that is in the line table
of one of the file's compiled code objects and never ran, with its text.  A
function's first line counts as run when the function is called.  Code run
in a subprocess (a few tests start a fresh interpreter) is not traced, nor
is the compiled octagon kernel, which is C.  Tracing makes the
suite several times slower.  Exits with pytest's exit code.
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PKG = os.path.join(ROOT, "src", "concurrel")


def code_lines(code: types.CodeType) -> set[int]:
    """The lines in the line tables of ``code`` and of the code objects
    nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def package_files() -> list[str]:
    return sorted(os.path.join(d, f) for d, _, fs in os.walk(PKG) for f in fs if f.endswith(".py"))


def main(argv: list[str]) -> int:
    import pytest

    ran: dict[str, set[int]] = {}
    ours: dict[str, set[int] | None] = {}  # co_filename -> its lines that ran, or None

    def lines_of(filename: str) -> set[int] | None:
        if filename not in ours:
            path = os.path.realpath(filename)
            ours[filename] = ran.setdefault(path, set()) if path.startswith(PKG + os.sep) else None
        return ours[filename]

    def tracer(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in package_files():
        with open(path, encoding="utf-8") as f:
            source = f.read()
        text = source.splitlines()
        lines = code_lines(compile(source, path, "exec"))
        never = sorted(lines - ran.get(path, set()))
        total += len(lines)
        missed += len(never)
        if never:
            print(f"{os.path.relpath(path, ROOT)}: {len(never)} of {len(lines)} lines never ran")
            for line in never:
                print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"{missed} of {total} lines never ran; code run in a subprocess is not traced")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
