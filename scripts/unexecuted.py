#!/usr/bin/env python3
"""List each statement of src/weiljet that an in-process tier-1 run never executes.

Runs ``pytest.main`` on the tier-1 tests under ``sys.settrace`` and prints
one ``path:line: statement`` row per statement of the package that no test
reached, then their count. Standard library only, besides pytest itself:

  python3 scripts/unexecuted.py            # tier-1: the tests/ directory
  python3 scripts/unexecuted.py tests/test_suites.py

Only this process is traced: the CLI tests that run ``weiljet`` in a
subprocess count for nothing, so a statement only they reach is listed.
A statement counts as executed if any line it owns (its own lines, not
those of the statements nested in it) raised a line event; statements that
compile to no instruction (docstrings, ``try:``, ``else:``) are never listed.
The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weiljet"


def _code_lines(code) -> set[int]:
    """Lines holding an instruction of ``code`` or of any code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, lines it owns that hold an instruction) per statement."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    executable = _code_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        owned = set(range(first, node.end_lineno + 1))
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, field, []):
                owned -= set(range(child.lineno, child.end_lineno + 1))
        owned &= executable
        if owned:
            out.append((node.lineno, owned))
    return sorted(out, key=lambda item: item[0])


def main(argv: list[str]) -> int:
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    print("\nStatements of src/weiljet this process never executed (CLI tests run in a subprocess are not traced):")
    total = 0
    for name, path in files.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        missed = [first for first, owned in _statements(path) if not owned & hit[name]]
        for first in missed:
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
        total += len(missed)
    print(f"unexecuted statements: {total}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
