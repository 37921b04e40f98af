#!/usr/bin/env python3
"""Fail on a reference in the docs that does not resolve.

Scans DESIGN.md, EXPERIMENTS.md, README.md and the CI workflow for
``tests/<file>.py`` and ``src/<file>.py`` paths, each optionally followed
by ``::Name`` parts (``tests/test_x.py::TestY::test_z``).  The file must
exist, and each part must be a class, function or assignment defined at
that level of what comes before it: a module's top level, then inside
the named class.  A moved or deleted test then fails here, not in a
reader's hands.

Usage: python tools/check_doc_refs.py [ROOT]   (ROOT = a checkout)
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

DOCS = ("DESIGN.md", "EXPERIMENTS.md", "README.md", ".github/workflows/ci.yml")
REF = re.compile(r"\b((?:tests|src)/[\w/]+\.py)((?:::\w+)*)")


def defined(body: list) -> dict:
    """``{name: its body}`` for what a statement list defines (an
    assignment has no body to look into)."""
    out = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.body
        elif isinstance(node, ast.Assign):
            out.update((t.id, []) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out[node.target.id] = []
    return out


def unresolved(root: Path, path: str, parts: list) -> str:
    """Why ``path::parts`` does not resolve under ``root``; "" if it does."""
    file = root / path
    if not file.is_file():
        return "no such file"
    body = ast.parse(file.read_text(), str(file)).body
    for part in parts:
        names = defined(body)
        if part not in names:
            return f"{part!r} is not defined there"
        body = names[part]
    return ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    refs = problems = 0
    for doc in DOCS:
        if not (root / doc).is_file():
            continue
        for lineno, line in enumerate((root / doc).read_text().splitlines(), 1):
            for m in REF.finditer(line):
                refs += 1
                why = unresolved(root, m.group(1), m.group(2).split("::")[1:])
                if why:
                    problems += 1
                    print(f"{doc}:{lineno}: {m.group(0)} — {why}")
    print(f"{refs} references, {problems} unresolved")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
