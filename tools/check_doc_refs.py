#!/usr/bin/env python3
"""Fail on a reference in the docs that does not resolve.

Scans DESIGN.md, EXPERIMENTS.md, README.md, PAPER.md and the CI
workflow for ``tests/<file>.py`` and ``src/<file>.py`` paths, each
optionally followed by ``::Name`` parts (``tests/test_x.py::TestY::test_z``),
and for dotted ``repro.<pkg>.<mod>[.<Name>...]`` references in
backquotes.  The file (for a dotted reference: the longest prefix that
names a module or package under ``src/``) must exist, and each part
must be a class, function or assignment defined at that level of what
comes before it — a module's top level, then inside the named class —
or a name a package re-exports (``from .mod import Name``).  A moved or
deleted test or module then fails here, not in a reader's hands.

Usage: python tools/check_doc_refs.py [ROOT]   (ROOT = a checkout)
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import NamedTuple

DOCS = ("DESIGN.md", "EXPERIMENTS.md", "README.md", "PAPER.md", ".github/workflows/ci.yml")
REF = re.compile(r"\b((?:tests|src)/[\w/]+\.py)((?:::\w+)*)")
DOTTED = re.compile(r"`(repro(?:\.\w+)+)")


def module_file(base: Path):
    """The source of module or package ``base`` (a path without suffix), or None."""
    for file in (base.with_suffix(".py"), base / "__init__.py"):
        if file.is_file():
            return file
    return None


def module_body(file: Path) -> list:
    return ast.parse(file.read_text(), str(file)).body


class Reexport(NamedTuple):
    """``from <base> import <name>`` at a module's top level."""

    base: Path  #: the imported module, as a path without suffix
    name: str


def defined(body: list, file: Path = None) -> dict:
    """``{name: its body}`` for what a statement list defines (an
    assignment has no body to look into).  Given the module's ``file``,
    a relative ``from .mod import Name`` also defines ``Name``, as a
    :class:`Reexport` that :func:`follow` resolves."""
    out = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.body
        elif isinstance(node, ast.Assign):
            out.update((t.id, []) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out[node.target.id] = []
        elif isinstance(node, ast.ImportFrom) and node.level and file is not None:
            base = file.parents[node.level - 1].joinpath(*(node.module or "").split("."))
            out.update((a.asname or a.name, Reexport(base, a.name)) for a in node.names)
    return out


def follow(ref: Reexport):
    """``(body, file)`` of what ``ref`` imports — a submodule's top level
    and its file, or the name's body where it is defined — or None."""
    sub = module_file(ref.base / ref.name)
    if sub is not None:
        return module_body(sub), sub
    file = module_file(ref.base)
    body = None if file is None else defined(module_body(file), file).get(ref.name)
    if isinstance(body, Reexport):
        return follow(body)
    return None if body is None else (body, None)


def lookup(body: list, file, parts: list) -> str:
    """Why ``parts`` are not defined in turn from ``body`` (the top level
    of ``file``); "" if they are."""
    for part in parts:
        body, file = defined(body, file).get(part), None
        if isinstance(body, Reexport):
            body, file = follow(body) or (None, None)
        if body is None:
            return f"{part!r} is not defined there"
    return ""


def unresolved(root: Path, path: str, parts: list) -> str:
    """Why ``path::parts`` does not resolve under ``root``; "" if it does."""
    file = root / path
    if not file.is_file():
        return "no such file"
    return lookup(module_body(file), file, parts)


def unresolved_dotted(root: Path, dotted: str) -> str:
    """Why ``repro.<pkg>...`` does not resolve under ``root / "src"``; "" if it does."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        file = module_file(root.joinpath("src", *parts[:k]))
        if file is not None:
            return lookup(module_body(file), file, parts[k:])
    return "no such module"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    refs = problems = 0
    for doc in DOCS:
        if not (root / doc).is_file():
            continue
        for lineno, line in enumerate((root / doc).read_text().splitlines(), 1):
            found = [(m.group(0), unresolved(root, m.group(1), m.group(2).split("::")[1:]))
                     for m in REF.finditer(line)]
            found += [(m.group(1), unresolved_dotted(root, m.group(1))) for m in DOTTED.finditer(line)]
            for ref, why in found:
                refs += 1
                if why:
                    problems += 1
                    print(f"{doc}:{lineno}: {ref} — {why}")
    print(f"{refs} references, {problems} unresolved")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
