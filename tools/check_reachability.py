#!/usr/bin/env python3
"""Fail on public surface that no product caller reaches.

For every public ``def`` / ``class`` under ``src/repro`` and every
``DGAPConfig`` field, count identifier occurrences in ``src/``,
``benchmarks/``, ``examples/`` and ``tools/`` outside its own definition,
import statements, ``__all__``, comments and docstrings (none of which is
a ``Name`` / ``Attribute`` / keyword node of the ``ast``).  A name with
zero traffic must be listed in ``tools/reachability_allow.txt``
(``name  # reason``); a listed name that has gained traffic or vanished
fails too, so the list cannot rot.  Name-based on purpose: a name shared
by a live and a dead definition is not caught.  ``tests/`` is not a
product caller — a name only tests reach needs its reason on the list.

Usage: python tools/check_reachability.py [ROOT]   (ROOT = a checkout)
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCANNED = ("src", "benchmarks", "examples", "tools")


def scan(path: Path, traffic: Counter, defined: dict) -> None:
    """Add ``path``'s identifier uses to ``traffic`` and, when it is
    product source, its public definitions to ``defined``."""
    product = "src/repro" in path.as_posix()
    own = set()  # Name nodes that *are* a definition (config fields)
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not product or node.name.startswith("_"):
                continue
            defined.setdefault(node.name, f"{path}:{node.lineno}")
            if node.name == "DGAPConfig":
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign):
                        own.add(stmt.target)
                        defined[stmt.target.id] = f"{path}:{stmt.lineno}"
        elif isinstance(node, ast.Name) and node not in own:
            traffic[node.id] += 1
        elif isinstance(node, ast.Attribute):
            traffic[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            traffic[node.arg] += 1


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args else HERE.parent
    allow = {}
    for line in (HERE / "reachability_allow.txt").read_text().splitlines():
        name, _, reason = line.partition("#")
        if name.strip():
            allow[name.strip()] = reason.strip()
    traffic, defined = Counter(), {}
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            scan(path, traffic, defined)

    dead = sorted(n for n in defined if not traffic[n] and n not in allow)
    stale = sorted(n for n in allow if n not in defined or traffic[n])
    for n in dead:
        print(f"unreached: {n}  ({defined[n]}) — delete it, or list it with a reason")
    for n in stale:
        why = "no longer defined" if n not in defined else f"now has {traffic[n]} caller(s)"
        print(f"stale allow-list entry: {n} — {why}")
    for n in sorted(allow):
        if not allow[n]:
            print(f"allow-list entry without a reason: {n}")
    print(f"{len(defined)} public names, {len(allow)} allowed, "
          f"{len(dead)} unreached, {len(stale)} stale")
    return 1 if dead or stale or not all(allow.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
