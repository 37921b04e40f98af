#!/usr/bin/env python3
"""Fail on public surface that no product caller reaches.

For every public ``def`` / ``class`` under ``src/repro``, count
identifier occurrences in ``src/``, ``benchmarks/``, ``examples/`` and
``tools/`` outside its own definition, import statements, ``__all__``,
comments and docstrings (none of which is a ``Name`` / ``Attribute`` /
keyword node of the ``ast``).  A name with zero traffic must be listed in
``tools/reachability_allow.txt`` (``name  # reason``); a listed name that
has gained traffic or vanished fails too, so the list cannot rot.
Name-based on purpose: a name shared by a live and a dead definition is
not caught.  ``tests/`` is not a product caller — a name only tests reach
needs its reason on the list.

For every field of a ``*Config`` / ``*Policy`` dataclass under
``src/repro`` the question is whether product code *sets* it: a
``field=`` keyword of some call, an ``obj.field = ...`` assignment or a
``"field": ...`` key of a dict literal anywhere in the scanned trees.  A
field that only its own default and ``tests/`` ever assign is an option
no user flips — make it a constant, or list ``Class.field`` with a
reason.

Usage: python tools/check_reachability.py [ROOT]   (ROOT = a checkout)
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCANNED = ("src", "benchmarks", "examples", "tools")


def scan(path: Path, traffic: Counter, sets: Counter, defined: dict, fields: dict) -> None:
    """Add ``path``'s identifier uses to ``traffic`` and its field
    assignments to ``sets``; when it is product source, its public
    definitions to ``defined`` and its option fields to ``fields``."""
    product = "src/repro" in path.as_posix()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not product or node.name.startswith("_"):
                continue
            defined.setdefault(node.name, f"{path}:{node.lineno}")
            if node.name.endswith(("Config", "Policy")):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign):
                        fields[f"{node.name}.{stmt.target.id}"] = f"{path}:{stmt.lineno}"
        elif isinstance(node, ast.Name):
            traffic[node.id] += 1
        elif isinstance(node, ast.Attribute):
            traffic[node.attr] += 1
            if isinstance(node.ctx, ast.Store):
                sets[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            traffic[node.arg] += 1
            sets[node.arg] += 1
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    sets[key.value] += 1


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args else HERE.parent
    allow = {}
    for line in (HERE / "reachability_allow.txt").read_text().splitlines():
        name, _, reason = line.partition("#")
        if name.strip():
            allow[name.strip()] = reason.strip()
    traffic, sets, defined, fields = Counter(), Counter(), {}, {}
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            scan(path, traffic, sets, defined, fields)

    reached = {n: traffic[n] for n in defined}
    reached.update({n: sets[n.split(".")[1]] for n in fields})
    defined.update(fields)
    dead = sorted(n for n in defined if not reached[n] and n not in allow)
    stale = sorted(n for n in allow if n not in defined or reached[n])
    for n in dead:
        what = "never set" if n in fields else "unreached"
        print(f"{what}: {n}  ({defined[n]}) — delete it, or list it with a reason")
    for n in stale:
        why = "no longer defined" if n not in defined else f"now has {reached[n]} caller(s)"
        print(f"stale allow-list entry: {n} — {why}")
    for n in sorted(allow):
        if not allow[n]:
            print(f"allow-list entry without a reason: {n}")
    print(f"{len(defined) - len(fields)} public names, {len(fields)} option fields, "
          f"{len(allow)} allowed, {len(dead)} unreached, {len(stale)} stale")
    return 1 if dead or stale or not all(allow.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
