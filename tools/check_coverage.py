#!/usr/bin/env python
"""Stdlib-only line-coverage checker for the repro package.

The CI image deliberately carries no third-party coverage tooling, so
this implements just enough: run the test suite under a line tracer,
count executed lines per file under ``src/repro``, and compare against
the set of executable lines derived by compiling each source file and
walking its code objects (``co_lines``).

On Python 3.12+ it uses ``sys.monitoring`` with per-location DISABLE
(near-zero overhead after first hit); on older interpreters it falls
back to ``sys.settrace``, returning ``None`` for frames outside the
package so foreign code runs untraced.

``--dead-defs`` adds the gate ``tools/check_reachability.py`` cannot be:
that one asks whether a public *name* has a caller, so a dead definition
hides behind any live one of the same name (an override nobody
dispatches to, a method named like another class's).  This one lists
every ``def`` under ``src/repro`` none of whose body lines executed in
the run, and fails on one that is not in ``tools/dead_defs_allow.txt``
(``module:qualname  # reason``) — and on an entry there that did
execute, lost its definition or gives no reason.

Usage::

    python tools/check_coverage.py [--fail-under PCT] [--dead-defs] [pytest args...]

Exits nonzero if pytest fails, measured coverage is below the floor, or
the dead-definition list and its allow-list disagree.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DEAD_DEFS_ALLOW = REPO / "tools" / "dead_defs_allow.txt"


def executable_lines(path: Path) -> set:
    """Lines with executable code, via compile + recursive co_consts walk."""
    code = compile(path.read_text(), str(path), "exec")
    lines = set()
    stack = [code]
    while stack:
        co = stack.pop()
        for _, _, line in co.co_lines():
            if line is not None:
                lines.add(line)
        for const in co.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    # a module's code object reports line 0 for some preamble ops
    lines.discard(0)
    return lines


def function_bodies(path: Path):
    """``(qualname, body lines)`` of every ``def`` in ``path``: the line
    span from its first body statement to its last, nested defs included
    under dotted names (``Class.method``, ``outer.inner``)."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                yield name, set(range(child.body[0].lineno, child.end_lineno + 1))
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text()), "")


def dead_defs(hits: dict) -> set:
    """``module:qualname`` of every def with executable body lines none
    of which executed.  A body that starts on its ``def`` line cannot be
    told from the ``def`` statement itself (which runs at import) and is
    taken as live."""
    dead = set()
    for path in sorted(SRC.rglob("*.py")):
        exe = executable_lines(path)
        hit = hits.get(str(path), set())
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for qualname, body in function_bodies(path):
            if body & exe and not body & hit:
                dead.add(f"{module}:{qualname}")
    return dead


def allowed_dead_defs() -> dict:
    """``{module:qualname: reason}`` of ``tools/dead_defs_allow.txt``."""
    allowed = {}
    for line in DEAD_DEFS_ALLOW.read_text().splitlines():
        entry, _, reason = line.partition("#")
        if entry.strip():
            allowed[entry.strip()] = reason.strip()
    return allowed


def check_dead_defs(hits: dict) -> int:
    """Compare the run's dead definitions with the allow-list; returns
    the number of disagreements (each printed)."""
    allowed = allowed_dead_defs()
    dead = dead_defs(hits)
    problems = [f"dead definition: {d} — no body line executed" for d in sorted(dead - set(allowed))]
    problems += [
        f"stale allow-list entry: {a} — it executed, or is not a def any more"
        for a in sorted(set(allowed) - dead)
    ]
    problems += [f"allow-list entry without a reason: {a}" for a, why in sorted(allowed.items()) if not why]
    for p in problems:
        print(p, file=sys.stderr)
    print(f"{len(dead)} dead definitions, {len(allowed)} allowed, {len(problems)} problems")
    return len(problems)


class Collector:
    def __init__(self, root: Path):
        self.root = str(root) + os.sep
        self.hits = {}  # filename -> set of lines

    def wants(self, filename: str) -> bool:
        return filename.startswith(self.root)

    # -- sys.monitoring backend (3.12+) -----------------------------------

    def start_monitoring(self):
        mon = sys.monitoring
        self._mon = mon
        self._tool = mon.COVERAGE_ID
        mon.use_tool_id(self._tool, "repro-coverage")

        def on_line(code, line):
            fn = code.co_filename
            if not self.wants(fn):
                return mon.DISABLE
            self.hits.setdefault(fn, set()).add(line)
            return mon.DISABLE  # one hit per location is all we need

        mon.register_callback(self._tool, mon.events.LINE, on_line)
        mon.set_events(self._tool, mon.events.LINE)

    def stop_monitoring(self):
        self._mon.set_events(self._tool, 0)
        self._mon.free_tool_id(self._tool)

    # -- sys.settrace backend (<=3.11) ------------------------------------

    def start_settrace(self):
        def tracer(frame, event, arg):
            fn = frame.f_code.co_filename
            if not self.wants(fn):
                return None  # leave foreign frames untraced
            if event == "line":
                self.hits.setdefault(fn, set()).add(frame.f_lineno)
            return tracer

        self._tracer = tracer
        threading.settrace(tracer)  # threads started from here on, as sys.monitoring sees them
        sys.settrace(tracer)

    def stop_settrace(self):
        sys.settrace(None)
        threading.settrace(None)

    def pytest_runtest_setup(self, item):
        """pytest hook: the interpreter silently unsets a trace function
        that raised (a RecursionError at the stack limit will do), and a
        library that finds none installs — then removes — its own; put
        ours back before every test so at most one test goes unseen."""
        if not hasattr(sys, "monitoring") and sys.gettrace() is not self._tracer:
            sys.settrace(self._tracer)

    def start(self):
        if hasattr(sys, "monitoring"):
            self.start_monitoring()
        else:
            self.start_settrace()

    def stop(self):
        if hasattr(sys, "monitoring"):
            self.stop_monitoring()
        else:
            self.stop_settrace()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--fail-under",
        type=float,
        default=None,
        metavar="PCT",
        help="exit nonzero if total line coverage is below PCT",
    )
    ap.add_argument(
        "--dead-defs",
        action="store_true",
        help="also fail on a def that never executed and is not in "
        "tools/dead_defs_allow.txt (or an entry there that did)",
    )
    ap.add_argument(
        "pytest_args",
        nargs="*",
        help="arguments forwarded to pytest (default: -q tests); "
        "flags pass through too",
    )
    args, extra = ap.parse_known_args(argv)
    args.pytest_args += extra  # forward unrecognized flags (-q, -x, ...)

    sys.path.insert(0, str(REPO / "src"))
    import pytest  # noqa: E402  (after sys.path fix)

    pytest_args = args.pytest_args or ["-q", str(REPO / "tests")]

    collector = Collector(SRC)
    collector.start()
    try:
        rc = pytest.main(pytest_args, plugins=[collector])
    finally:
        collector.stop()
    if rc != 0:
        print(f"pytest failed (exit {rc}); not evaluating coverage",
              file=sys.stderr)
        return int(rc)

    total_exec = total_hit = 0
    rows = []
    for path in sorted(SRC.rglob("*.py")):
        exe = executable_lines(path)
        hit = collector.hits.get(str(path), set()) & exe
        total_exec += len(exe)
        total_hit += len(hit)
        pct = 100.0 * len(hit) / len(exe) if exe else 100.0
        rows.append((path.relative_to(REPO), len(exe), len(hit), pct))

    name_w = max(len(str(r[0])) for r in rows)
    print(f"{'file':<{name_w}}  {'lines':>6} {'hit':>6} {'cover':>7}")
    for rel, exe, hit, pct in rows:
        print(f"{str(rel):<{name_w}}  {exe:>6} {hit:>6} {pct:>6.1f}%")
    total_pct = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"{'TOTAL':<{name_w}}  {total_exec:>6} {total_hit:>6} "
          f"{total_pct:>6.1f}%")

    if args.fail_under is not None and total_pct < args.fail_under:
        print(
            f"coverage {total_pct:.1f}% is below the floor "
            f"{args.fail_under:.1f}%",
            file=sys.stderr,
        )
        return 1
    if args.dead_defs and check_dead_defs(collector.hits):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
