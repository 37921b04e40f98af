#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py --out``: one row per metric × workload.

    python benchmarks/perf/compare.py A.json B.json [--per-layer]

A is the base of every ratio and every "worse by".  For each end-to-end
metric the benchmark's own bound (``BENCHMARK.json``) is applied:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's spread (Q3 − Q1 over its median) is wider than
  the bound, so a difference of that size cannot be told from noise —
  unless every run of B reads better than every run of A;
* ``ok``         — neither.

Deterministic metrics (modeled clock, counters) print the exact
difference B − A.  The ``wall.*`` metrics are per-layer in the contract
(no bound) but are always listed and judged by a tenth; a wall verdict
from fewer than ten alternating pairs is a hint, not a claim.  Other
per-layer metrics have no bound and get no verdict.  Exit code 1 if any
end-to-end row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as M  # noqa: E402


def load(path: str) -> dict:
    """``(workload, section, metric) -> [values]`` over every run in the file."""
    doc = json.loads(Path(path).read_text())
    out: dict = {}
    for run in doc["runs"]:
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], run["section"], name), []).append(m["value"])
    return out


def quartiles(vals):
    """(Q1, median, Q3); one sample is its own quartiles."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], statistics.median(vals), q[2]


def verdict(better: str, bound: float, a, b) -> str:
    qa, ma, qa3 = quartiles(a)
    qb, mb, qb3 = quartiles(b)
    worse = M.worse_by(better, ma, mb)
    spread = max((qa3 - qa) / abs(ma) if ma else 0.0, (qb3 - qb) / abs(mb) if mb else 0.0)
    if spread > bound:
        b_all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "ok" if b_all_better else "unresolved"
    return "regressed" if worse > bound else "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", help="base ledger (run.py --out)")
    ap.add_argument("b", help="ledger compared against the base")
    ap.add_argument("--per-layer", action="store_true", help="also list the other per-layer metrics (no verdict)")
    args = ap.parse_args(argv)
    a, b = load(args.a), load(args.b)
    e2e, layer = M.metric_table("end_to_end"), M.metric_table("per_layer")

    rows, regressed = [], 0
    for key in sorted(set(a) & set(b)):
        workload, section, name = key
        spec = (e2e if section == "end_to_end" else layer).get(name)
        if spec is None:
            continue
        if name.startswith("wall."):
            spec = dict(spec, bound=M.WALL_COMPARE_BOUND)
        elif section == "per_layer" and not args.per_layer:
            continue
        qa, ma, qa3 = quartiles(a[key])
        qb, mb, qb3 = quartiles(b[key])
        ratio = f"{mb / ma:.4f}" if ma else "n/a"
        if "bound" not in spec:
            status = ""
        else:
            status = verdict(spec["better"], spec["bound"], a[key], b[key])
            regressed += status == "regressed" and section == "end_to_end"
        if M.is_deterministic(name):
            status += f" (exact B-A = {mb - ma:+.6g})" if mb != ma else " (identical)"
        rows.append([
            workload, name, spec["unit"], spec["better"],
            f"{M.fmt(ma)} [{M.fmt(qa)}, {M.fmt(qa3)}] n={len(a[key])}",
            f"{M.fmt(mb)} [{M.fmt(qb)}, {M.fmt(qb3)}] n={len(b[key])}",
            ratio, f"{spec['bound']:.0%}" if "bound" in spec else "-", status.strip(),
        ])
    print(M.table(rows, ["workload", "metric", "unit", "better", "A median [Q1, Q3]", "B median [Q1, Q3]",
                         "B/A (base A)", "bound", "verdict"]))
    only = sorted(set(a) ^ set(b))
    if only:
        print(f"\n{len(only)} metric/workload pairs appear in only one file and were skipped")
    print(f"\n{regressed} end-to-end regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
