#!/usr/bin/env python3
"""The repo's benchmark: one command, five workloads, every metric by name.

    python benchmarks/perf/run.py --seed 1                    # all workloads, end to end
    python benchmarks/perf/run.py --seed 1 --trace            # ... plus the traced per-layer run
    python benchmarks/perf/run.py --workload serve-zipf --seed 2 --seconds 12 --trace 0
    python benchmarks/perf/run.py --seed 1 --sets 2 --out ledger.json

Each workload runs in its own subprocess (``worker.py``), one thread
(``OMP_NUM_THREADS=1``, ``PYTHONHASHSEED=0``).  With ``--workload`` the
last line of standard output is the worker's result object
(``correct``/``attempted``/``failed``/``metrics``): every end-to-end
metric for ``--trace 0``, every per-layer metric for ``--trace 1``.
``--sets N`` runs the whole set N times and fails unless modeled/counter
metrics are identical and the other end-to-end metrics agree within
their bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

WORKER_TIMEOUT_S = 170


def run_worker(workload: str, seed: int, seconds: float, trace: int, size: str, echo: bool) -> dict:
    """One workload in one subprocess; returns its detail record (raises on a dead worker)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=out_dir, suffix=".json") as detail:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--size", size, "--detail-out", detail.name]
        # subprocess.run kills and reaps the child on timeout or interrupt
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            raise SystemExit(proc.returncode)
        if echo:  # the tables; the result line of each run is in the summary and in --out
            sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        record = json.loads(Path(detail.name).read_text())
    record["stdout"] = proc.stdout
    return record


def check_sets(records: list, bounds: dict) -> list:
    """Repeatability across sets of one seed: a list of violations (empty = steady)."""
    problems = []
    groups: dict = {}
    for r in records:
        for name, m in r["metrics"].items():
            groups.setdefault((r["workload"], r["section"], name), []).append(m["value"])
    for (workload, section, name), vals in sorted(groups.items()):
        if len(vals) < 2:
            continue
        if M.is_deterministic(name):
            if len(set(vals)) != 1:
                problems.append(f"{workload} {name}: deterministic metric differs between sets: {vals}")
        elif section == "end_to_end":
            spread = (max(vals) - min(vals)) / M.median(vals)
            if spread > bounds[name]["bound"]:
                problems.append(
                    f"{workload} {name}: sets differ by {spread:.1%} of their median, bound {bounds[name]['bound']:.0%}: {vals}"
                )
    return problems


def main(argv=None) -> int:
    bench = M.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="run one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1; 2 is the held-out seed)")
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]), help="measuring time per run")
    ap.add_argument("--trace", type=int, nargs="?", const=2, default=0, choices=(0, 1, 2),
                    help="0: end-to-end metrics; 1: traced per-layer run only; bare --trace: both")
    ap.add_argument("--size", default="default", choices=("default", "tiny"), help="tiny is for smoke tests only")
    ap.add_argument("--sets", type=int, default=1, help="run the whole set N times and check repeatability")
    ap.add_argument("--out", help="write every run's metrics to this JSON file (input of compare.py)")
    args = ap.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    modes = {0: [0], 1: [1], 2: [0, 1]}[args.trace]
    single = len(workloads) == 1 and len(modes) == 1 and args.sets == 1
    records = []
    for s in range(args.sets):
        for w in workloads:
            for mode in modes:
                rec = run_worker(w, args.seed, args.seconds, mode, args.size, echo=not single)
                rec["set"] = s
                records.append(rec)

    if args.out:
        doc = {"schema": 1, "seed": args.seed, "size": args.size, "seconds": args.seconds,
               "runs": [{k: v for k, v in r.items() if k != "stdout"} for r in records]}
        Path(args.out).write_text(json.dumps(doc, indent=1))
    if single:
        sys.stdout.write(records[0]["stdout"])  # ends with the result line
        return 0

    problems = check_sets(records, M.metric_table("end_to_end")) if args.sets > 1 else []
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print()
    if args.sets > 1:
        print(f"repeatability over {args.sets} sets: " + ("steady" if not problems else f"{len(problems)} violation(s)"))
        for p in problems:
            print(f"  UNSTEADY: {p}")
    print(f"failed_share = {failed / max(1, attempted):.6f} ({failed} of {attempted} operations, {len(records)} runs)")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
                      "runs": len(records)}))
    return 0 if failed == 0 and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
