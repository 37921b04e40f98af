"""One workload, one process: run it, derive the metrics, print the result line.

Started by ``run.py`` with ``OMP_NUM_THREADS=1`` and ``PYTHONHASHSEED=0``.
``--trace 0`` reports every end-to-end metric (from untraced cycles
only); ``--trace 1`` replays the long cycle with spans and reports every
per-layer metric.  The two are never mixed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
from pathlib import Path
from dataclasses import replace
from time import perf_counter, perf_counter_ns
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perf benchmark: library source not found at {SRC} — nothing to measure")
sys.path[:0] = [str(SRC), str(HERE)]

from repro.obs import aggregate_phases  # noqa: E402

import metrics as M  # noqa: E402
from harness import Cycle, Ledger, Store, set_up  # noqa: E402
from probe import probe_metrics, probe_table, run_probe  # noqa: E402
from workloads import READ_CLASSES, get_spec, make_inputs  # noqa: E402

SHORT_CYCLES_PER_BLOCK = 3
MAX_BLOCKS = 4
MIN_SETUPS = 12  # set-up is the one gated wall metric: give its minimum enough draws
INGEST_ROOTS = ("insert_edges", "temporal_step")
CORE_PHASES = ("batch_round", "merge", "rebalance", "write_window", "resize")
RECOVER_PHASES = ("scan_edge_array", "replay_logs", "recover_ulogs", "rebuild_log_cursors")


def _sum(xs) -> float:
    return float(sum(xs))


def timed_wall_ns(out: dict) -> float:
    """All wall time spent inside timed public calls of one long cycle."""
    total = _sum(out["ingest"]["wall_ns"]) + _sum(out["recover"]["wall_ns"])
    total += _sum(r["wall_ns"] for r in out.get("rounds", []))
    total += _sum(out["reads"]["wall_ns"]) + _sum(out["writes"]["wall_ns"])
    return total


def by_lap(laps, values) -> List[list]:
    groups: Dict[int, list] = {}
    for lap, v in zip(laps, values):
        groups.setdefault(lap, []).append(v)
    return [groups[k] for k in sorted(groups)]


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def measure(spec, seed: int, seconds: float, strict: bool, ledger: Ledger):
    """Untraced blocks of cycles -> every end-to-end metric and every ``wall.*`` metric.

    Modeled metrics come from the whole population; wall metrics dodge the noise.

    Contention on the shared sandbox comes in bursts and only ever slows
    things, so a wall number is built from the clean observations: work
    repeated identically (client batches, crash points and set-ups of the
    short cycles) takes the fastest observation of each piece; work that
    differs from lap to lap (analysis rounds, serve ops) is cut into many
    small laps and reports the lower-quartile lap.
    """
    deadline = perf_counter() + seconds
    longs: List[dict] = []
    shorts: List[dict] = []
    while len(longs) < MAX_BLOCKS:  # a block: one long cycle, then the short ones
        t0 = perf_counter()
        longs.append(Cycle(spec, seed, ledger).run(long=True))
        shorts.extend(Cycle(spec, seed, ledger).run(long=False) for _ in range(SHORT_CYCLES_PER_BLOCK))
        if perf_counter() + (perf_counter() - t0) > deadline:
            break

    # identical work must read identically on the modeled clock and in every counter
    def modeled_view(c: dict) -> tuple:
        serve = (c["reads"]["modeled_ns"], c["writes"]["modeled_ns"]) if "reads" in c else ()
        return (c["digest"], c["ingest"]["modeled_ns"], c["ingest"]["stats"], c["recover"]["modeled_ns"],
                [r["modeled_ns"] for r in c.get("rounds", [])], serve)

    for kind, cycles in (("short", shorts), ("long", longs)):
        for i, c in enumerate(cycles[1:], 1):
            ledger.check(modeled_view(c) == modeled_view(cycles[0]),
                         f"{kind} cycle {i}: inputs, modeled clock or counters differ from {kind} cycle 0")
    ref = shorts[0]
    ledger.check(longs[0]["digest"] == ref["digest"], "long cycle: inputs differ from the short cycles'")

    ing = ref["ingest"]
    rounds = longs[0]["rounds"]
    reads, writes = longs[0]["reads"], longs[0]["writes"]
    per_lap = max(1, len(rounds) // spec.laps)
    round_laps, read_laps, write_laps = [], [], []
    for c in longs:
        round_laps += by_lap([i // per_lap for i in range(len(rounds))], [r["wall_ns"] for r in c["rounds"]])
        read_laps += by_lap(c["reads"]["lap"], c["reads"]["wall_ns"])
        write_laps += by_lap(c["writes"]["lap"], c["writes"]["wall_ns"])
    setups = [c["setup_s"] for c in [*longs, *shorts]]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(set_up(spec, seed)[2])
    best_batches = [min(ws) for ws in zip(*(c["ingest"]["wall_ns"] for c in shorts))]
    best_reopens = [min(ws) for ws in zip(*(c["recover"]["wall_ns"] for c in shorts))]
    q1 = M.lower_quartile
    values = {
        "setup_s": min(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pool_bytes_per_edge": ing["pool_bytes"] / max(1, ing["live_edges"]),
        "media_write_amp": ing["stats"]["media_bytes"] / max(1, ing["stats"]["payload_bytes"]),
        "wall.ingest_keps": ing["mutations"] / _sum(best_batches) * 1e6,
        "ingest_modeled_meps": ing["mutations"] / _sum(ing["modeled_ns"]) * 1e3,
        "ingest_batch_modeled_us_p90": M.percentile(ing["modeled_ns"], 90, strict) / 1e3,
        "wall.recover_ms": M.median(best_reopens) / 1e6,
        "recover_modeled_ms": _sum(ref["recover"]["modeled_ns"]) / len(ref["recover"]["modeled_ns"]) / 1e6,
        "wall.analyze_ms_per_round": q1([_sum(lap) / len(lap) for lap in round_laps]) / 1e6,
        "analyze_modeled_ms_per_round": _sum(r["modeled_ns"] for r in rounds) / len(rounds) / 1e6,
        "wall.serve_read_us_p50": q1([M.median(lap) for lap in read_laps]) / 1e3,
        "wall.serve_read_us_mean": q1([_sum(lap) / len(lap) for lap in read_laps]) / 1e3,
        "serve_read_modeled_us_mean": _sum(reads["modeled_ns"]) / len(reads["modeled_ns"]) / 1e3,
        "wall.serve_write_us_p50": q1([M.median(lap) for lap in write_laps]) / 1e3,
    }
    n_cycles, n_reads = len(shorts), len(reads["wall_ns"])
    counts = {
        "setup_s": f"best of {len(setups)} set-ups",
        "wall.ingest_keps": f"each batch's best of {n_cycles} cycles",
        "ingest_batch_modeled_us_p90": f"{len(ing['modeled_ns'])} batches",
        "wall.recover_ms": f"{len(best_reopens)} crashes, each one's best of {n_cycles} cycles",
        "recover_modeled_ms": f"mean of {len(ref['recover']['modeled_ns'])} crashes",
        "wall.analyze_ms_per_round": f"Q1 of {len(round_laps)} laps x {per_lap} rounds",
        "analyze_modeled_ms_per_round": f"{len(rounds)} rounds",
        "wall.serve_read_us_p50": f"Q1 of {len(read_laps)} laps x {n_reads // spec.serve_laps} reads",
        "wall.serve_read_us_mean": f"Q1 of {len(read_laps)} laps x {n_reads // spec.serve_laps} reads",
        "serve_read_modeled_us_mean": f"{n_reads} reads",
        "wall.serve_write_us_p50": f"Q1 of {len(write_laps)} laps x {len(writes['wall_ns']) // spec.serve_laps} writes",
    }
    info = {"digest": ref["digest"], "long_cycles": len(longs), "short_cycles": n_cycles,
            "reads_checked": sum(c["reads_checked"] for c in longs), "serve": longs[0]["serve_counters"],
            "mutations": ing["mutations"]}
    return values, counts, info, longs


# ---------------------------------------------------------------------------
# per layer
# ---------------------------------------------------------------------------

def _phase_rows(tracer):
    rows, _ = aggregate_phases(tracer)
    return {r.name: r for r in rows}


def _root_wall(tracer, names=None) -> float:
    return _sum(s.wall_ns for s in tracer.roots if names is None or s.name in names)


def _twin_ingest(spec, seed: int) -> Dict[str, float]:
    """The sharded stream through one unsharded DGAP — the base of the sharding ratios."""
    inputs = make_inputs(spec, seed)
    graph = Store(replace(spec, store="dgap"), inputs).graph
    m0, t0 = graph.pool.stats.modeled_ns, perf_counter_ns()
    for batch in inputs.batches:
        graph.insert_edges(batch)
    return {"wall_ns": perf_counter_ns() - t0, "modeled_ns": graph.pool.stats.modeled_ns - m0}


def run_per_layer(spec, seed: int, strict: bool, ledger: Ledger):
    """One untraced block (wall metrics, the base of the overhead ratio), then the traced long cycle."""
    walls, _, _, longs = measure(spec, seed, 0.0, strict, ledger)
    untraced = longs[0]
    cyc = Cycle(spec, seed, ledger, traced=True)
    out = cyc.run(long=True)
    ledger.check(
        out["ingest"]["modeled_ns"] == untraced["ingest"]["modeled_ns"]
        and out["ingest"]["stats"] == untraced["ingest"]["stats"],
        "tracing changed the modeled clock or a counter",
    )
    p50 = M.median
    v: Dict[str, float] = {k: x for k, x in walls.items() if k.startswith("wall.")}
    ing = out["ingest"]
    n = max(1, ing["mutations"])
    st = ing["stats"]

    # pmem
    for k in ("stores", "flushes", "fences", "stored_bytes", "media_bytes", "seq_read_bytes", "rnd_reads", "modeled_ns"):
        v[f"pmem.{k}_per_edge"] = st[k] / n
    v["pmem.inplace_flush_share"] = st["inplace_flushes"] / max(1, st["flushes"])
    probe_rows = run_probe(seed)
    v.update(probe_metrics(probe_rows))

    # core
    v["core.insert_edges.wall_us_per_edge"] = _sum(ing["wall_ns"]) / n / 1e3
    v["core.insert_edges.modeled_ns_per_edge"] = _sum(ing["modeled_ns"]) / n
    tr = cyc.tracers["ingest"]
    rows = _phase_rows(tr)
    wall_total = max(1.0, _root_wall(tr, INGEST_ROOTS))
    modeled_total = max(1e-9, _sum(s.modeled_ns for s in tr.roots if s.name in INGEST_ROOTS))
    for ph in CORE_PHASES:
        r = rows.get(ph)
        v[f"core.phase.{ph}.self_wall_share"] = r.wall_ns / wall_total if r else 0.0
        v[f"core.phase.{ph}.modeled_share"] = r.modeled_ns / modeled_total if r else 0.0
    state = out["state"]
    v["core.rebalance.count"] = state["rebalances"]
    v["core.resize.count"] = state["resizes"]
    rtr = cyc.tracers["recover"]
    rrows = _phase_rows(rtr)
    rwall = max(1.0, _root_wall(rtr))
    for ph in RECOVER_PHASES:
        v[f"core.recover.{ph}.self_wall_share"] = rrows[ph].wall_ns / rwall if ph in rrows else 0.0
    rs = out.get("restart", {})
    v["core.normal_restart.wall_ms"] = rs.get("wall_ns", 0) / 1e6
    v["core.normal_restart.modeled_ms"] = rs.get("modeled_ns", 0.0) / 1e6
    v["core.shutdown.wall_ms"] = rs.get("shutdown_wall_ns", 0) / 1e6
    compacts = tr.find("compact")
    v["core.compact.wall_ms_p50"] = p50([s.wall_ns for s in compacts]) / 1e6 if compacts else 0.0
    v["core.compact.count"] = len(compacts)
    v["core.compact.pairs_dropped_per_sweep"] = (
        _sum(s.attrs.get("pairs_dropped", 0) for s in compacts) / len(compacts) if compacts else 0.0
    )
    temporal = out.get("temporal")
    v["core.tombstone_density_p50"] = p50(temporal["density"]) if temporal else state["tombstone_density"]
    v["core.pma_fill"] = state["pma_fill"]
    rounds = out["rounds"]
    v["core.consistent_view.wall_us_p50"] = p50([r["consistent_view_wall_ns"] for r in rounds]) / 1e3
    v["core.to_csr.wall_ms_p50"] = p50([r["to_csr_wall_ns"] for r in rounds]) / 1e6

    # analysis
    def views(pred):
        return [r["view_wall_ns"] for r in rounds if pred(r)]

    full = views(lambda r: r["counters"]["full_rebuilds"] > 0)
    local = [r for r in rounds if r["counters"]["incremental_builds"] > 0 and r["kind"] == "local"]
    scat = [r for r in rounds if r["counters"]["incremental_builds"] > 0 and r["kind"] != "local"]
    v["analysis.view_full.wall_ms_p50"] = p50(full) / 1e6 if full else 0.0
    v["analysis.view_patch_local.wall_ms_p50"] = p50([r["view_wall_ns"] for r in local]) / 1e6 if local else 0.0
    v["analysis.view_patch_scattered.wall_ms_p50"] = p50([r["view_wall_ns"] for r in scat]) / 1e6 if scat else 0.0
    v["analysis.in_csr.wall_ms_p50"] = p50([r["in_csr_wall_ns"] for r in rounds]) / 1e6
    hits = [w for r in rounds for w in r["hit_wall_ns"]]
    v["analysis.view_hit.wall_us_p50"] = p50(hits) / 1e3 if hits else 0.0
    tot = lambda k: _sum(r["counters"].get(k, 0) for r in rounds)
    for k in ("full_rebuilds", "incremental_builds", "whole_view_hits"):
        v[f"analysis.{k}"] = tot(k)
    v["analysis.rows_reused_share"] = tot("rows_reused") / max(1.0, tot("rows_reused") + tot("vertices_rebuilt"))
    for name, grp in (("local", local), ("scattered", scat)):
        v[f"analysis.sections_rebuilt_share_{name}"] = (
            _sum(r["counters"]["sections_rebuilt"] for r in grp) / _sum(r["sections_total"] for r in grp) if grp else 0.0
        )

    # algorithms
    for k in ("pr", "bfs", "cc", "bc"):
        ws = [r["kernels"][k]["wall_ns"] for r in rounds if k in r["kernels"]]
        ms = [r["kernels"][k]["modeled_ns"] for r in rounds if k in r["kernels"]]
        v[f"algorithms.{k}.wall_ms_p50"] = p50(ws) / 1e6 if ws else 0.0
        v[f"algorithms.{k}.modeled_ms_p50"] = p50(ms) / 1e6 if ms else 0.0

    # sharding
    sharded = spec.store == "sharded"
    if sharded:
        twin = _twin_ingest(spec, seed)
        v["sharding.insert_overhead_ratio"] = _sum(ing["wall_ns"]) / twin["wall_ns"]  # base: one unsharded DGAP
        v["sharding.modeled_speedup"] = twin["modeled_ns"] / _sum(ing["modeled_ns"])  # base: one unsharded DGAP
        v["sharding.max_shard_share"] = max(state["shard_edges"]) / max(1, sum(state["shard_edges"]))
        v["sharding.batch_wall_ms_p50"] = p50(ing["wall_ns"]) / 1e6
        v["sharding.global_csr_cold.wall_ms"] = out["global_csr"]["cold_ns"] / 1e6
        v["sharding.global_csr_warm.wall_ms"] = out["global_csr"]["warm_ns"] / 1e6
        v["sharding.recover.wall_ms"] = out["recover"]["wall_ns"][-1] / 1e6
        v["sharding.recover.modeled_ms"] = out["recover"]["modeled_ns"][-1] / 1e6
    else:
        for k in ("insert_overhead_ratio", "modeled_speedup", "max_shard_share", "batch_wall_ms_p50",
                  "global_csr_cold.wall_ms", "global_csr_warm.wall_ms", "recover.wall_ms", "recover.modeled_ms"):
            v[f"sharding.{k}"] = 0.0

    # serve
    rd, wr = out["reads"], out["writes"]
    refreshed = rd["refreshed"]
    acq_hit = [a for a, f in zip(rd["acquire_ns"], refreshed) if not f]
    acq_ref = [a for a, f in zip(rd["acquire_ns"], refreshed) if f]
    v["serve.acquire_hit.wall_us_p50"] = p50(acq_hit) / 1e3
    v["serve.acquire_refresh.wall_ms_p50"] = p50(acq_ref) / 1e6 if acq_ref else 0.0
    v["serve.refresh_share"] = len(acq_ref) / max(1, len(refreshed))
    v["serve.refresh_wall_share"] = _sum(w for w, f in zip(rd["wall_ns"], refreshed) if f) / max(1.0, _sum(rd["wall_ns"]))
    for cls in READ_CLASSES:
        idx = [i for i, c in enumerate(rd["cls"]) if c == cls]
        v[f"serve.{cls}.wall_us_p50"] = p50([rd["wall_ns"][i] - rd["acquire_ns"][i] for i in idx]) / 1e3 if idx else 0.0
        v[f"serve.{cls}.modeled_us_p50"] = p50([rd["query_modeled_ns"][i] for i in idx]) / 1e3 if idx else 0.0
    v["serve.read.wall_ms_p99"] = M.percentile(rd["wall_ns"], 99, strict) / 1e6
    v["serve.read.modeled_us_p99"] = M.percentile(rd["modeled_ns"], 99, strict) / 1e3
    v["serve.write.wall_us_p50"] = p50(wr["wall_ns"]) / 1e3
    v["serve.write.wall_us_p90"] = M.percentile(wr["wall_ns"], 90, strict) / 1e3
    v["serve.write.modeled_us_p50"] = p50(wr["modeled_ns"]) / 1e3

    # temporal
    if temporal:
        steps = temporal["steps"]
        step_wall = max(1.0, _root_wall(tr, ("temporal_step",)))
        v["temporal.advance.wall_ms_p50"] = p50(ing["wall_ns"]) / 1e6
        v["temporal.advance.wall_ms_p90"] = M.percentile(ing["wall_ns"], 90, strict) / 1e6
        for ph in ("window_expiry", "compact"):
            v[f"temporal.{ph}.self_wall_share"] = rows[ph].wall_ns / step_wall if ph in rows else 0.0
        v["temporal.compactions"] = temporal["compactions"]
        v["temporal.expired_per_step"] = temporal["expired"] / steps
        v["temporal.live_edges_end"] = temporal["live_edges"]
        v["temporal.pool_bytes_growth_per_step"] = temporal["pool_growth"] / steps
    else:
        for k in ("advance.wall_ms_p50", "advance.wall_ms_p90", "window_expiry.self_wall_share",
                  "compact.self_wall_share", "compactions", "expired_per_step", "live_edges_end",
                  "pool_bytes_growth_per_step"):
            v[f"temporal.{k}"] = 0.0

    v["bench.trace_overhead_ratio"] = timed_wall_ns(out) / timed_wall_ns(untraced)  # base: the untraced long cycle
    # a percentile without enough samples beyond it is not reported: it reads 0
    v = {k: (0.0 if isinstance(x, float) and math.isnan(x) else float(x)) for k, x in v.items()}
    info = {"digest": out["digest"], "probe": probe_rows, "reads_checked": out["reads_checked"],
            "rounds": len(rounds), "patch_local": len(local), "patch_scattered": len(scat)}
    return v, info, cyc


def chrome_trace(workload: str, cyc: Cycle) -> dict:
    """Benchmark-side spans (tid 1) and harvested ``repro.obs`` spans (tid 2), wall clock."""
    spans = cyc.spans or []
    t_min = min((s[2] for s in spans), default=0)
    events = [
        {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
         "ts": (t0 - t_min) / 1e3, "dur": (t1 - t0) / 1e3,
         "args": {"id": i, "parent": parent, "workload": workload}}
        for i, (name, layer, t0, t1, parent) in enumerate(spans)
    ]
    for phase, tracer in cyc.tracers.items():
        for _, sp in tracer.walk():
            events.append({
                "name": sp.name, "cat": "repro.obs", "ph": "X", "pid": 1, "tid": 2,
                "ts": (sp.t0_wall - t_min) / 1e3, "dur": sp.wall_ns / 1e3,
                "args": {"phase": phase, "workload": workload, "modeled_ns": sp.modeled_ns,
                         **{k: a for k, a in sp.attrs.items() if isinstance(a, (int, float, str, bool))}},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def check_pin(workload: str, size: str, seed: int, digest: str, ledger: Ledger) -> str:
    pinned = M.load_pins().get("input_sha256", {}).get(size, {}).get(workload, {}).get(str(seed))
    if pinned is None:
        return "unpinned seed"
    if pinned != digest:
        ledger.fail(f"input digest drifted: pinned {pinned[:16]}…, generated {digest[:16]}… — the traffic changed")
        return "DRIFTED"
    return "matches pin"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(M.load_benchmark()["run_seconds"]))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="default")
    ap.add_argument("--detail-out")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    spec = get_spec(args.workload, args.size)
    strict = args.size == "default"

    ledger = Ledger()
    if args.trace:
        values, info, cyc = run_per_layer(spec, args.seed, strict, ledger)
        section, counts = "per_layer", {}
        trace_out = Path(args.trace_out or HERE / "out" / f"trace-{spec.name}-seed{args.seed}.json")
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_out, "w") as f:
            json.dump(chrome_trace(spec.name, cyc), f)
        print(f"chrome trace: {trace_out}")
        print("pmem probe (scratch device; modeled should equal the repro.pmem.latency constant):")
        print(probe_table(info["probe"]))
    else:
        values, counts, info, _ = measure(spec, args.seed, args.seconds, strict, ledger)
        section = "end_to_end"
    pin = check_pin(spec.name, args.size, args.seed, info["digest"], ledger)

    table = M.metric_table(section)
    missing = [k for k in table if k not in values]
    if missing or any(math.isnan(x) or math.isinf(x) for x in values.values()):
        bad = missing or [k for k, x in values.items() if math.isnan(x) or math.isinf(x)]
        sys.exit(f"perf benchmark: no value for {bad} on {spec.name} — sizes too small for the percentile rule?")
    print(f"workload {spec.name}  size {args.size}  seed {args.seed}  input sha256 {info['digest']} ({pin})")
    print(M.table(
        [[k, M.fmt(values[k]), table[k]["unit"], table[k]["better"], counts.get(k, "")] for k in table],
        ["metric", "value", "unit", "better", "n"],
    ))
    if not args.trace:
        layer = M.metric_table("per_layer")
        print("wall clock of the same run (per-layer metrics: no bound, reported by --trace 1):")
        print(M.table(
            [[k, M.fmt(x), layer[k]["unit"], layer[k]["better"], counts.get(k, "")] for k, x in values.items() if k in layer],
            ["metric", "value", "unit", "better", "n"],
        ))
    failed_share = ledger.failed / max(1, ledger.attempted)
    print(f"failed_share = {failed_share:.6f} ({ledger.failed} of {ledger.attempted} operations); "
          f"{info['reads_checked']} serve reads verified")
    for note in ledger.notes:
        print(f"  FAILED: {note}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": table[k]["unit"]} for k in table},
    }
    if args.detail_out:
        detail = dict(result, workload=spec.name, seed=args.seed, size=args.size, section=section,
                      counts=counts, digest=info["digest"], pin=pin, notes=ledger.notes,
                      info={k: x for k, x in info.items() if k != "digest"})
        with open(args.detail_out, "w") as f:
            json.dump(detail, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
