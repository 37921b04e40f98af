"""Traced runs with per-phase self attribution (+ Chrome trace export).

Each experiment builds the workload, installs a :class:`~repro.obs.Tracer`
on the system's device stats around the phase of interest, and the arm
renders it (``profile_table``) and optionally exports it
(``trace_out``: Chrome trace-event JSON).

The gates: per-phase self modeled-ns must sum to the run's total (float
rounding only) and the integer counters must sum exactly — no
double-counting, no leaks (``check_attribution``); a traced crash
recovery streams the log region once and ``replay_logs`` reads nothing
(``check_recovery_reads``); a written trace file is loadable
(``check_chrome_trace``).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional

from ..baselines import SYSTEMS
from ..core.dgap import DGAP
from ..obs import INT_COUNTER_FIELDS, Tracer, aggregate_phases, tracing, write_chrome_trace
from .harness import DEFAULT_BATCH_SIZE, load_stream, make_store, pick_source, run_kernel
from .reporting import profile_table

#: The merge/rebalance-heavy arm: large segments keep the per-section
#: lock/clear overhead small relative to the gather/plan/write passes the
#: bulk read layer vectorizes; each round ingests a stream slice and then
#: forces a whole-array rebalance.
REBALANCE_ARM_SEGMENT_SLOTS = 4096
REBALANCE_ARM_ROUNDS = 12


def profile_insert(
    dataset: str,
    scale: float,
    batch_size: Optional[int],
    *,
    device_ops: bool = False,
) -> Tracer:
    """Trace a full ingest of the dataset stream into a fresh DGAP."""
    nv, edges = load_stream(dataset, scale)
    g = make_store(nv, edges.shape[0])
    tracer = Tracer(g.pool.stats, device_ops=device_ops)
    with tracing(tracer):
        g.insert_edges(edges, batch_size=batch_size)
    return tracer


def profile_recovery(
    dataset: str,
    scale: float,
    batch_size: Optional[int],
    *,
    device_ops: bool = False,
) -> Tracer:
    """Ingest untraced, crash the pool, then trace the recovery path."""
    nv, edges = load_stream(dataset, scale)
    g = make_store(nv, edges.shape[0])
    g.insert_edges(edges, batch_size=batch_size)
    g.pool.crash()
    tracer = Tracer(g.pool.stats, device_ops=device_ops)
    with tracing(tracer):
        DGAP.open(g.pool, g.config)
    return tracer


def rebalance_arm(
    dataset: str,
    scale: float,
    batch_size: Optional[int],
    scalar_readpath: bool = False,
    make_tracer=None,
):
    """The merge/rebalance-heavy loop; ``(graph, rebalance_wall_s, tracer)``.

    The stream is split into ``REBALANCE_ARM_ROUNDS`` slices; after each
    slice a full whole-array rebalance is forced.  Only the rebalance
    calls are timed — that is the path the bulk pmem read layer
    vectorizes (the ingest slices between them exercise the ordinary
    merge triggers).  ``make_tracer(graph)`` supplies a tracer to run
    the rounds under.
    """
    nv, edges = load_stream(dataset, scale)
    g = make_store(
        nv, edges.shape[0],
        segment_slots=REBALANCE_ARM_SEGMENT_SLOTS, scalar_readpath=scalar_readpath,
    )
    tracer = make_tracer(g) if make_tracer else None
    per = max(1, edges.shape[0] // REBALANCE_ARM_ROUNDS)
    wall = 0.0
    with tracing(tracer) if tracer else nullcontext():
        for r in range(REBALANCE_ARM_ROUNDS):
            g.insert_edges(edges[r * per : (r + 1) * per], batch_size=batch_size)
            t0 = perf_counter()
            g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)
            wall += perf_counter() - t0
    return g, wall, tracer


def profile_rebalance(
    dataset: str,
    scale: float,
    batch_size: Optional[int],
    *,
    device_ops: bool = False,
) -> Tracer:
    """Trace the merge/rebalance-heavy arm (forced whole-array rebalances)."""
    return rebalance_arm(
        dataset, scale, batch_size,
        make_tracer=lambda g: Tracer(g.pool.stats, device_ops=device_ops),
    )[2]


def profile_analysis(
    dataset: str,
    scale: float,
    batch_size: Optional[int],
    *,
    device_ops: bool = False,
) -> Tracer:
    """Ingest untraced, then trace view materialization + all four kernels.

    Kernels charge the analysis clock rather than device stats, so their
    spans mostly carry wall time and ``analysis_*_ns`` attributes; the
    device-side cost shows up in the ``view_materialize``/``to_csr``
    spans.
    """
    nv, edges = load_stream(dataset, scale)
    system = SYSTEMS["dgap"](nv, edges.shape[0])
    system.insert_batch(edges)
    src = pick_source(dataset, scale)
    tracer = Tracer(system.graph.pool.stats, device_ops=device_ops)
    with tracing(tracer):
        view = system.analysis_view()
        for kernel in ("pr", "bfs", "cc", "bc"):
            run_kernel(view, kernel, source=src)
    return tracer


_RUNNERS = {
    "insert": profile_insert,
    "recovery": profile_recovery,
    "analysis": profile_analysis,
    "rebalance": profile_rebalance,
}
PROFILE_EXPERIMENTS = tuple(_RUNNERS)


@dataclass
class ProfileRun:
    title: str
    tracer: Tracer
    trace_out: str  #: Chrome trace path ("" = not written)
    events_written: int = 0


def run(
    experiment,
    dataset="orkut",
    scale=0.1,
    batch_size=DEFAULT_BATCH_SIZE,
    trace_out="",
    device_ops=False,
) -> ProfileRun:
    tracer = _RUNNERS[experiment](dataset, scale, batch_size, device_ops=device_ops)
    title = (f"profile {experiment} — {dataset} (scale {scale:g}): "
             "per-phase self attribution")
    written = write_chrome_trace(tracer, trace_out) if trace_out else 0
    return ProfileRun(title, tracer, trace_out, written)


def report(r: ProfileRun):
    yield profile_table(r.tracer, title=r.title)
    yield f"spans recorded: {r.tracer.span_count()}"
    if r.trace_out:
        yield f"wrote {r.events_written} Chrome trace events to {r.trace_out}"


def gates(r: ProfileRun):
    def row(label, failures):
        return (label, "exact", "; ".join(failures) or "exact", not failures)

    rows = [
        row("per-phase modeled ns and counters sum to the device totals",
            check_attribution(r.tracer)),
        row("recovery streams the log region once; replay_logs reads nothing",
            check_recovery_reads(r.tracer)),
    ]
    if r.trace_out:
        rows.append(row("Chrome trace file loads", check_chrome_trace(r.trace_out)))
    return rows


# -- the gates' checks ------------------------------------------------------

def check_attribution(tracer: Tracer) -> List[str]:
    """Return human-readable failures; empty list = attribution is exact."""
    failures: List[str] = []
    total = tracer.total_delta()
    if total is None:
        return ["tracer has no stats; nothing to check"]
    rows, untraced = aggregate_phases(tracer)
    if not rows:
        failures.append("no spans were recorded")
        return failures

    modeled = sum(r.modeled_ns for r in rows) + untraced.modeled_ns
    tol = max(1e-6 * abs(total.modeled_ns), 1e-3)
    if abs(modeled - total.modeled_ns) > tol:
        failures.append(
            f"modeled-ns attribution leak: phases sum to {modeled}, "
            f"device total is {total.modeled_ns}"
        )
    for field in INT_COUNTER_FIELDS:
        got = sum(r.counters[field] for r in rows) + untraced.counters[field]
        want = getattr(total, field)
        if got != want:
            failures.append(
                f"counter {field!r} attribution leak: phases sum to {got}, "
                f"device total is {want}"
            )
    if untraced.modeled_ns < -tol:
        failures.append(
            f"(untraced) modeled ns is negative ({untraced.modeled_ns}): "
            "root spans overlap or double-count"
        )
    return failures


def check_recovery_reads(tracer: Tracer) -> List[str]:
    """A traced crash recovery reads every log byte once, sequentially:
    ``rebuild_log_cursors`` streams exactly the log region and
    ``replay_logs`` works from that image (no device read)."""
    reads = {
        r.name: (r.counters["seq_read_bytes"], r.counters["rnd_reads"])
        for r in aggregate_phases(tracer)[0]
    }
    failures: List[str] = []
    if any(reads.get("replay_logs", ())):
        failures.append(
            "replay_logs read the device (%d sequential bytes, %d random reads); "
            "it must work from the cursor-rebuild image" % reads["replay_logs"]
        )
    log_bytes = sum(s.attrs["log_bytes"] for s in tracer.find("rebuild_log_cursors"))
    if reads.get("rebuild_log_cursors", (0, 0)) != (log_bytes, 0):
        failures.append(
            "rebuild_log_cursors made %d random reads and streamed %d bytes of a "
            "%d-byte log region; expected one sequential pass"
            % (reads["rebuild_log_cursors"][::-1] + (log_bytes,))
        )
    return failures


def check_chrome_trace(path: str) -> List[str]:
    """Validate the written file is loadable Chrome trace-event JSON."""
    failures: List[str] = []
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        return [f"trace file {path!r} is not readable JSON: {e}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return [f"trace file {path!r} has no traceEvents array"]
    for i, ev in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                failures.append(f"event {i} missing {key!r}")
                break
        if ev.get("ph") == "X" and (ev.get("dur", -1) < 0 or ev.get("ts", -1) < 0):
            failures.append(f"event {i} ({ev.get('name')}) has bad ts/dur")
    return failures
