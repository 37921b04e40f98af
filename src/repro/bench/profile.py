"""Traced runs with per-phase self attribution (+ Chrome trace export).

Each experiment builds the workload, installs a :class:`~repro.obs.Tracer`
on the system's device stats around the phase of interest, and the arm
renders it (``profile_table``) and optionally exports it
(``trace_out``: Chrome trace-event JSON).

The gates are :mod:`repro.obs`'s checks: per-phase self modeled-ns must
sum to the run's total (float rounding only) and the integer counters
must sum exactly — no double-counting, no leaks (``check_attribution``);
a traced crash recovery streams the log region once and ``replay_logs``
reads nothing (``check_recovery_reads``); a written trace file is
loadable (``check_chrome_trace``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baselines import SYSTEMS
from ..core.dgap import DGAP
from ..obs import (
    Tracer,
    check_attribution,
    check_chrome_trace,
    check_recovery_reads,
    tracing,
    write_chrome_trace,
)
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


def profile_rebalance(
    dataset: str,
    scale: float,
    batch_size: Optional[int],
    *,
    device_ops: bool = False,
) -> Tracer:
    """Trace the merge/rebalance-heavy arm: ``REBALANCE_ARM_ROUNDS``
    stream slices, each followed by a forced whole-array rebalance."""
    nv, edges = load_stream(dataset, scale)
    g = make_store(nv, edges.shape[0], segment_slots=REBALANCE_ARM_SEGMENT_SLOTS)
    tracer = Tracer(g.pool.stats, device_ops=device_ops)
    per = max(1, edges.shape[0] // REBALANCE_ARM_ROUNDS)
    with tracing(tracer):
        for r in range(REBALANCE_ARM_ROUNDS):
            g.insert_edges(edges[r * per : (r + 1) * per], batch_size=batch_size)
            g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)
    return tracer


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
