"""Replay a serve op stream on the modeled clock; twin byte-identity.

The driver executes one generated op stream (:func:`~repro.serve.
workload.generate_workload`) against a live graph:

* **writes** go down the real ingest path (``insert_edges``) and are
  serialized on a single writer lane; their service time is the PM
  device's modeled-clock delta, exactly as the vthreads scheduler
  accounts ingest.
* **reads** acquire a :class:`~repro.serve.server.ServeView` (paying
  the epoch check, or the refresh when a write moved the epoch) and run
  wait-free — the arrays they read are immutable, so reads never queue
  behind writes or each other.

Two load models share the loop: **closed** (``n_clients`` think-free
clients with per-client clocks, as in the suite's virtual writer
threads, ``tests/harness/vthreads.py``) and **open**
(seeded Poisson arrivals at ``ARRIVAL_RATE_OPS_PER_S``; latency is
completion minus arrival, so queueing at the writer lane shows up in
write tails).

With ``twin_check=True`` every read also runs against
:class:`SnapshotReader` — the pre-serving behavior of opening a fresh
Degree-Cache snapshot per query — and the results are compared
byte-for-byte.  That twin is both the correctness oracle (served reads
must equal direct snapshot reads at every stream point) and the
baseline for the view-reuse speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..analysis.viewcache import top_k_from_degrees
from ..core.encoding import check_k, check_vertex
from ..obs import annotate, distribution_stats, trace
from ..sharding.partition import local_count, local_ids_to_global, shard_of, to_local
from .server import (
    QueryServer,
    degree_ns,
    k_hop_ns,
    k_hop_walk,
    row_ns,
    snapshot_open_ns,
    top_k_ns,
)
from .workload import ARRIVAL_RATE_OPS_PER_S, ServeWorkloadConfig

QUERY_CLASSES: Tuple[str, ...] = (
    "degree",
    "neighbors",
    "edge_exists",
    "k_hop",
    "top_k_degree",
)


class SnapshotReader:
    """The pre-serving read path: a fresh snapshot per query.

    Implements the same query surface as :class:`~repro.serve.server.
    ServeView`, but every call opens (and releases) a Degree-Cache
    snapshot — per owner shard for point queries, per every shard for
    the global ones — and pays :func:`snapshot_open_ns` on top of the
    identical read cost.  The twin runner uses it as the byte-identity
    oracle and the speedup baseline.  Written against the store surface
    (``shards`` / ``n_shards`` / ``num_vertices``, DESIGN.md §14): a
    plain DGAP is the one-shard case.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self.last_query_ns = 0.0

    # -- helpers -----------------------------------------------------------
    def _owner(self, v: int):
        """(shard graph, local id) for a range-checked global vertex."""
        g = self.graph
        v = check_vertex(v, g.num_vertices)
        return g.shards[shard_of(v, g.n_shards)], to_local(v, g.n_shards)

    # -- queries -----------------------------------------------------------
    def degree(self, v: int) -> int:
        host, lv = self._owner(v)
        with host.consistent_view() as snap:
            self.last_query_ns = snapshot_open_ns(snap.num_vertices) + degree_ns()
            return snap.out_degree(lv)

    def neighbors(self, v: int) -> np.ndarray:
        host, lv = self._owner(v)
        with host.consistent_view() as snap:
            row = snap.out_neighbors(lv)
            self.last_query_ns = snapshot_open_ns(snap.num_vertices) + row_ns(row.size)
            return row

    def edge_exists(self, u: int, w: int) -> bool:
        host, lu = self._owner(u)
        with host.consistent_view() as snap:
            row = snap.out_neighbors(lu)
            hits = np.flatnonzero(row == w)
            found = hits.size > 0
            scanned = int(hits[0]) + 1 if found else row.size
            self.last_query_ns = snapshot_open_ns(snap.num_vertices) + row_ns(scanned)
            return found

    def k_hop(self, v: int, k: int) -> np.ndarray:
        g = self.graph
        n = g.n_shards
        nv = g.num_vertices
        v = check_vertex(v, nv)
        k = check_k(k)
        # One snapshot per shard; they open in parallel (max, not sum).
        snaps = [sh.consistent_view() for sh in g.shards]
        open_ns = max(snapshot_open_ns(s.num_vertices) for s in snaps)
        try:
            found, probes, edges = k_hop_walk(v, k, nv, lambda frontier: np.concatenate([
                snaps[r].out_neighbors(lu)
                for r, lu in zip(shard_of(frontier, n).tolist(), to_local(frontier, n).tolist())
            ]))
            self.last_query_ns = open_ns + k_hop_ns(probes, edges)
            return found
        finally:
            for snap in snaps:
                snap.release()

    def top_k_degree(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        g = self.graph
        n = g.n_shards
        nv = g.num_vertices
        k = check_k(k, nv)
        degrees = np.empty(nv, dtype=np.int64)
        open_ns = 0.0
        for r, sh in enumerate(g.shards):
            lc = local_count(nv - 1, r, n)
            with sh.consistent_view() as snap:
                degrees[local_ids_to_global(lc, r, n)] = snap.live_t[:lc]
            open_ns = max(open_ns, snapshot_open_ns(lc))
        self.last_query_ns = open_ns + top_k_ns(nv, k)
        return top_k_from_degrees(degrees, k)


@dataclass
class ServeReport:
    """Per-class modeled latencies plus twin/identity evidence."""

    mode: str
    reads: int = 0
    writes: int = 0
    #: served-arm modeled latency samples (ns) per class ("write" incl.).
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    makespan_ns: float = 0.0
    refreshes: int = 0
    reuses: int = 0
    served_read_ns: float = 0.0
    snapshot_read_ns: float = 0.0
    identity_checked: bool = False
    mismatches: int = 0

    @property
    def identity_ok(self) -> bool:
        return self.identity_checked and self.mismatches == 0

    @property
    def reuse_ratio(self) -> float:
        total = self.refreshes + self.reuses
        return self.reuses / total if total else 0.0

    @property
    def modeled_read_speedup(self) -> float:
        """Direct-snapshot read time over served read time (modeled)."""
        return self.snapshot_read_ns / self.served_read_ns if self.served_read_ns else 0.0

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-class modeled latency distribution (``p50_us`` … ``p99_us``)."""
        return {
            cls: distribution_stats(np.asarray(vals) * 1e-3, unit="us")
            for cls, vals in self.latencies.items()
            if vals
        }


def _run_query(reader, op: tuple):
    kind = op[0]
    if kind == "degree":
        return reader.degree(op[1])
    if kind == "neighbors":
        return reader.neighbors(op[1])
    if kind == "edge_exists":
        return reader.edge_exists(op[1], op[2])
    if kind == "k_hop":
        return reader.k_hop(op[1], op[2])
    if kind == "top_k_degree":
        return reader.top_k_degree(op[1])
    raise ValueError(f"unknown query op {kind!r}")


def _bytes_equal(a, b) -> bool:
    """Byte-level result identity (dtype-sensitive for arrays)."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, tuple):
        return (
            isinstance(b, tuple)
            and len(a) == len(b)
            and all(_bytes_equal(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def run_serve_workload(
    graph,
    ops: List[tuple],
    config: ServeWorkloadConfig,
    twin_check: bool = False,
) -> ServeReport:
    """Replay ``ops`` against ``graph``; return the latency report.

    Reads are served through one :class:`QueryServer`; writes stream
    down the ingest path on a serialized writer lane.  With
    ``twin_check`` every read also runs on the fresh-snapshot arm and
    must match byte-for-byte (``report.identity_ok``).
    """
    server = QueryServer(graph)
    direct = SnapshotReader(graph) if twin_check else None

    n_clients = max(1, int(config.n_clients))
    closed = config.mode != "open"
    clocks = np.zeros(n_clients, dtype=np.float64)
    if not closed:
        arr_rng = np.random.default_rng(config.seed + 1)
        mean_gap_ns = 1e9 / ARRIVAL_RATE_OPS_PER_S
        arrivals = np.cumsum(arr_rng.exponential(mean_gap_ns, size=len(ops)))
    writer_free = 0.0
    max_end = 0.0

    report = ServeReport(
        mode="closed" if closed else "open",
        latencies={cls: [] for cls in (*QUERY_CLASSES, "write")},
        identity_checked=twin_check,
    )

    for i, op in enumerate(ops):
        kind = op[0]
        t0 = clocks[i % n_clients] if closed else arrivals[i]
        if kind == "write":
            batch = op[1]
            with trace("serve_write", edges=len(batch)):
                before = graph.pool.clocks()
                graph.insert_edges(batch, batch_size=None)
                service_ns = float((graph.pool.clocks() - before).max())
                start = max(t0, writer_free)
                end = start + service_ns
                writer_free = end
                latency = end - t0
                annotate(modeled_latency_ns=latency)
            report.latencies["write"].append(latency)
            report.writes += 1
        else:
            with trace(f"serve_{kind}"):
                view = server.acquire()
                result = _run_query(view, op)
                latency = server.last_acquire_ns + view.last_query_ns
                annotate(
                    acquire_ns=server.last_acquire_ns,
                    query_ns=view.last_query_ns,
                    modeled_latency_ns=latency,
                )
            end = t0 + latency
            report.latencies[kind].append(latency)
            report.served_read_ns += latency
            report.reads += 1
            if twin_check:
                reference = _run_query(direct, op)
                report.snapshot_read_ns += direct.last_query_ns
                if not _bytes_equal(result, reference):
                    report.mismatches += 1
        if closed:
            clocks[i % n_clients] = end
        else:
            max_end = max(max_end, end)

    report.refreshes = server.refreshes
    report.reuses = server.reuses
    report.makespan_ns = max(
        float(clocks.max()) if closed else max_end, writer_free
    )
    return report


__all__ = [
    "QUERY_CLASSES",
    "ServeReport",
    "SnapshotReader",
    "run_serve_workload",
]
