"""Snapshot-isolated query serving over epoch-versioned CSR views.

:class:`QueryServer` fronts a store — a
:class:`~repro.sharding.sharded.ShardedDGAP` or a one-shard
:class:`~repro.core.dgap.DGAP` — with the view-cache machinery:
``acquire()`` returns an immutable :class:`ServeView` pinned at the
shards' current structure epochs.  While no write lands, every acquire
reuses the cached arrays (an epoch compare, no snapshot); after a
write, the next acquire re-materializes through the per-shard
:class:`~repro.analysis.viewcache.DGAPViewCache` — which patches only
the stale rows — and hands out a *new* view.  Held views keep serving
the old arrays untouched: the cache allocates fresh arrays on every
refresh, so isolation needs no locks and no copies on the read path.

Modeled latency follows the analysis cost model
(:mod:`repro.analysis.costs`).  Served reads price against the
materialized DRAM CSR (DRAM probe + DRAM scan); the fresh-snapshot
path prices adjacency rows against the PM edge array and pays the two
O(nv) DRAM vector copies of a Degree-Cache snapshot on *every* query —
the terms the served path amortizes across an epoch's read burst.  A
refresh pays one snapshot open plus one PM probe per dirty section and
a sequential stream of the re-read edges.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..analysis.costs import (
    COMPUTE_NS_PER_EDGE,
    DRAM_RND_NS,
    DRAM_SEQ_NS_PER_BYTE,
    EDGE_BYTES,
    PM_RND_NS,
    PM_SEQ_NS_PER_BYTE,
)
from ..analysis.view import ID_DTYPE
from ..core.encoding import check_vertex
from ..nputil import multi_arange
from ..sharding.merge import ShardedViewCache

#: modeled cost of a same-epoch ``acquire()``: one DRAM read of the
#: epoch counter plus the compare.
EPOCH_CHECK_NS = DRAM_RND_NS

#: vertex-table entry width charged for snapshot vector copies
#: (degree + live_degree, 8 bytes each in the simulated layout).
_VT_ENTRY_BYTES = 8.0


# -- modeled query costs (shared by the served and snapshot arms) ---------

def snapshot_open_ns(nv: int) -> float:
    """Opening a Degree-Cache snapshot: two O(nv) DRAM vector copies."""
    return 2.0 * nv * _VT_ENTRY_BYTES * DRAM_SEQ_NS_PER_BYTE


def degree_ns() -> float:
    """One vertex-table (or indptr) random read."""
    return DRAM_RND_NS


def _edge_ns(pm: bool) -> float:
    seq = PM_SEQ_NS_PER_BYTE if pm else DRAM_SEQ_NS_PER_BYTE
    return EDGE_BYTES * seq + COMPUTE_NS_PER_EDGE


def _probe_ns(pm: bool) -> float:
    return PM_RND_NS if pm else DRAM_RND_NS


def row_ns(deg: int, pm: bool = True) -> float:
    """Fetch a full adjacency row: random probe + sequential scan.

    ``pm=True`` models the snapshot path (rows live in the PM edge
    array); ``pm=False`` the served path (rows live in the
    materialized DRAM CSR).
    """
    return _probe_ns(pm) + deg * _edge_ns(pm)


def scan_ns(scanned: int, pm: bool = True) -> float:
    """Membership scan that stopped after ``scanned`` entries."""
    return _probe_ns(pm) + scanned * _edge_ns(pm)


def k_hop_ns(frontier_vertices: int, edges_touched: int, pm: bool = True) -> float:
    """BFS expansion: one row probe per frontier vertex + edge scans."""
    return frontier_vertices * _probe_ns(pm) + edges_touched * _edge_ns(pm)


def top_k_ns(nv: int, k: int) -> float:
    """Degree-vector sweep (DRAM sequential) + k result reads."""
    return nv * _VT_ENTRY_BYTES * DRAM_SEQ_NS_PER_BYTE + k * DRAM_RND_NS


def top_k_from_degrees(degrees: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k by ``(-degree, id)`` — shared by both arms."""
    nv = degrees.size
    k = min(int(k), nv)
    order = np.lexsort((np.arange(nv), -degrees))[:k]
    ids = order.astype(ID_DTYPE)
    return ids, degrees[order].astype(np.int64)


class ServeView:
    """Immutable read view pinned at one structure epoch.

    Wraps the out-CSR arrays a view cache materialized.  The arrays are
    never mutated after materialization (refreshes allocate new ones),
    so any number of readers can hold a view while writers advance the
    graph — reads are wait-free and see exactly the pinned epoch.

    Every query records its modeled cost in :attr:`last_query_ns`; the
    driver reads it immediately after the call to attribute latency.
    """

    __slots__ = ("epoch", "out_indptr", "out_dsts", "num_vertices", "last_query_ns")

    def __init__(self, epoch, out_indptr: np.ndarray, out_dsts: np.ndarray) -> None:
        self.epoch = epoch
        self.out_indptr = out_indptr
        self.out_dsts = out_dsts
        self.num_vertices = int(out_indptr.size - 1)
        self.last_query_ns = 0.0

    def degree(self, v: int) -> int:
        v = check_vertex(v, self.num_vertices)
        self.last_query_ns = degree_ns()
        return int(self.out_indptr[v + 1] - self.out_indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        v = check_vertex(v, self.num_vertices)
        row = self.out_dsts[self.out_indptr[v] : self.out_indptr[v + 1]]
        self.last_query_ns = row_ns(row.size, pm=False)
        return row

    def edge_exists(self, u: int, w: int) -> bool:
        u = check_vertex(u, self.num_vertices)
        row = self.out_dsts[self.out_indptr[u] : self.out_indptr[u + 1]]
        hits = np.flatnonzero(row == w)
        found = hits.size > 0
        scanned = int(hits[0]) + 1 if found else row.size
        self.last_query_ns = scan_ns(scanned, pm=False)
        return found

    def k_hop(self, v: int, k: int) -> np.ndarray:
        """Vertices at distance 1..k from ``v`` (sorted, excludes ``v``)."""
        v = check_vertex(v, self.num_vertices)
        indptr, dsts = self.out_indptr, self.out_dsts
        visited = np.zeros(self.num_vertices, dtype=bool)
        visited[v] = True
        frontier = np.array([v], dtype=ID_DTYPE)
        parts: List[np.ndarray] = []
        frontier_total = 0
        edges_total = 0
        for _ in range(int(k)):
            if frontier.size == 0:
                break
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            idx = multi_arange(starts, counts)
            nbrs = dsts[idx]
            frontier_total += frontier.size
            edges_total += nbrs.size
            fresh = np.unique(nbrs[~visited[nbrs]]).astype(ID_DTYPE)
            visited[fresh] = True
            parts.append(fresh)
            frontier = fresh
        self.last_query_ns = k_hop_ns(frontier_total, edges_total, pm=False)
        if not parts:
            return np.empty(0, dtype=ID_DTYPE)
        return np.sort(np.concatenate(parts)).astype(ID_DTYPE)

    def top_k_degree(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k ``(ids, degrees)`` by ``(-degree, id)``."""
        degrees = np.diff(self.out_indptr)
        self.last_query_ns = top_k_ns(self.num_vertices, k)
        return top_k_from_degrees(degrees, k)


class QueryServer:
    """Serves :class:`ServeView` objects for a store (DESIGN.md §14).

    Written against the store surface only — ``graph.shards`` and the
    :class:`~repro.sharding.merge.ShardedViewCache` over them; a plain
    DGAP is the one-shard case, not a second path.
    ``acquire()`` compares the shards' structure epochs against the
    cached view and only re-materializes when a write moved them.  The
    modeled cost of each acquire lands in :attr:`last_acquire_ns`: an
    epoch check when reused, the snapshot + patch cost when refreshed —
    the driver charges it to the read that triggered the refresh.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self._shards = tuple(graph.shards)  # fixed for a store's lifetime
        self._cache = ShardedViewCache(graph)
        self._view: Optional[ServeView] = None
        self.refreshes = 0
        self.reuses = 0
        self.last_acquire_ns = 0.0
        self.refresh_ns_total = 0.0

    # -- epochs ------------------------------------------------------------
    def current_epoch(self) -> Tuple[int, ...]:
        # the same-epoch acquire is the p50 read: keep it a list comprehension
        return tuple([sh.structure_epoch for sh in self._shards])

    @property
    def view_epoch(self):
        return None if self._view is None else self._view.epoch

    # -- acquisition -------------------------------------------------------
    def acquire(self) -> ServeView:
        epoch = self.current_epoch()
        view = self._view
        if view is not None and view.epoch == epoch:
            self.reuses += 1
            self.last_acquire_ns = EPOCH_CHECK_NS
            return view
        view = self._refresh(epoch)
        self._view = view
        return view

    def _stat_snapshot(self):
        return [
            (s.full_rebuilds, s.sections_rebuilt, s.delta_edges_merged)
            for s in self._cache.stats
        ]

    def _refresh(self, epoch) -> ServeView:
        self.refreshes += 1
        before = self._stat_snapshot()
        (out_indptr, out_dsts), _ = self._cache.materialize()
        local_nvs = [
            int(c._nv) for c in self._cache.caches  # noqa: SLF001 — cost model input
        ]
        after = self._stat_snapshot()
        cost = self._refresh_cost_ns(before, after, local_nvs, int(out_dsts.size))
        self.last_acquire_ns = cost
        self.refresh_ns_total += cost
        return ServeView(epoch, out_indptr, out_dsts)

    @staticmethod
    def _refresh_cost_ns(before, after, local_nvs, total_edges: int) -> float:
        """Modeled refresh: per-shard snapshot + patch (parallel max) + merge.

        Stale rows cluster in dirty PMA sections, so the PM traffic is
        one random probe per rebuilt *section* plus a sequential stream
        of the re-read edges — every edge for a full rebuild, only the
        stale rows' edges (``delta_edges_merged``) for an incremental
        one.  Sharded refreshes add the O(E) DRAM scatter/merge into
        the global layout.
        """
        n_shards = max(len(local_nvs), 1)
        per_shard = []
        for (b, a), nv in zip(zip(before, after), local_nvs):
            full = a[0] - b[0]
            sections = a[1] - b[1]
            streamed = total_edges / n_shards if full else a[2] - b[2]
            per_shard.append(
                snapshot_open_ns(nv)
                + sections * PM_RND_NS
                + streamed * EDGE_BYTES * PM_SEQ_NS_PER_BYTE
            )
        cost = max(per_shard) if per_shard else 0.0
        if n_shards > 1:
            cost += total_edges * EDGE_BYTES * DRAM_SEQ_NS_PER_BYTE
        return cost


__all__ = [
    "EPOCH_CHECK_NS",
    "QueryServer",
    "ServeView",
    "degree_ns",
    "row_ns",
    "scan_ns",
    "k_hop_ns",
    "top_k_ns",
    "top_k_from_degrees",
    "snapshot_open_ns",
]
