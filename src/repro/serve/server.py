"""Snapshot-isolated query serving over epoch-versioned CSR views.

:class:`QueryServer` fronts a store — a
:class:`~repro.sharding.sharded.ShardedDGAP` or a one-shard
:class:`~repro.core.dgap.DGAP` — through the store's one view cache
(``graph.view_cache``, DESIGN.md §7): ``acquire()`` returns an immutable
:class:`ServeView` pinned at the shards' current structure epochs.
While no write lands — layout operations (rebalance, merge, resize,
compaction) included — every acquire gets the cached arrays back (an
epoch compare, no snapshot) and returns the same view; after a write
the cache re-materializes — reading only what was appended to the stale
rows, once, whichever of the store's readers asks first — and the
server hands out a *new* view.  Held views keep serving the old arrays
untouched: the cache allocates fresh, read-only arrays on every build,
so isolation needs no locks and no copies on the read path.

Modeled latency follows the analysis cost model
(:mod:`repro.analysis.costs`).  Served reads price against the
materialized DRAM CSR (DRAM probe + DRAM scan); the fresh-snapshot
path prices adjacency rows against the PM edge array and pays the two
O(nv) DRAM vector copies of a Degree-Cache snapshot on *every* query —
the terms the served path amortizes across an epoch's read burst.  The
acquire itself costs whatever the cache reports in ``cache.last``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..analysis.costs import (
    _VT_ENTRY_BYTES,
    COMPUTE_NS_PER_EDGE,
    DRAM_RND_NS,
    DRAM_SEQ_NS_PER_BYTE,
    EDGE_BYTES,
    EPOCH_CHECK_NS,
    PM_RND_NS,
    PM_SEQ_NS_PER_BYTE,
    snapshot_open_ns,
)
from ..analysis.view import ID_DTYPE
from ..core.encoding import check_k, check_vertex
from ..nputil import multi_arange


# -- modeled query costs (shared by the served and snapshot arms) ---------

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
    """Deterministic top-k by ``(-degree, id)`` — shared by both arms
    (``k`` already through :func:`~repro.core.encoding.check_k`)."""
    order = np.lexsort((np.arange(degrees.size), -degrees))[:k]
    ids = order.astype(ID_DTYPE)
    return ids, degrees[order].astype(np.int64)


class ServeView:
    """Immutable read view pinned at one structure epoch.

    Wraps the out-CSR arrays the view cache materialized.  The arrays
    are read-only and never mutated after materialization (refreshes
    allocate new ones; a row handed out by :meth:`neighbors` is a
    read-only slice), so any number of readers can hold a view while
    writers advance the graph — reads are wait-free and see exactly the
    pinned epoch.

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
        k = check_k(k)
        indptr, dsts = self.out_indptr, self.out_dsts
        visited = np.zeros(self.num_vertices, dtype=bool)
        visited[v] = True
        frontier = np.array([v], dtype=ID_DTYPE)
        parts: List[np.ndarray] = []
        frontier_total = 0
        edges_total = 0
        for _ in range(k):
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
        k = check_k(k, self.num_vertices)
        degrees = np.diff(self.out_indptr)
        self.last_query_ns = top_k_ns(self.num_vertices, k)
        return top_k_from_degrees(degrees, k)


class QueryServer:
    """Serves :class:`ServeView` objects for a store (DESIGN.md §15).

    Written against the store surface only, through the store's one
    view cache (``graph.view_cache``); a plain DGAP is the one-shard
    case, not a second path.  The cache decides whether anything moved
    and prices the call; the server keeps only the :class:`ServeView`
    wrapped around the cache's current arrays — the same object while
    those arrays stand, a new one once any reader's build replaced
    them — and the serving counters.  An acquire that found the arrays
    already built (by an earlier acquire, an analysis view, another
    server) costs the epoch check and is a reuse; ``refreshes``,
    :attr:`rows_reread` and :attr:`refresh_ns_total` count the builds
    this server's own acquires paid for.  Each acquire's modeled cost
    lands in :attr:`last_acquire_ns`; the driver charges it to the read
    that triggered it.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self._cache = graph.view_cache
        self._view: Optional[ServeView] = None
        self.refreshes = 0
        self.reuses = 0
        self.last_acquire_ns = 0.0
        self.refresh_ns_total = 0.0
        #: rows re-materialized from PM over this server's refreshes
        #: (the first, full build included when the server paid for it)
        self.rows_reread = 0

    def acquire(self) -> ServeView:
        cache = self._cache
        rows = cache.rows_read
        (out_indptr, out_dsts), _ = cache.materialize()
        last = cache.last
        self.last_acquire_ns = last.modeled_ns
        if last.reused:
            self.reuses += 1
        else:
            self.refreshes += 1
            self.refresh_ns_total += last.modeled_ns
            self.rows_reread += cache.rows_read - rows
        view = self._view
        if view is None or view.out_indptr is not out_indptr:
            view = self._view = ServeView(last.epoch, out_indptr, out_dsts)
        return view


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
