"""Snapshot-isolated query serving over epoch-versioned CSR views.

:class:`QueryServer` fronts a store — a
:class:`~repro.sharding.sharded.ShardedDGAP` or a one-shard
:class:`~repro.core.dgap.DGAP` — through the store's one view cache
(``graph.view_cache``, DESIGN.md §7): ``acquire()`` returns an immutable
:class:`ServeView` pinned at the shards' current structure epochs.
While no write lands — layout operations (rebalance, merge, resize,
compaction) included — every acquire gets the cached rows back (an epoch
compare, no snapshot) and returns the same view; after a write the cache
patches each shard's rows — reading only what was appended, once,
whichever of the store's readers asks first; never the global merge —
and the server hands out a *new* view (with each shard's top list).  Held
views keep serving the old arrays untouched: every build allocates
fresh, read-only arrays, so isolation needs no locks and no copies on
the read path.

Modeled latency follows the analysis cost model
(:mod:`repro.analysis.costs`).  Served reads price against the
shards' DRAM rows (DRAM probe + DRAM scan); the fresh-snapshot
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
from ..analysis.viewcache import CSRPair, top_k_from_degrees
from ..core.encoding import check_k, check_vertex
from ..nputil import distinct, multi_arange
from ..sharding.partition import block_mix, global_vertex_count, shard_of, to_global, to_local


# -- modeled query costs (shared by the served and snapshot arms) ---------

def degree_ns() -> float:
    """One vertex-table (or indptr) random read."""
    return DRAM_RND_NS


def _edge_ns(pm: bool) -> float:
    seq = PM_SEQ_NS_PER_BYTE if pm else DRAM_SEQ_NS_PER_BYTE
    return EDGE_BYTES * seq + COMPUTE_NS_PER_EDGE


def _probe_ns(pm: bool) -> float:
    return PM_RND_NS if pm else DRAM_RND_NS


def row_ns(scanned: int, pm: bool = True) -> float:
    """Probe an adjacency row and scan ``scanned`` of its entries — all of
    them, or up to a membership scan's first hit.

    ``pm=True`` models the snapshot path (rows live in the PM edge
    array); ``pm=False`` the served path (rows live in the
    materialized DRAM CSR).
    """
    return _probe_ns(pm) + scanned * _edge_ns(pm)


def k_hop_ns(frontier_vertices: int, edges_touched: int, pm: bool = True) -> float:
    """BFS expansion: one row probe per frontier vertex + edge scans."""
    return frontier_vertices * _probe_ns(pm) + edges_touched * _edge_ns(pm)


def k_hop_walk(v: int, k: int, nv: int, expand) -> Tuple[np.ndarray, int, int]:
    """The BFS both arms run: the vertices at distance 1..k from ``v``
    (sorted, excluding ``v``), the frontier vertices expanded and the
    edges they held.  ``expand(frontier)`` returns the frontier's rows,
    concatenated."""
    visited = np.zeros(nv, dtype=bool)
    visited[v] = True
    frontier = np.array([v], dtype=ID_DTYPE)
    parts: List[np.ndarray] = []
    probes = edges = 0
    for _ in range(k):
        if frontier.size == 0:
            break
        nbrs = expand(frontier)
        probes, edges = probes + frontier.size, edges + nbrs.size
        frontier = distinct(nbrs[~visited[nbrs]]).astype(ID_DTYPE)
        visited[frontier] = True
        parts.append(frontier)
    found = np.sort(np.concatenate(parts)).astype(ID_DTYPE) if parts else np.empty(0, dtype=ID_DTYPE)
    return found, probes, edges


def top_k_ns(swept: int, k: int) -> float:
    """A DRAM pass over ``swept`` degree entries (the whole vector, or
    ``n`` shards' top lists ``k`` deep) + k result reads."""
    return swept * _VT_ENTRY_BYTES * DRAM_SEQ_NS_PER_BYTE + k * DRAM_RND_NS


class ServeView:
    """Immutable read view pinned at one structure epoch.

    Wraps each shard's patched out-CSR (``rows``) and top list (``tops``),
    routed by owner as :class:`~repro.serve.driver.SnapshotReader` routes.
    The arrays are read-only and never mutated (a refresh allocates new
    ones; a row :meth:`neighbors` hands out is a read-only slice), so any
    number of readers hold views while writers advance the graph —
    wait-free, each seeing exactly its pinned epoch.

    Every query records its modeled cost in :attr:`last_query_ns`; the
    driver reads it immediately after the call to attribute latency.
    """

    __slots__ = ("epoch", "rows", "tops", "num_vertices", "last_query_ns")

    def __init__(self, epoch, rows: Tuple[CSRPair, ...], tops: Tuple[CSRPair, ...]) -> None:
        self.epoch = epoch
        self.rows = rows
        self.tops = tops
        self.num_vertices = global_vertex_count([ip.size - 1 for ip, _ in rows])
        self.last_query_ns = 0.0

    def _row(self, v: int) -> np.ndarray:
        n = len(self.rows)
        lv = v // n  # to_local, and shard_of's block index: computed once
        indptr, dsts = self.rows[(v + block_mix(lv)) % n]
        return dsts[indptr[lv] : indptr[lv + 1]]

    def degree(self, v: int) -> int:
        v = check_vertex(v, self.num_vertices)
        self.last_query_ns = degree_ns()
        return self._row(v).size

    def neighbors(self, v: int) -> np.ndarray:
        row = self._row(check_vertex(v, self.num_vertices))
        self.last_query_ns = row_ns(row.size, pm=False)
        return row

    def edge_exists(self, u: int, w: int) -> bool:
        row = self._row(check_vertex(u, self.num_vertices))
        hits = np.flatnonzero(row == w)
        found = hits.size > 0
        scanned = int(hits[0]) + 1 if found else row.size
        self.last_query_ns = row_ns(scanned, pm=False)
        return found

    def k_hop(self, v: int, k: int) -> np.ndarray:
        """Vertices at distance 1..k from ``v`` (sorted, excludes ``v``)."""
        v, k, n = check_vertex(v, self.num_vertices), check_k(k), len(self.rows)

        def expand(frontier):  # each shard's rows of the frontier
            owner, local = shard_of(frontier, n), to_local(frontier, n)
            return np.concatenate([
                dsts[multi_arange(indptr[lv], indptr[lv + 1] - indptr[lv])]
                for (indptr, dsts), lv in zip(self.rows, [local[owner == r] for r in range(n)])
            ])

        found, probes, edges = k_hop_walk(v, k, self.num_vertices, expand)
        self.last_query_ns = k_hop_ns(probes, edges, pm=False)
        return found

    def top_k_degree(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k ``(ids, degrees)`` by ``(-degree, id)``: the shards' lists
        merged, or every row ranked for a ``k`` beyond the shortest."""
        k, n = check_k(k, self.num_vertices), len(self.rows)
        if k <= min(ids.size for ids, _ in self.tops):
            heads = [(ids[:k], degs[:k]) for ids, degs in self.tops]
            self.last_query_ns = top_k_ns(n * k, k)
        else:  # each shard's every row ranked (local ids order rows as global ids do)
            heads = [top_k_from_degrees(np.diff(ip), k) for ip, _ in self.rows]
            heads = [(to_global(ids, r, n), degs) for r, (ids, degs) in enumerate(heads)]
            self.last_query_ns = top_k_ns(self.num_vertices, k)
        ids, degs = (np.concatenate(part) for part in zip(*heads))
        return top_k_from_degrees(degs, k, ids)


class QueryServer:
    """Serves :class:`ServeView` objects for a store (DESIGN.md §15).

    Written against the store surface only, through the store's one
    view cache (``graph.view_cache``); a plain DGAP is the one-shard
    case, not a second path.  It reads the cache's per-shard rows, never
    the merge or an in-CSR.  The cache decides whether anything moved
    and prices the call; the server keeps only the :class:`ServeView`
    wrapped around the cache's current rows — the same object while
    they stand, a new one once any reader's patch replaced them — and
    the serving counters.  An acquire that found the rows already
    patched (by an earlier acquire, an analysis view, another server)
    costs the epoch check and is a reuse; ``refreshes``,
    :attr:`rows_reread` and :attr:`refresh_ns_total` count the patches
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
        reads, rows = cache.rows_read, cache.rows()
        last = cache.last
        self.last_acquire_ns = last.modeled_ns
        if last.reused:
            self.reuses += 1
        else:
            self.refreshes += 1
            self.refresh_ns_total += last.modeled_ns
            self.rows_reread += cache.rows_read - reads
        view = self._view
        if view is None or view.rows is not rows:
            view = self._view = ServeView(last.epoch, rows, cache.tops)
        return view


__all__ = [
    "EPOCH_CHECK_NS",
    "QueryServer",
    "ServeView",
    "degree_ns",
    "row_ns",
    "k_hop_ns",
    "k_hop_walk",
    "top_k_ns",
    "snapshot_open_ns",
]
