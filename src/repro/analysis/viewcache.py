"""Per-shard incremental CSR maintenance behind the store-level view cache.

:class:`DGAPViewCache` is the patch half of the one view stack
(DESIGN.md §7): :class:`~repro.sharding.merge.ShardedViewCache` — the
only place one is constructed — decides reuse, opens the shard's
snapshot and hands it here.  The cache keeps the shard's last
``(out_indptr, out_dsts)`` / ``(in_indptr, in_srcs)`` pair and rebuilds
only the rows the store says changed:

* **stale vertices** — a vertex is stale iff its *row stamp* is newer
  than the cache's materialization epoch, or it was born since.  DGAP
  stamps a vertex exactly when an edge or tombstone of that vertex
  arrives (or a scrub repair loses one); a row is append-only and kept
  in insertion order, so rebalance windows, log merges, resizes and
  compaction sweeps move rows without changing them and stamp nothing
  — every unstamped vertex's cached row is exact.
* **out-CSR patch** — clean rows are gathered from the previous arrays,
  stale rows re-materialized from the snapshot
  (:meth:`~repro.core.snapshot.DGAPSnapshot.materialize_rows`).
* **in-CSR delta merge** — old entries whose source went stale are
  dropped; the stale rows' edges are counting-sorted by destination
  (NumPy's stable integer argsort is a radix sort over the *delta
  only*) and merged in one ``searchsorted`` pass on the combined
  ``dst * nv + src`` key.  Because every source is either wholly stale
  or wholly clean, no key collides across the two groups and the result
  is bit-identical to :func:`~repro.analysis.view.build_in_csr`'s full
  stable sort — which matters because PR's ``bincount`` float summation
  order follows ``in_srcs`` order.

When most rows changed (a bulk load, the first builds of a small graph)
patching would touch nearly every row anyway, so the cache falls back to
a full rebuild above :data:`FULL_REBUILD_STALE_FRACTION`.

In-CSR rows carry *global* source ids over the *global* destination
domain (shard ``r`` of ``n``; the identity for a one-shard store), so
the per-shard streams merge without translation.  Each call reports
what it did as a :class:`ShardBuild`, which is what
:func:`~repro.analysis.costs.view_build_ns` prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..nputil import multi_arange
from ..obs.tracer import annotate, trace
from .view import ID_DTYPE, INDPTR_DTYPE, build_in_csr_from

#: stale-vertex share above which patching loses to a from-scratch
#: rebuild.
FULL_REBUILD_STALE_FRACTION = 0.9

CSRPair = Tuple[np.ndarray, np.ndarray]


@dataclass
class ViewCacheStats:
    """Materialization counters — the incrementality evidence."""

    #: materializations served entirely from scratch (includes the first).
    full_rebuilds: int = 0
    #: materializations that patched only stale rows.
    incremental_builds: int = 0
    #: PMA sections a re-read row starts in (== n_sections for a full one).
    sections_rebuilt: int = 0
    #: vertices whose rows were re-materialized.
    vertices_rebuilt: int = 0
    #: clean rows copied over from the previous materialization.
    rows_reused: int = 0
    #: delta edges merged into the in-CSR (incremental builds only).
    delta_edges_merged: int = 0
    #: superseded in-CSR entries dropped before the merge.
    in_entries_dropped: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "full_rebuilds": self.full_rebuilds,
            "incremental_builds": self.incremental_builds,
            "sections_rebuilt": self.sections_rebuilt,
            "vertices_rebuilt": self.vertices_rebuilt,
            "rows_reused": self.rows_reused,
            "delta_edges_merged": self.delta_edges_merged,
            "in_entries_dropped": self.in_entries_dropped,
        }


class ShardBuild(NamedTuple):
    """What one shard's cache did for one materialization."""

    mode: str  #: "full" | "incremental" | "reuse"
    sections: int  #: distinct PMA sections a re-read row starts in
    edges: int  #: the re-read rows' edges, streamed from PM
    nv: int  #: the shard's local vertex count (the snapshot that was opened)


class DGAPViewCache:
    """Epoch-versioned (out, in) CSR cache for shard ``r`` of an ``n``-shard store."""

    def __init__(self, shard, r: int, n: int) -> None:
        self.graph = shard
        self.r, self.n = int(r), int(n)
        self.stats = ViewCacheStats()
        self._out: Optional[CSRPair] = None
        self._in: Optional[CSRPair] = None
        self._epoch = -1
        self._nv = 0

    def _source_ids(self, nv: int) -> np.ndarray:
        """Global source id of each local out-CSR row (ascending)."""
        # repro.sharding imports this module, so the id algebra is
        # imported at call time (as core.batch does)
        from ..sharding.partition import local_ids_to_global

        return local_ids_to_global(nv, self.r, self.n).astype(ID_DTYPE)

    # -- entry point -------------------------------------------------------
    def materialize(self, snap, dst_nv: int) -> Tuple[CSRPair, CSRPair, ShardBuild]:
        """Current ``((out_indptr, out_dsts), (in_indptr, in_srcs))`` and
        the :class:`ShardBuild` saying how they were obtained.

        ``snap`` must be an open :class:`DGAPSnapshot` of ``self.graph``
        taken at the current structure epoch.  The returned arrays are
        owned by the cache; they are never mutated afterwards (each
        refresh allocates new ones).  ``dst_nv`` is the in-CSR
        destination domain — the store's global vertex count; it must
        not shrink between calls.
        """
        g = self.graph
        epoch = int(g.structure_epoch)
        nv = snap.num_vertices
        with trace("view_materialize"):
            if self._out is None:
                annotate(mode="full")
                out, inn, did = self._full_build(snap, nv, dst_nv)
            else:
                stale = self._stale_vertices(nv)
                n_stale = int(stale.sum())
                if n_stale == 0:
                    # The store moved but no row of this shard changed: a
                    # layout operation here, or a write to another shard
                    # (the destination domain may have grown with it —
                    # extend the in-indptr with empties).
                    annotate(mode="reuse")
                    out = self._out
                    inn = (_extend_indptr(self._in[0], dst_nv), self._in[1])
                    did = ShardBuild("reuse", 0, 0, nv)
                    self.stats.incremental_builds += 1
                    self.stats.rows_reused += nv
                elif n_stale >= FULL_REBUILD_STALE_FRACTION * nv:
                    annotate(mode="full")
                    out, inn, did = self._full_build(snap, nv, dst_nv)
                else:
                    annotate(mode="incremental", stale_vertices=n_stale)
                    stale_vids = np.flatnonzero(stale)
                    out, s_counts, s_dsts = self._patch_out(snap, nv, stale, stale_vids)
                    inn = self._merge_in(nv, dst_nv, stale_vids, s_counts, s_dsts)
                    # one probe per section a re-read row starts in, then
                    # those rows' edges as one stream
                    starts = g.va.start[stale_vids]
                    n_secs = int(np.unique(starts // g.ea.segment_slots).size)
                    did = ShardBuild("incremental", n_secs, int(s_dsts.size), nv)
                    self.stats.incremental_builds += 1
                    self.stats.sections_rebuilt += n_secs
                    self.stats.vertices_rebuilt += n_stale
                    self.stats.rows_reused += nv - n_stale
        self._out, self._in = out, inn
        self._epoch, self._nv = epoch, nv
        return out, inn, did

    # -- staleness ---------------------------------------------------------
    def _stale_vertices(self, nv: int) -> np.ndarray:
        """Rows stamped after the cached build, or born since."""
        stale = self.graph.rows_changed_since(self._epoch, nv)
        stale[self._nv :] = True
        return stale

    # -- out-CSR -----------------------------------------------------------
    def _full_build(self, snap, nv: int, dst_nv: int) -> Tuple[CSRPair, CSRPair, ShardBuild]:
        n_sections = int(self.graph.ea.n_sections)
        self.stats.full_rebuilds += 1
        self.stats.sections_rebuilt += n_sections
        self.stats.vertices_rebuilt += nv
        out = snap.to_csr()
        inn = build_in_csr_from(out[0], out[1], self._source_ids(nv), dst_nv)
        return out, inn, ShardBuild("full", n_sections, int(out[1].size), nv)

    def _patch_out(
        self, snap, nv: int, stale: np.ndarray, stale_vids: np.ndarray
    ) -> Tuple[CSRPair, np.ndarray, np.ndarray]:
        prev_indptr, prev_dsts = self._out  # type: ignore[misc]
        prev_counts = np.diff(prev_indptr)
        clean_vids = np.flatnonzero(~stale)  # all < self._nv by construction
        s_counts, s_dsts = snap.materialize_rows(stale_vids)

        counts = np.empty(nv, dtype=np.int64)
        counts[clean_vids] = prev_counts[clean_vids]
        counts[stale_vids] = s_counts
        indptr = np.zeros(nv + 1, dtype=INDPTR_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        dsts = np.empty(int(indptr[-1]), dtype=ID_DTYPE)
        src_idx = multi_arange(prev_indptr[clean_vids], prev_counts[clean_vids])
        dst_idx = multi_arange(indptr[:-1][clean_vids], counts[clean_vids])
        if src_idx.size:
            dsts[dst_idx] = prev_dsts[src_idx]
        s_idx = multi_arange(indptr[:-1][stale_vids], s_counts)
        if s_idx.size:
            dsts[s_idx] = s_dsts
        return (indptr, dsts), s_counts, s_dsts

    # -- in-CSR ------------------------------------------------------------
    def _merge_in(
        self,
        nv: int,
        dst_nv: int,
        stale_vids: np.ndarray,
        s_counts: np.ndarray,
        s_dsts: np.ndarray,
    ) -> CSRPair:
        prev_in_indptr, prev_in_srcs = self._in  # type: ignore[misc]
        prev_dst_nv = prev_in_indptr.size - 1
        old_dst = np.repeat(
            np.arange(prev_dst_nv, dtype=np.int64), np.diff(prev_in_indptr)
        )
        # prev_in_srcs carry source *ids*, so mask staleness by id
        stale_ids = self._source_ids(nv)[stale_vids]
        gone = np.zeros(dst_nv, dtype=bool)
        gone[stale_ids] = True
        keep = ~gone[prev_in_srcs]
        ko_dst = old_dst[keep]
        ko_src = prev_in_srcs[keep]
        self.stats.in_entries_dropped += int(prev_in_srcs.size - ko_src.size)

        # Counting-sort the delta by destination: a stable integer
        # argsort over the delta only (NumPy radix-sorts ints) — never a
        # full-graph sort.
        delta_src = np.repeat(stale_ids, s_counts)
        order = np.argsort(s_dsts, kind="stable")
        kd_dst = s_dsts[order].astype(np.int64)
        kd_src = delta_src[order]
        self.stats.delta_edges_merged += int(kd_src.size)

        # Single merge pass on the (dst, src) key.  Sources are wholly
        # stale or wholly clean, so no key appears in both sides and the
        # merged order is exactly build_in_csr's (dst, src, insertion)
        # order — bit-identical in_srcs.  The multiplier only has to
        # exceed every source id; ``dst_nv`` does (ids live in the
        # destination domain).
        ko_key = ko_dst * dst_nv + ko_src
        kd_key = kd_dst * dst_nv + kd_src
        pos_d = np.searchsorted(ko_key, kd_key, side="left") + np.arange(kd_key.size)
        total = ko_key.size + kd_key.size
        in_srcs = np.empty(total, dtype=ID_DTYPE)
        old_mask = np.ones(total, dtype=bool)
        old_mask[pos_d] = False
        in_srcs[pos_d] = kd_src
        in_srcs[old_mask] = ko_src

        counts = np.bincount(ko_dst, minlength=dst_nv) + np.bincount(
            kd_dst, minlength=dst_nv
        )
        in_indptr = np.zeros(dst_nv + 1, dtype=INDPTR_DTYPE)
        np.cumsum(counts, out=in_indptr[1:])
        return in_indptr, in_srcs


def _extend_indptr(indptr: np.ndarray, dst_nv: int) -> np.ndarray:
    """Widen an in-indptr to a grown destination domain (empty tail rows)."""
    if indptr.size == dst_nv + 1:
        return indptr
    ext = np.full(dst_nv + 1 - indptr.size, indptr[-1], dtype=INDPTR_DTYPE)
    return np.concatenate((indptr, ext))


__all__ = ["DGAPViewCache", "ShardBuild", "ViewCacheStats", "FULL_REBUILD_STALE_FRACTION"]
