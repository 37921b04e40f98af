"""Per-shard incremental CSR maintenance behind the store-level view cache.

:class:`DGAPViewCache` is the patch half of the one view stack
(DESIGN.md §7): :class:`~repro.sharding.merge.ShardedViewCache` — the
only place one is constructed — decides reuse and merges; the cache
keeps the shard's last ``(out_indptr, out_dsts)`` *and the degree vector
it was read at* (one int64 per row: the Degree Cache, held
incrementally) and reads from PM only what was appended since:

* **stale vertices** — a vertex is stale iff its *row stamp* is newer
  than the cache's last read, or it was born since.  DGAP stamps a
  vertex exactly when an edge or tombstone of that vertex arrives (or a
  scrub repair loses one); a row is append-only and kept in insertion
  order, so rebalance windows, log merges, resizes and compaction
  sweeps move rows without changing them and stamp nothing — every
  unstamped vertex's cached row is exact.
* **row-scoped snapshot** — a refresh copies the degrees of the stale
  rows only (``consistent_view(rows)``: the lifecycle and exclusion of
  any snapshot, none of the O(nv) copy).
* **out-CSR patch** (``rows``) — clean rows are gathered from the
  previous arrays; of a stale row only the tail ``[cached degree,
  degree_t)`` is streamed from PM, and the row is the deletion rule
  applied to *cached live row ++ tail* (:meth:`~repro.core.snapshot.
  DGAPSnapshot.materialize_rows`, which a full build calls with no
  prefix — one read path).  Only a filtered rewrite (compaction sweep,
  lossy repair) takes entries out of a row; the shard records it in
  ``history_epoch``, and the first refresh after one copies the whole
  degree vector and reads its stale rows whole, once.
* **top list** (``top``) — the shard's best rows by ``(-live row length,
  id)``, patched from the listed and the stale rows alone (DESIGN.md §7).
* **in-CSR catch-up** (``in_csr``, on demand, one merge however many
  patches it lagged) — entries whose source was stamped since are
  dropped; those rows, taken from the patched out-CSR, are counting-
  sorted by destination (a stable integer argsort over the *delta
  only*) and merged in one ``searchsorted`` pass on the ``dst * nv +
  src`` key.  Every source is wholly stale or wholly clean, so no key
  collides and the result is bit-identical to :func:`~repro.analysis.
  view.build_in_csr`'s stable sort (PR's float summation follows it).

When most rows changed (a bulk load, the first builds of a small graph)
patching would touch nearly every row anyway, so either half falls back
to a full rebuild above :data:`FULL_REBUILD_STALE_FRACTION`.

In-CSR rows carry *global* source ids over the *global* destination
domain (shard ``r`` of ``n``; the identity for a one-shard store), so
the per-shard streams merge without translation.  Each row patch
reports what it did as a :class:`ShardBuild`, which is what
:func:`~repro.analysis.costs.view_build_ns` prices; the in-CSR is
DRAM-only work and unpriced.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..nputil import distinct, multi_arange
from ..obs.tracer import annotate, trace
from .view import ID_DTYPE, INDPTR_DTYPE, build_in_csr_from, merge_in_streams

#: stale-vertex share above which patching loses to a from-scratch
#: rebuild.
FULL_REBUILD_STALE_FRACTION = 0.9

#: rows in a shard's top list: a top-k read up to this long needs no sweep.
TOP_ROWS = 64

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
    #: row entries (tombstones included) streamed from PM for them.
    entries_streamed: int = 0
    #: clean rows copied over from the previous materialization.
    rows_reused: int = 0
    #: delta edges merged into the in-CSR (delta catch-ups only).
    delta_edges_merged: int = 0
    #: superseded in-CSR entries dropped before the merge.
    in_entries_dropped: int = 0
    #: in-CSR catch-ups (full or delta), however many patches each lagged.
    in_catchups: int = 0
    #: patches that re-ranked every row: the top list fell below half.
    top_refills: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class ShardBuild(NamedTuple):
    """What one shard's cache did for one row patch — the four
    counts :func:`~repro.analysis.costs.view_build_ns` prices."""

    mode: str  #: "full" | "incremental" | "reuse"
    rows_copied: int  #: rows whose degrees the snapshot copied
    sections_probed: int  #: distinct PMA sections a re-read row starts in
    entries_streamed: int  #: row entries (tombstones included) read from PM
    top_entries: int  #: top-list candidates merged, plus the rows a sweep ranked


def top_k_from_degrees(degrees: np.ndarray, k: int, ids: Optional[np.ndarray] = None) -> CSRPair:
    """The first ``k`` rows by ``(-degree, id)`` as ``(ids, degrees)``: the
    one ranking every top-degree reader and top list uses."""
    ids = np.arange(degrees.size) if ids is None else ids
    order = np.lexsort((ids, -degrees))[:k]
    return ids[order].astype(ID_DTYPE), degrees[order].astype(np.int64)



class DGAPViewCache:
    """Epoch-versioned out-CSR of shard ``r`` of an ``n``-shard store, its
    top-degree rows, and the in-CSR derived from it when a reader asks."""

    def __init__(self, shard, r: int, n: int) -> None:
        self.graph = weakref.proxy(shard)  # a one-shard store owns this cache
        self.r, self.n = int(r), int(n)
        self.stats = ViewCacheStats()
        self._out: Optional[CSRPair] = None
        self._in: Optional[CSRPair] = None
        #: the degree vector the cached rows were read at (raw lengths,
        #: tombstones included) and the structure epoch of that read
        self._deg = np.empty(0, dtype=np.int64)
        self._epoch = -1
        self._nv = 0
        #: the read ``(epoch, rows)`` the in-CSR was derived at
        self._in_at = (-1, 0)
        #: ``(global ids, live row lengths)`` of the shard's best rows, frozen
        #: per read; every unlisted row ranks after the last (the floor)
        self.top: CSRPair = (np.empty(0, dtype=ID_DTYPE), np.empty(0, dtype=np.int64))
        self._gids = np.empty(0, dtype=ID_DTYPE)  #: global id of each local row so far

    def _source_ids(self, nv: int) -> np.ndarray:
        """Global id of each local row ``[0, nv)``, ascending like them; the
        id algebra runs again only when the shard grew."""
        if self._gids.size < nv:
            # repro.sharding imports this module, so the id algebra is
            # imported at call time (as core.batch does)
            from ..sharding.partition import local_ids_to_global

            self._gids = local_ids_to_global(nv, self.r, self.n).astype(ID_DTYPE)
        return self._gids[:nv]

    # -- entry points ------------------------------------------------------
    def rows(self, nv: int) -> Tuple[CSRPair, ShardBuild]:
        """Current ``(out_indptr, out_dsts)`` of rows ``[0, nv)`` and the
        :class:`ShardBuild` saying how they were obtained.

        Opens (and releases) the shard's snapshot itself, scoped to the
        rows it will read.  The returned arrays are owned by the cache;
        they are never mutated afterwards (each refresh allocates new
        ones).  ``nv`` — the rows every shard agrees on, never shrinking
        — may be fewer than the shard holds after a power failure inside
        vertex growth (the rest are empty).
        """
        g = self.graph
        epoch = int(g.structure_epoch)
        with trace("view_materialize"):
            stale = g.rows_changed_since(self._epoch, nv)
            stale[self._nv :] = True  # born since
            n_stale = int(stale.sum())
            if self._out is not None and n_stale == 0:
                # The store moved but no row of this shard changed: a
                # layout operation here, or a write to another shard.
                # Nothing was read, so the cached read keeps its epoch.
                self.stats.incremental_builds += 1
                self.stats.rows_reused += nv
                did = ShardBuild("reuse", 0, 0, 0, 0)
            else:
                if self._out is None or n_stale >= FULL_REBUILD_STALE_FRACTION * nv:
                    with g.consistent_view() as snap:
                        did = self._full_build(snap, nv)
                else:
                    stale_vids = np.flatnonzero(stale)
                    # a filtered rewrite since the last read voids the held
                    # lengths: one full degree copy, the stale rows read whole
                    voided = g.history_epoch > self._epoch
                    with g.consistent_view(None if voided else stale_vids) as snap:
                        did = self._patch(snap, nv, stale, stale_vids)
                self._epoch, self._nv = epoch, nv
            annotate(**did._asdict())
            self.stats.entries_streamed += did.entries_streamed
        return self._out, did

    def in_csr(self, dst_nv: int) -> CSRPair:
        """``(in_indptr, in_srcs)`` of the last :meth:`rows` read over ``dst_nv``
        destinations: no patch touches it; it catches up here, on demand."""
        nv = self._out[0].size - 1  # type: ignore[index]
        if self._in_at != (self._epoch, nv):
            changed = self.graph.rows_changed_since(self._in_at[0], nv)
            changed[self._in_at[1] :] = True  # born since
            stale = np.flatnonzero(changed)
            self.stats.in_catchups += 1
            if self._in is None or stale.size >= FULL_REBUILD_STALE_FRACTION * nv:
                self._in = build_in_csr_from(*self._out, self._source_ids(nv), dst_nv)
            else:
                self._in = self._merge_in(nv, dst_nv, stale)
            self._in_at = (self._epoch, nv)
        # a write to another shard may have grown the destination domain
        self._in = (_extend_indptr(self._in[0], dst_nv), self._in[1])
        return self._in

    def _full_build(self, snap, nv: int) -> ShardBuild:
        n_sections = int(self.graph.ea.n_sections)
        self.stats.full_rebuilds += 1
        self.stats.sections_rebuilt += n_sections
        self.stats.vertices_rebuilt += nv
        ip, ds = snap.to_csr()
        self._out, self._deg = (ip[: nv + 1], ds[: ip[nv]]), snap.degree_t[:nv]
        self.top = top_k_from_degrees(np.diff(self._out[0]), TOP_ROWS, self._source_ids(nv))
        return ShardBuild("full", snap.num_vertices, n_sections, int(snap.degree_t.sum()), nv)

    def _patch(self, snap, nv: int, stale, stale_vids) -> ShardBuild:
        """Re-read the stale rows — their tails when ``snap`` is scoped to
        them, whole when it is the full vector — and patch the out-CSR."""
        g = self.graph
        prev_indptr = _extend_indptr(self._out[0], nv)  # a row born since is empty
        prev_dsts = self._out[1]
        if snap.rows is None:
            deg, prefix = snap.degree_t[:nv], None
            streamed = deg[stale_vids]
        else:
            deg = _extend(self._deg, nv)
            held = prev_indptr[stale_vids + 1] - prev_indptr[stale_vids]
            prefix = deg[stale_vids], held, prev_dsts[multi_arange(prev_indptr[stale_vids], held)]
            streamed = snap.degree_t - prefix[0]
        s_counts, s_dsts = snap.materialize_rows(stale_vids, prefix)
        out = _patch_out(prev_indptr, prev_dsts, stale, stale_vids, s_counts, s_dsts)
        if prefix is not None:
            deg[stale_vids] = snap.degree_t
        self._out, self._deg = out, deg
        # one probe per section a re-read row starts in, then those rows'
        # entries as one stream
        starts = g.va.start[stale_vids]
        n_secs = int(distinct(starts // g.ea.segment_slots).size)
        self.stats.incremental_builds += 1
        self.stats.sections_rebuilt += n_secs
        self.stats.vertices_rebuilt += stale_vids.size
        self.stats.rows_reused += nv - stale_vids.size
        merged = self._patch_top(out[0], stale, stale_vids, s_counts)
        return ShardBuild("incremental", snap.degree_t.size, n_secs, int(streamed.sum()), merged)

    # -- top list ----------------------------------------------------------
    def _patch_top(self, indptr, stale, stale_vids, s_counts) -> int:
        """Of the listed rows not stale and the stale rows, keep those at or
        before the old floor (every other row still ranks after it), then
        truncate — or refill below half a list; returns the entries merged."""
        ids, degs = self.top
        nv = indptr.size - 1
        held = ~stale[ids // self.n]  # ids // n: the id algebra's to_local
        merged = int(held.sum()) + stale_vids.size
        if ids.size < self._nv:  # the list did not hold every row: its last is a floor
            if held.all() and s_counts.max() < degs[-1]:
                return merged  # no listed row moved, no stale row reaches the floor
            floor_row = ids[-1] // self.n  # listed rows always rank at or before it
            enter = (s_counts > degs[-1]) | ((s_counts == degs[-1]) & (stale_vids <= floor_row))
            stale_vids, s_counts = stale_vids[enter], s_counts[enter]
        self.top = top_k_from_degrees(np.concatenate((degs[held], s_counts)), TOP_ROWS,
                                      np.concatenate((ids[held], self._source_ids(nv)[stale_vids])))
        if self.top[0].size < min(TOP_ROWS // 2, nv):
            self.stats.top_refills += 1
            self.top = top_k_from_degrees(np.diff(indptr), TOP_ROWS, self._source_ids(nv))
            merged += nv
        return merged

    # -- in-CSR ------------------------------------------------------------
    def _merge_in(self, nv: int, dst_nv: int, stale_vids: np.ndarray) -> CSRPair:
        """The held in-CSR with the rows ``stale_vids`` taken anew from
        the out-CSR — every one a row stamped or born since it was read,
        so nothing is read from PM."""
        ip, ds = self._out  # type: ignore[misc]
        s_counts = ip[stale_vids + 1] - ip[stale_vids]
        s_dsts = ds[multi_arange(ip[stale_vids], s_counts)]
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

        # Sources are wholly stale or wholly clean, so no (dst, src) key
        # appears on both sides and the merged order is exactly
        # build_in_csr's — bit-identical in_srcs.  Source ids live in
        # the destination domain, so ``dst_nv`` exceeds every one.
        in_srcs = merge_in_streams(ko_dst, ko_src, kd_dst, kd_src, dst_nv)

        counts = np.bincount(ko_dst, minlength=dst_nv) + np.bincount(
            kd_dst, minlength=dst_nv
        )
        in_indptr = np.zeros(dst_nv + 1, dtype=INDPTR_DTYPE)
        np.cumsum(counts, out=in_indptr[1:])
        return in_indptr, in_srcs


def _patch_out(prev_indptr, prev_dsts, stale, stale_vids, s_counts, s_dsts) -> CSRPair:
    """Out-CSR over the rows of ``prev_indptr``: the clean ones from the
    previous arrays, the stale ones from ``(s_counts, s_dsts)``."""
    clean_vids = np.flatnonzero(~stale)
    counts = np.diff(prev_indptr)
    clean_counts = counts[clean_vids]
    counts[stale_vids] = s_counts
    indptr = np.zeros(counts.size + 1, dtype=INDPTR_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    dsts = np.empty(int(indptr[-1]), dtype=ID_DTYPE)
    src_idx = multi_arange(prev_indptr[clean_vids], clean_counts)
    dst_idx = multi_arange(indptr[:-1][clean_vids], clean_counts)
    if src_idx.size:
        dsts[dst_idx] = prev_dsts[src_idx]
    s_idx = multi_arange(indptr[:-1][stale_vids], s_counts)
    if s_idx.size:
        dsts[s_idx] = s_dsts
    return indptr, dsts


def _extend(vec: np.ndarray, n: int, fill=0) -> np.ndarray:
    """``vec`` widened to ``n`` entries, the new ones ``fill``."""
    if vec.size == n:
        return vec
    return np.concatenate((vec, np.full(n - vec.size, fill, dtype=vec.dtype)))


def _extend_indptr(indptr: np.ndarray, nv: int) -> np.ndarray:
    """Widen an indptr to ``nv`` rows (empty tail rows)."""
    return _extend(indptr, nv + 1, indptr[-1])


__all__ = ["DGAPViewCache", "ShardBuild", "ViewCacheStats", "FULL_REBUILD_STALE_FRACTION",
           "TOP_ROWS", "top_k_from_degrees"]
