"""Consistent-view snapshots — the per-task Degree Cache (paper §3.1.3).

Because DGAP stores every vertex's edges in *insertion order*, a
consistent snapshot of the whole graph is nothing more than a copy of
the degree vector at time *t*: the readable edges of vertex ``v`` are
exactly its first ``degree_v^t`` logical edges, no matter what inserts,
merges, rebalances or resizes happen afterwards — merges only ever
*append-preserve* a run's logical prefix, and reads locate data through
the live vertex array.  ``consistent_view()`` therefore copies the
degree (and live-degree) vectors into the task's DRAM space and nothing
else — and a task that will read only some rows (a view refresh: the
rows written since its last build) copies only those rows' entries.

Reading entries ``[lo, degree_t)`` of vertex ``v`` (``degree_t =
degree_v^t``; ``lo = 0`` is the whole row, a larger ``lo`` the *tail*
behind a prefix the reader already holds — the same append-only
argument makes that prefix exact for as long as no filtered rewrite
drops entries, DESIGN.md §7):

* positions below ``array_degree_now`` come from the edge array run at
  the *current* ``start_v``;
* the rest come from the edge-log chain, which holds logical positions
  ``[array_degree_now, degree_now)`` in append order — its pivot
  section's log grouped by source — so the range is a slice of it and
  the ``degree_now - degree_t`` entries appended since are left out
  (paper: the FIFO buffer of size ``rest_v^t``).

Tombstones (deleted edges) are filtered at read time: a tombstone
cancels one earlier occurrence of the same destination.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import SnapshotError
from ..nputil import distinct, multi_arange
from ..obs.tracer import trace
from .edge_log import group_chains, unpack_entries
from .encoding import SLOT_DTYPE, check_vertex, edge_dsts, is_tombstone, tombstone_matches


class DGAPSnapshot:
    """One analysis task's consistent view of a DGAP graph.

    ``rows`` (ascending vertex ids) scopes the snapshot to those rows:
    only their degrees are copied and only they can be read.
    """

    def __init__(self, host, rows: Optional[np.ndarray] = None):
        self.host = host
        va = host.va
        self.num_vertices = va.num_vertices
        self.rows = rows
        if rows is None:
            # The Degree Cache: O(V) DRAM copies at task start.
            self.degree_t = va.degrees().copy()
            self.live_t = va.live_degrees().copy()
        else:
            self.degree_t = va.degree[rows]
            self.live_t = va.live_degree[rows]
        self._released = False
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        host._snapshot_opened(self)

    @property
    def num_edges(self) -> int:
        return int(self.live_t.sum())

    # -- lifecycle ----------------------------------------------------------
    def release(self) -> None:
        if not self._released:
            self._released = True
            self.host._snapshot_closed(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def _check(self) -> None:
        if self._released:
            raise SnapshotError("snapshot used after release()")

    def _at(self, vids):
        """Positions of ``vids`` in the copied vectors (the ids themselves
        unless the snapshot is row-scoped)."""
        self._check()
        if self.rows is None:
            return vids
        # ``rows`` ascends: an id in scope sits at its insertion point
        pos = np.searchsorted(self.rows, vids)
        if (np.append(self.rows, -1)[pos] != vids).any():
            raise SnapshotError("row outside this snapshot's scope")
        return pos

    # -- per-vertex reads --------------------------------------------------------
    def out_degree(self, v: int) -> int:
        """Live (tombstone-adjusted) out-degree of ``v`` at snapshot time."""
        return int(self.live_t[self._at(check_vertex(v, self.num_vertices))])

    def out_neighbors(self, v: int) -> np.ndarray:
        """Live destination ids of ``v`` at snapshot time (tombstones applied)."""
        vids = np.array([check_vertex(v, self.num_vertices)], dtype=np.int64)
        return self.materialize_rows(vids)[1]

    # -- bulk materialization ---------------------------------------------------------
    def _tails(self, vids: np.ndarray, lo, deg_t: np.ndarray) -> np.ndarray:
        """Encoded entries ``[lo[i], deg_t[i])`` of each ``vids[i]``, back to
        back (``lo``: one offset per row, or 0 for whole rows) — the one
        reader of row bytes.  Array parts are gathered in one pass; the
        chained rows' pivot sections' logs are read once and grouped by
        source as a merge groups them
        (:func:`~repro.core.edge_log.group_chains`).  Freshly allocated —
        never a view into the persistent buffers.

        On a ``thread_safe`` store the rows' pivot sections are held for
        the read (DESIGN.md §10): every rebalance, merge or switch that
        moves a row or drains its chain locks that section, and so does
        every writer appending to the row."""
        host = self.host
        locked = host.config.thread_safe
        held = host._acquire_validated(vids, host._pivot_sections) if locked else []
        try:
            va = host.va
            start, ad = va.start[vids], va.array_degree[vids]
            sizes = deg_t - lo
            n_arr = np.maximum(np.minimum(ad, deg_t) - lo, 0)
            vals = host.ea.slots[multi_arange(start + lo, n_arr)]
            n_chain = sizes - n_arr
            at = np.flatnonzero(n_chain)
            if not at.size:
                return vals
            chained = distinct(vids[at])
            gidx, rows = host.logs.peek(host._pivot_sections(chained))
            mine, counts, _ = group_chains(gidx, rows, chained, va)
            # a chain holds positions [array_degree, degree), oldest first
            skip = np.maximum(np.broadcast_to(lo, vids.shape)[at] - ad[at], 0)
            first = (np.cumsum(counts) - counts)[np.searchsorted(chained, vids[at])] + skip
            off = np.cumsum(sizes) - sizes
            out = np.empty(int(sizes.sum()), dtype=SLOT_DTYPE)
            out[multi_arange(off, n_arr)] = vals
            out[multi_arange(off[at] + n_arr[at], n_chain[at])] = unpack_entries(
                rows[mine[multi_arange(first, n_chain[at])]]
            )[1]
            return out
        finally:
            host.locks.release_many(held)

    def materialize_rows(
        self, vids: np.ndarray, prefix: Optional[Tuple[np.ndarray, ...]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row counts and concatenated live rows of ``vids``, in order.

        Returns ``(counts, dsts)``: ``counts[i]`` is the live degree of
        ``vids[i]`` at snapshot time and ``dsts`` holds the rows back to
        back, both freshly allocated.  ``prefix = (lens, counts, dsts)``
        says the caller holds each row's first ``lens[i]`` entries
        already resolved to ``counts[i]`` live destinations: only the
        tails behind them are read from PM and each row is the deletion
        rule applied to *prefix ++ tail*.  That equals resolving the raw
        row: per key the rule is a stack (:func:`~repro.core.encoding.
        tombstone_matches`), a resolved prefix leaves every stack as the
        raw prefix did, and a tombstone the prefix left unmatched cancels
        nothing that comes later.
        """
        vids = np.asarray(vids, dtype=np.int64)
        deg_t = self.degree_t[self._at(vids)]  # the raw row lengths, tombstones included
        lens = 0 if prefix is None else prefix[0]
        vals = self._tails(vids, lens, deg_t)
        sizes = deg_t - lens
        tomb = is_tombstone(vals)
        dsts = edge_dsts(vals)
        if prefix is not None:
            # lay each held prefix out in front of its tail
            _, held, held_dsts = prefix
            tail_dsts, tail_tomb, tails = dsts, tomb, sizes
            sizes = held + tails
            off = np.cumsum(sizes) - sizes
            at_tail = multi_arange(off + held, tails)
            dsts = np.empty(int(sizes.sum()), dtype=SLOT_DTYPE)
            dsts[multi_arange(off, held)] = held_dsts
            dsts[at_tail] = tail_dsts
            tomb = np.zeros(dsts.size, dtype=bool)
            tomb[at_tail] = tail_tomb
        if not tomb.any():
            return sizes, dsts
        off = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(vids.size), sizes)
        hot = np.zeros(vids.size, dtype=bool)
        hot[owner[tomb]] = True  # rows holding a tombstone
        keep = ~(tomb | tombstone_matches(dsts, tomb, off[hot], sizes[hot]))
        return np.bincount(owner[keep], minlength=vids.size), dsts[keep]

    def to_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """(indptr, dsts) of the live snapshot graph — cached per snapshot."""
        self._check()
        if self._csr is None:
            with trace("to_csr"):
                nv = self.num_vertices
                counts, dsts = self.materialize_rows(np.arange(nv, dtype=np.int64))
                indptr = np.zeros(nv + 1, dtype=np.int64)
                np.cumsum(counts, out=indptr[1:])
                self._csr = (indptr, dsts)
        return self._csr


__all__ = ["DGAPSnapshot"]
