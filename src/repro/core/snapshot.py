"""Consistent-view snapshots — the per-task Degree Cache (paper §3.1.3).

Because DGAP stores every vertex's edges in *insertion order*, a
consistent snapshot of the whole graph is nothing more than a copy of
the degree vector at time *t*: the readable edges of vertex ``v`` are
exactly its first ``degree_v^t`` logical edges, no matter what inserts,
merges, rebalances or resizes happen afterwards — merges only ever
*append-preserve* a run's logical prefix, and reads locate data through
the live vertex array.  ``consistent_view()`` therefore copies the
degree (and live-degree) vectors into the task's DRAM space and nothing
else.

Reading vertex ``v`` at time *t* (``degree_t = degree_v^t``):

* the first ``min(array_degree_now, degree_t)`` edges come from the
  edge array run at the *current* ``start_v``;
* any remainder comes from the edge-log back-pointer chain: the chain
  holds logical positions ``[array_degree_now, degree_now)`` newest
  first, so skip the ``degree_now - degree_t`` newest entries and take
  the rest (paper: the FIFO buffer of size ``rest_v^t``).

Tombstones (deleted edges) are filtered at read time: a tombstone
cancels one earlier occurrence of the same destination.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import SnapshotError
from ..nputil import multi_arange
from ..obs.tracer import trace
from .encoding import SLOT_DTYPE, TOMB_BIT, tombstone_matches


class DGAPSnapshot:
    """One analysis task's consistent view of a DGAP graph."""

    def __init__(self, host):
        self.host = host
        self.num_vertices = host.va.num_vertices
        self._cow = None
        if getattr(host, "_cow_cache", None) is not None:
            # CoW Degree Cache (§6 future work): O(chunks) pin instead of
            # an O(|V|) copy; vectors materialize lazily on bulk access.
            self._cow = host._cow_cache.snapshot()
            self._degree_t: Optional[np.ndarray] = None
            self._live_t: Optional[np.ndarray] = None
        else:
            # The baseline Degree Cache: O(V) DRAM copies at task start.
            self._degree_t = host.va.degrees().copy()
            self._live_t = host.va.live_degrees().copy()
        self._released = False
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        host._snapshot_opened(self)

    @property
    def degree_t(self) -> np.ndarray:
        if self._degree_t is None:
            self._degree_t = self._cow.degrees()
        return self._degree_t

    @property
    def live_t(self) -> np.ndarray:
        if self._live_t is None:
            self._live_t = self._cow.live_degrees()
        return self._live_t

    @property
    def num_edges(self) -> int:
        return int(self.live_t[: self.num_vertices].sum())

    # -- lifecycle ----------------------------------------------------------
    def release(self) -> None:
        if not self._released:
            self._released = True
            if self._cow is not None:
                self._cow.release()
            self.host._snapshot_closed(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def _check(self) -> None:
        if self._released:
            raise SnapshotError("snapshot used after release()")

    # -- per-vertex reads --------------------------------------------------------
    def out_degree(self, v: int) -> int:
        """Live (tombstone-adjusted) out-degree of ``v`` at snapshot time."""
        self._check()
        if self._cow is not None and self._live_t is None:
            return self._cow.live_degree(v)  # no materialization needed
        return int(self.live_t[v])

    def slot_values(self, v: int) -> np.ndarray:
        """Encoded slot values of ``v``'s first ``degree_t`` edges, in order."""
        self._check()
        va = self.host.va
        if self._cow is not None and self._degree_t is None:
            deg_t = self._cow.degree(v)
        else:
            deg_t = int(self.degree_t[v])
        if deg_t == 0:
            return np.empty(0, dtype=SLOT_DTYPE)
        a_now = int(va.array_degree[v])
        n_arr = min(a_now, deg_t)
        st = int(va.start[v])
        arr = self.host.ea.slots[st : st + n_arr]
        if deg_t <= n_arr:
            return arr
        return np.concatenate([arr, self._chain_tail(v, deg_t - n_arr, deg_t)])

    def _chain_tail(self, v: int, take: int, deg_t: int) -> np.ndarray:
        """The last ``take`` of ``v``'s first ``deg_t`` entries, oldest
        first, from its edge-log chain (which is walked newest first)."""
        va = self.host.va
        skip = int(va.degree[v]) - deg_t  # entries appended after snapshot time
        _, _, dst_encs = self.host.logs.walk_chain_arrays(int(va.el[v]), limit=skip + take)
        return dst_encs[skip : skip + take][::-1].astype(SLOT_DTYPE)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Live destination ids of ``v`` at snapshot time (tombstones applied)."""
        vals = self.slot_values(v)
        if vals.size == 0:
            return vals.astype(SLOT_DTYPE)
        tomb = (vals & TOMB_BIT) != 0
        dsts = (vals & ~TOMB_BIT) - 1
        if not tomb.any():
            return dsts
        return _apply_tombstones(dsts, tomb)

    # -- bulk materialization ---------------------------------------------------------
    def materialize_rows(self, vids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row counts and concatenated live rows of ``vids``, in order.

        Returns ``(counts, dsts)``: ``counts[i]`` is the live degree of
        ``vids[i]`` at snapshot time and ``dsts`` holds the rows back to
        back.  Array parts are gathered in one pass and every
        tombstone-holding row is resolved by one
        :func:`~repro.core.encoding.tombstone_matches` call; only pending
        log chains are walked per vertex.  Both arrays are always freshly
        allocated — never views into the persistent buffers.
        """
        self._check()
        va = self.host.va
        vids = np.asarray(vids, dtype=np.int64)
        deg_t = self.degree_t[vids]  # the raw row lengths, tombstones included
        n_arr = np.minimum(va.array_degree[vids], deg_t)
        idx = multi_arange(va.start[vids], n_arr)
        vals = self.host.ea.slots[idx] if idx.size else np.empty(0, dtype=SLOT_DTYPE)
        off = np.cumsum(deg_t) - deg_t

        chained = np.flatnonzero(deg_t > n_arr)
        if chained.size:
            # splice each pending chain's entries in behind the array part
            arr_vals, vals = vals, np.empty(int(deg_t.sum()), dtype=SLOT_DTYPE)
            vals[multi_arange(off, n_arr)] = arr_vals
            for i in chained.tolist():
                a, d = int(n_arr[i]), int(deg_t[i])
                vals[off[i] + a : off[i] + d] = self._chain_tail(int(vids[i]), d - a, d)

        tomb = (vals & TOMB_BIT) != 0
        dsts = (vals & ~TOMB_BIT) - 1
        if not tomb.any():
            return deg_t, dsts
        owner = np.repeat(np.arange(vids.size), deg_t)
        hot = np.zeros(vids.size, dtype=bool)
        hot[owner[tomb]] = True  # rows holding a tombstone
        keep = ~(tomb | tombstone_matches(dsts, tomb, off[hot], deg_t[hot]))
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


def _apply_tombstones(dsts: np.ndarray, tomb: np.ndarray) -> np.ndarray:
    """Live destinations of one run: tombstones and the lives they cancel
    (:func:`~repro.core.encoding.tombstone_matches`) are hidden."""
    keep = ~(tomb | tombstone_matches(dsts, tomb))
    return dsts[keep].astype(np.int32, copy=False)


__all__ = ["DGAPSnapshot"]
