"""Sliding-window graph semantics on top of DGAP's mutation paths.

:class:`TemporalWindowGraph` turns a DGAP (or ShardedDGAP — anything
with ``insert_edges`` / ``tombstone_density`` / ``compact``) into a
windowed stream consumer.  Step ``t`` of a temporal stream (see
:mod:`repro.datasets.temporal`) is applied as three batched mutations:

1. **ingest** — the step's adds go down the batched ``EdgeBatch``
   insert path, tagged with birth step ``t`` in DRAM-side bookkeeping;
2. **churn** — the stream's explicit deletes each consume the *oldest*
   live copy of their (src, dst) pair (FIFO), issued as one tombstone
   batch; deletes of pairs with no live copy are skipped and counted;
3. **expiry** — with window ``W``, every copy born at step ``t - W``
   that churn has not already consumed is expired with one tombstone
   per copy, again as one batch.  ``W = 0`` expires the current step's
   own survivors immediately; ``W = 1`` keeps exactly the current step.

Both delete flavors go down the ordinary deletion path: a tombstone
cancels the positionally *last* live occurrence of its pair, while the
FIFO bookkeeping decides *how many* copies survive.  Parallel copies of
a pair are byte-identical slots, so "FIFO by birth step, remove-last in
the array" yields exactly the adjacency a per-pair FIFO reference
produces, batch for batch (``tests/test_temporal_semantics.py``).  The
bookkeeping is one copy table in arrival order — packed pair, birth
step, live flag: 17 B per copy, sorted and searched once per phase.

Tombstones accumulate until :meth:`DGAP.compact` merges them out; after
each step the wrapper triggers that sweep when the graph-wide tombstone
density crosses ``compact_threshold`` (half the slots wasted by a
matched pair ⇒ density 0.5 is all-garbage; the default 0.125 compacts
when a quarter of the entries are dead weight).  Every step runs inside
a ``temporal_step`` span (:mod:`repro.obs`), with per-phase child spans
coming from the underlying insert/compact paths.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..core.batch import DEFAULT_BATCH_SIZE, EdgeBatch
from ..errors import GraphError
from ..nputil import distinct_counts
from ..obs.tracer import annotate, trace

Pair = Tuple[int, int]


def _pack(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One int64 key per (src, dst) pair (vertex ids fit in 30 bits)."""
    return (src << 32) | dst


def _rank(keys: np.ndarray) -> np.ndarray:
    """Each element's count of equal keys before it (a stable rank)."""
    order = np.argsort(keys, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(keys.size) - np.searchsorted(keys[order], keys[order])
    return rank


class TemporalWindowGraph:
    """Windowed ingest/expire/compact driver over a DGAP-like graph."""

    def __init__(
        self,
        graph,
        window: int,
        compact_threshold: float = 0.125,
        auto_compact: bool = True,
    ) -> None:
        if window < 0:
            raise GraphError(f"window must be >= 0, got {window}")
        if not 0.0 < compact_threshold <= 0.5:
            raise GraphError(
                f"compact_threshold must be in (0, 0.5], got {compact_threshold}"
            )
        self.graph = graph
        self.window = int(window)
        self.compact_threshold = float(compact_threshold)
        self.auto_compact = auto_compact
        #: the copy table: one row per copy of each not-yet-expired step, in
        #: arrival (= FIFO) order — packed pair, birth step, unconsumed by churn
        self._key = np.empty(0, dtype=np.int64)
        self._birth = np.empty(0, dtype=np.int64)
        self._live = np.empty(0, dtype=bool)
        #: DRAM-side counters, reset on construction; ``steps`` numbers the next step
        self._counts = dict.fromkeys(("steps", "added", "churn_deleted", "churn_skipped",
                                      "expired", "compactions"), 0)

    # ------------------------------------------------------------------
    # stream application
    # ------------------------------------------------------------------
    def advance(self, adds, deletes=()) -> dict:
        """Apply one step (adds, then churn deletes, then window expiry).

        ``adds``/``deletes`` are ``(N, 2)`` arrays or pair iterables — or
        pass a :class:`~repro.datasets.temporal.TemporalStep` as ``adds``.
        Returns the step's statistics dict.
        """
        if hasattr(adds, "adds") and hasattr(adds, "deletes"):  # TemporalStep
            adds, deletes = adds.adds, adds.deletes
        t = self._counts["steps"]
        self._counts["steps"] += 1
        with trace("temporal_step", step=t):
            added = self._ingest(t, adds)
            churned, skipped = self._churn(deletes)
            expired = self._expire(t - self.window)
            density = self.graph.tombstone_density()
            compacted = False
            if self.auto_compact and density >= self.compact_threshold:
                self.graph.compact()
                self._counts["compactions"] += 1
                compacted = True
            annotate(
                added=added, churned=churned, expired=expired,
                density=round(density, 4), compacted=compacted,
            )
        return {
            "step": t,
            "added": added,
            "churn_deleted": churned,
            "churn_skipped": skipped,
            "expired": expired,
            "tombstone_density": density,
            "compacted": compacted,
        }

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _ingest(self, t: int, adds) -> int:
        batch = EdgeBatch.coerce(adds)
        n = len(batch)
        if n == 0:
            return 0
        if batch.tombstone.any():
            raise GraphError("temporal adds must not carry tombstones")
        self.graph.insert_edges(batch, batch_size=DEFAULT_BATCH_SIZE)
        self._key = np.concatenate([self._key, _pack(batch.src, batch.dst)])
        self._birth = np.concatenate([self._birth, np.full(n, t, dtype=np.int64)])
        self._live = np.concatenate([self._live, np.ones(n, dtype=bool)])
        self._counts["added"] += n
        return n

    def _churn(self, deletes) -> Tuple[int, int]:
        """The r-th delete of a pair consumes its r-th oldest live copy;
        a delete past the pair's live count is skipped (no tombstone)."""
        batch = EdgeBatch.coerce(deletes)
        rows = np.flatnonzero(self._live)
        order = np.argsort(self._key[rows], kind="stable")
        live = self._key[rows[order]]
        dk = _pack(batch.src, batch.dst)
        at = np.searchsorted(live, dk) + _rank(dk)
        hit = at < np.searchsorted(live, dk, side="right")
        self._live[rows[order[at[hit]]]] = False
        self._tombstone(batch.src[hit], batch.dst[hit])
        churned = int(np.count_nonzero(hit))
        self._counts["churn_deleted"] += churned
        self._counts["churn_skipped"] += len(batch) - churned
        return churned, len(batch) - churned

    def _expire(self, expire_step: int) -> int:
        """Per pair born at ``expire_step``, tombstone its first ``m``
        copies in arrival order, ``m`` being how many churn left live;
        then drop the step's rows (the table's head)."""
        if expire_step < 0:
            return 0
        n = int(np.searchsorted(self._birth, expire_step, side="right"))
        keys = self._key[:n]
        live = np.sort(keys[self._live[:n]])
        m = np.searchsorted(live, keys, side="right") - np.searchsorted(live, keys)
        gone = keys[_rank(keys) < m]
        self._key, self._birth, self._live = self._key[n:], self._birth[n:], self._live[n:]
        with trace("window_expiry", step=expire_step, copies=len(gone)):
            self._tombstone(gone >> 32, gone & 0xFFFFFFFF)
        self._counts["expired"] += len(gone)
        return len(gone)

    def _tombstone(self, src: np.ndarray, dst: np.ndarray) -> None:
        if src.size:
            batch = EdgeBatch(src, dst, np.ones(src.size, dtype=bool))
            self.graph.insert_edges(batch, batch_size=DEFAULT_BATCH_SIZE)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def live_pair_counts(self) -> Dict[Pair, int]:
        """Live copy count per pair — the window's logical contents."""
        keys, counts = distinct_counts(self._key[self._live])
        return dict(zip(zip((keys >> 32).tolist(), (keys & 0xFFFFFFFF).tolist()),
                        counts.tolist()))

    def live_edges(self) -> int:
        """Total live copies currently inside the window."""
        return int(np.count_nonzero(self._live))

    def counters(self) -> Dict[str, int]:
        return dict(self._counts)


__all__ = ["TemporalWindowGraph"]
