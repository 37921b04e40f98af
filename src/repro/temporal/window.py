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
produces (pinned by ``tests/test_temporal_semantics.py``).

Tombstones accumulate until :meth:`DGAP.compact` merges them out; after
each step the wrapper triggers that sweep when the graph-wide tombstone
density crosses ``compact_threshold`` (half the slots wasted by a
matched pair ⇒ density 0.5 is all-garbage; the default 0.125 compacts
when a quarter of the entries are dead weight).  Every step runs inside
a ``temporal_step`` span (:mod:`repro.obs`), with per-phase child spans
coming from the underlying insert/compact paths.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.batch import DEFAULT_BATCH_SIZE, EdgeBatch
from ..errors import GraphError
from ..obs.tracer import annotate, trace

Pair = Tuple[int, int]


class TemporalWindowGraph:
    """Windowed ingest/expire/compact driver over a DGAP-like graph."""

    def __init__(
        self,
        graph,
        window: int,
        compact_threshold: float = 0.125,
        batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
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
        self.batch_size = batch_size
        self.auto_compact = auto_compact
        #: birth steps of the live copies of each pair, oldest first
        self._fifo: Dict[Pair, Deque[int]] = {}
        #: pairs born at each not-yet-expired step, in insertion order
        self._step_pairs: Dict[int, List[Pair]] = {}
        self._next_step = 0
        # counters (DRAM-side, reset on construction)
        self.n_steps = 0
        self.n_added = 0
        self.n_churn_deleted = 0
        self.n_churn_skipped = 0
        self.n_expired = 0
        self.n_compactions = 0

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
        t = self._next_step
        self._next_step += 1
        self.n_steps += 1
        with trace("temporal_step", step=t):
            added = self._ingest(t, adds)
            churned, skipped = self._churn(deletes)
            expired = self._expire(t - self.window)
            density = self.graph.tombstone_density()
            compacted = False
            if self.auto_compact and density >= self.compact_threshold:
                self.graph.compact()
                self.n_compactions += 1
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
        if len(batch) == 0:
            self._step_pairs[t] = []
            return 0
        if batch.tombstone.any():
            raise GraphError("temporal adds must not carry tombstones")
        pairs = [(int(s), int(d)) for s, d in zip(batch.src, batch.dst)]
        self.graph.insert_edges(batch, batch_size=self.batch_size)
        for p in pairs:
            self._fifo.setdefault(p, deque()).append(t)
        self._step_pairs[t] = pairs
        self.n_added += len(pairs)
        return len(pairs)

    def _churn(self, deletes) -> Tuple[int, int]:
        batch = EdgeBatch.coerce(deletes)
        victims: List[Pair] = []
        skipped = 0
        for s, d in zip(batch.src, batch.dst):
            p = (int(s), int(d))
            fifo = self._fifo.get(p)
            if not fifo:
                skipped += 1  # no live copy: nothing to tombstone
                continue
            fifo.popleft()  # consume the oldest copy
            if not fifo:
                del self._fifo[p]
            victims.append(p)
        self._delete_pairs(victims)
        self.n_churn_deleted += len(victims)
        self.n_churn_skipped += skipped
        return len(victims), skipped

    def _expire(self, expire_step: int) -> int:
        if expire_step < 0:
            return 0
        victims: List[Pair] = []
        for p in self._step_pairs.pop(expire_step, []):
            fifo = self._fifo.get(p)
            if not fifo or fifo[0] != expire_step:
                continue  # this copy was already consumed by churn
            fifo.popleft()
            if not fifo:
                del self._fifo[p]
            victims.append(p)
        with trace("window_expiry", step=expire_step, copies=len(victims)):
            self._delete_pairs(victims)
        self.n_expired += len(victims)
        return len(victims)

    def _delete_pairs(self, pairs: List[Pair]) -> None:
        if not pairs:
            return
        arr = np.asarray(pairs, dtype=np.int64)
        batch = EdgeBatch(arr[:, 0], arr[:, 1], np.ones(arr.shape[0], dtype=bool))
        self.graph.insert_edges(batch, batch_size=self.batch_size)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def live_pair_counts(self) -> Dict[Pair, int]:
        """Live copy count per pair — the window's logical contents."""
        return {p: len(fifo) for p, fifo in self._fifo.items()}

    def live_edges(self) -> int:
        """Total live copies currently inside the window."""
        return sum(len(f) for f in self._fifo.values())

    def counters(self) -> Dict[str, int]:
        return {
            "steps": self.n_steps,
            "added": self.n_added,
            "churn_deleted": self.n_churn_deleted,
            "churn_skipped": self.n_churn_skipped,
            "expired": self.n_expired,
            "compactions": self.n_compactions,
        }


__all__ = ["TemporalWindowGraph"]
