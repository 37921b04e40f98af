"""A per-pair FIFO reference for the mutation batches a window sends.

:class:`FifoWindow` is the sliding-window bookkeeping written the plain
way: one deque of birth steps per live (src, dst) pair, oldest first,
and the list of pairs each not-yet-expired step added, in arrival order.
It drives no store; :meth:`FifoWindow.step` returns the batches
:class:`repro.temporal.TemporalWindowGraph` must hand the graph's
``insert_edges`` for the same step, in order, each as
``(pairs, tombstone)``:

1. the adds, as given (none if the step adds nothing);
2. churn: each delete, in delete order, that finds a live copy of its
   pair consumes the oldest one and becomes a tombstone; the rest are
   skipped;
3. expiry of step ``t - W``: walking that step's adds in arrival order,
   a pair whose oldest live copy was born then is tombstoned and that
   copy consumed.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

Pair = Tuple[int, int]
Batch = Tuple[Tuple[Pair, ...], bool]


class FifoWindow:
    def __init__(self, window: int):
        self.window = window
        self.fifo: Dict[Pair, Deque[int]] = {}
        self.step_pairs: Dict[int, List[Pair]] = {}
        self.t = 0

    def _consume(self, p: Pair) -> None:
        fifo = self.fifo[p]
        fifo.popleft()
        if not fifo:
            del self.fifo[p]

    def step(self, adds, deletes=()) -> List[Batch]:
        """The step's batches, and the bookkeeping advanced past it."""
        t = self.t
        self.t += 1
        out: List[Batch] = []
        pairs = [(int(s), int(d)) for s, d in adds]
        if pairs:
            out.append((tuple(pairs), False))
        for p in pairs:
            self.fifo.setdefault(p, deque()).append(t)
        self.step_pairs[t] = pairs
        churned = []
        for s, d in deletes:
            p = (int(s), int(d))
            if self.fifo.get(p):
                self._consume(p)
                churned.append(p)
        if churned:
            out.append((tuple(churned), True))
        expired = []
        for p in self.step_pairs.pop(t - self.window, []):
            fifo = self.fifo.get(p)
            if fifo and fifo[0] == t - self.window:
                self._consume(p)
                expired.append(p)
        if expired:
            out.append((tuple(expired), True))
        return out

    def live_pair_counts(self) -> Dict[Pair, int]:
        return {p: len(f) for p, f in self.fifo.items()}
