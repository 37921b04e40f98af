"""Virtual writer threads: event-level replay of concurrent ingestion.

Python's GIL makes real multi-threaded throughput meaningless, so
Table 3's thread counts are evaluated analytically (Amdahl + media
bandwidth, ``repro.baselines.interfaces``).  This module provides the
*independent cross-check*: it replays an edge stream as if executed by
``n_threads`` concurrent writers against the real DGAP instance,
advancing one modeled clock per thread and serializing conflicts
through the paper's lock protocol (§3.1.6):

* an insert holds its source vertex's *section* lock for the modeled
  duration of the operation;
* a rebalance triggered by the insert additionally holds every section
  of its (extended) window, blocking writers that target them.

The makespan of the replay — max over thread clocks, floored by the
media write bandwidth — is an alternative estimate of T_p that emerges
from actual per-operation costs and actual conflict patterns rather
than a declared serial fraction.  ``tests/test_vthreads.py`` verifies
the two estimators agree on shape (scaling band, hot-section
degradation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.baselines.interfaces import PM_WRITE_BW_BYTES_PER_S
from repro.core.batch import EdgeBatch
from repro.core.dgap import DGAP


@dataclass
class VThreadResult:
    """Outcome of one virtual-thread replay."""

    n_threads: int
    edges: int
    makespan_s: float
    thread_busy_s: List[float]
    lock_wait_s: float
    pm_media_bytes: int

    @property
    def meps(self) -> float:
        """Throughput at this thread count, in million edges per second."""
        return self.edges / self.makespan_s / 1e6 if self.makespan_s > 0 else float("inf")

    @property
    def utilization(self) -> float:
        """Mean busy fraction across threads (1.0 = perfect scaling)."""
        if self.makespan_s == 0:
            return 1.0
        return float(np.mean(self.thread_busy_s)) / self.makespan_s


class VirtualThreadScheduler:
    """Replay a stream over one DGAP instance with per-thread clocks."""

    def __init__(
        self,
        graph: DGAP,
        n_threads: int,
        record_events: bool = False,
        grow_vertices: bool = True,
    ):
        if n_threads < 1:
            raise ValueError("need at least one virtual thread")
        self.graph = graph
        self.n_threads = n_threads
        #: sharded replays disable growth: sources are pre-grown
        #: shard-locally and destinations are global ids that must never
        #: materialize local vertices.
        self.grow_vertices = grow_vertices
        self.clock = np.zeros(n_threads)  # ns, per virtual thread
        self.busy = np.zeros(n_threads)
        self.lock_wait_ns = 0.0
        #: ns at which each section's lock becomes free
        self.section_free: Dict[int, float] = {}
        #: with ``record_events``, the modeled lock-protocol event stream
        #: as ``(kind, thread, section)`` tuples — feed through
        #: ``racecheck.events_from_tuples`` to run the same
        #: lock-discipline oracle the real-thread racecheck uses.
        self.record_events = record_events
        self.events: List[Tuple[str, str, int]] = []
        #: the rebalance windows of the op being replayed, as the
        #: instance's rebalancer reports them
        self.windows: List[Tuple[int, int]] = []
        note = graph.note_rebalance_window

        def noted(lo_slot: int, hi_slot: int) -> None:
            note(lo_slot, hi_slot)
            self.windows.append((lo_slot, hi_slot))

        graph.note_rebalance_window = noted

    def _note(self, kind: str, tid: int, section: int) -> None:
        if self.record_events:
            self.events.append((kind, f"vt{tid}", section))

    # -- scheduling ------------------------------------------------------
    def _acquire(self, tid: int, sections: Iterable[int]) -> float:
        """Wait for every section lock, in ascending order (paper §3.1.6)."""
        t = float(self.clock[tid])
        for s in sorted(set(sections)):
            free = self.section_free.get(s, 0.0)
            if free > t:
                self.lock_wait_ns += free - t
                t = free
        return t

    def _release(self, sections: Iterable[int], until: float) -> None:
        for s in set(sections):
            if self.section_free.get(s, 0.0) < until:
                self.section_free[s] = until

    def run(self, edges) -> VThreadResult:
        """Replay ``edges`` round-robin across the virtual threads."""
        g = self.graph
        dev = g.pool.device
        media_before = dev.stats.media_bytes
        for i, (src, dst) in enumerate(edges):
            tid = i % self.n_threads
            src = int(src)
            dst = int(dst)
            if src < g.num_vertices:
                sec = g.ea.section_of(int(g.va.start[src]) - 1)
            else:
                sec = 0
            start = self._acquire(tid, (sec,))

            ns0 = dev.stats.modeled_ns
            self.windows.clear()
            g.insert_edges([(src, dst)], batch_size=None, grow_vertices=self.grow_vertices)
            op_ns = dev.stats.modeled_ns - ns0

            # A triggered rebalance holds its whole window.  The real
            # protocol *defers* it: the writer drops its section lock,
            # then the rebalance flags the window and acquires every
            # section in ascending order (never an upgrade while
            # holding).  ``_acquire`` only advances a clock, so the
            # modeled wait is the same either way; the recorded event
            # stream follows the deferred order so the lock-discipline
            # oracle accepts it.
            touched = {sec}
            S = g.ea.segment_slots
            for lo, hi in self.windows:
                touched.update(range(lo // S, min((hi + S - 1) // S, g.ea.n_sections)))
            self._note("acquire", tid, sec)
            self._note("release", tid, sec)
            if len(touched) > 1:
                start = max(start, self._acquire(tid, touched))
                win = sorted(touched)
                for s in win:
                    self._note("flag-set", tid, s)
                for s in win:
                    self._note("window-lock", tid, s)
                for s in reversed(win):
                    self._note("window-unlock", tid, s)
                for s in win:
                    self._note("flag-clear", tid, s)

            end = start + op_ns
            self.clock[tid] = end
            self.busy[tid] += op_ns
            self._release(touched, end)

        makespan = float(self.clock.max()) * 1e-9
        media = dev.stats.media_bytes - media_before
        makespan = max(makespan, media / PM_WRITE_BW_BYTES_PER_S)
        return VThreadResult(
            n_threads=self.n_threads,
            edges=len(edges),
            makespan_s=makespan,
            thread_busy_s=(self.busy * 1e-9).tolist(),
            lock_wait_s=self.lock_wait_ns * 1e-9,
            pm_media_bytes=int(media),
        )


def simulate_threads(
    make_graph,
    edges,
    thread_counts: Tuple[int, ...] = (1, 8, 16),
) -> Dict[int, VThreadResult]:
    """Replay the same stream at several thread counts (fresh graph each)."""
    out = {}
    for p in thread_counts:
        g = make_graph()
        out[p] = VirtualThreadScheduler(g, p).run(list(map(tuple, edges)))
    return out


@dataclass
class ShardedVThreadResult(VThreadResult):
    """Combined replay outcome across shards (makespan = max over shards)."""

    per_shard: List[VThreadResult] = field(default_factory=list)


def run_sharded(sharded, edges, n_threads: int) -> ShardedVThreadResult:
    """Replay a stream over a :class:`~repro.sharding.sharded.ShardedDGAP`.

    The writer threads are partitioned across shards and each shard runs
    its own :class:`VirtualThreadScheduler` over its routed sub-stream —
    independent section-lock tables, independent per-thread clocks, and,
    critically, an independent media-bandwidth floor per *pool*.  Shards
    execute concurrently, so the combined makespan is the **max** over
    per-shard makespans: N pools are N media lanes, which is what lets
    modeled ingest MEPS exceed the single-pool bandwidth ceiling of
    Table 3 (``tests/test_sharding.py::TestShardedVThreads``).
    """
    n = sharded.n_shards
    batch = EdgeBatch.coerce(edges)
    mx = batch.max_vertex()
    if mx >= sharded.num_vertices:
        sharded.insert_vertex(mx)

    base, rem = divmod(n_threads, n)
    results: List[VThreadResult] = []
    for r, sub in sharded.router.split(batch):
        tr = max(1, base + (1 if r < rem else 0))
        sched = VirtualThreadScheduler(
            sharded.shards[r], tr, grow_vertices=False
        )
        pairs = list(zip(sub.src.tolist(), sub.dst.tolist()))
        results.append(sched.run(pairs))

    makespan = max((res.makespan_s for res in results), default=0.0)
    busy: List[float] = []
    for res in results:
        busy.extend(res.thread_busy_s)
    return ShardedVThreadResult(
        n_threads=sum(res.n_threads for res in results),
        edges=len(batch),
        makespan_s=makespan,
        thread_busy_s=busy,
        lock_wait_s=sum(res.lock_wait_s for res in results),
        pm_media_bytes=sum(res.pm_media_bytes for res in results),
        per_shard=results,
    )
