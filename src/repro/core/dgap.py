"""The DGAP framework facade (paper §3).

One :class:`DGAP` instance owns:

* ① a DRAM **vertex array** (degree / start / edge-log pointer);
* ② a PM **edge array** — a VCSR-style packed memory array with pivot
  elements and insertion-ordered runs;
* ③ **per-section edge logs** absorbing would-be nearby shifts;
* ④ **per-thread undo logs** making rebalancing crash-consistent;

plus the PMA density tree, per-section locks, the pool root flags
(``NORMAL_SHUTDOWN``, edge-array generation) and the recovery logic.

Typical use::

    g = DGAP(DGAPConfig(init_vertices=1_000, init_edges=50_000))
    g.insert_edges(stream)              # (src, dst) pairs
    with g.consistent_view() as snap:   # Degree-Cache snapshot
        ranks = pagerank(snap)
    g.shutdown()                        # graceful: fast restart
    g2 = DGAP.open(g.pool, g.config)    # reload (or crash-recover)
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..config import DGAPConfig
from ..errors import GraphError, VertexRangeError
from ..pmem.crash import CrashInjector
from ..pmem.faults import FaultPolicy
from ..pmem.pool import PMemPool
from ..pmem.tx import TransactionManager
from .batch import DEFAULT_BATCH_SIZE, EdgeBatch, EdgeLike, sub_batches
from .edge_array import EdgeArray
from .edge_log import EdgeLogs, group_chains
from .encoding import SLOT_DTYPE, check_vertex, encode_edge, encode_pivot, is_edge, run_bounds, worth
from .locks import SectionLockTable
from ..obs.tracer import annotate, trace, traced
from ..nputil import distinct, multi_arange, run_heads, run_lengths
from .rebalance import (
    ROOT_EPS,
    ROOT_GEN,
    ROOT_NTHREADS,
    ROOT_NV_HINT,
    ROOT_SEGSLOTS,
    ROOT_SHUTDOWN,
    Rebalancer,
)
from .snapshot import DGAPSnapshot
from .undo_log import UndoLog
from .vertex_array import make_vertex_array


#: Slack when sizing the initial PM edge array — capacity =
#: next_pow2((init_edges + init_vertices) * OVERPROVISION) — so the PMA
#: has working gaps.
OVERPROVISION = 1.30

#: Writer threads a store pre-allocates undo logs for.
WRITER_THREADS = 16


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


class DGAP:
    """Dynamic Graph Analysis framework on (simulated) Persistent memory."""

    #: processed per-edge order of the last vectorized batch (positions
    #: into the batch) — replaying it one edge at a time through
    #: ``insert_edge`` reproduces the exact same persistent image.
    last_batch_order: Optional[np.ndarray] = None
    #: a DGAP is a one-shard store (DESIGN.md §14): everything above
    #: ``core/`` is written once, over ``shards`` / ``pool.pools``.
    n_shards = 1

    @property
    def shards(self) -> Tuple["DGAP", ...]:
        return (self,)

    def __init__(
        self,
        config: Optional[DGAPConfig] = None,
        pool: Optional[PMemPool] = None,
        injector: Optional[CrashInjector] = None,
        faults: Optional["FaultPolicy"] = None,
    ):
        self.config = config or DGAPConfig()
        cfg = self.config
        capacity = self._initial_capacity(cfg)
        if pool is None:
            pool = PMemPool(
                cfg.pool_bytes or self._auto_pool_bytes(cfg, capacity),
                name="dgap",
                injector=injector,
                faults=faults,
            )
        self.pool = pool
        self._attach(capacity, cfg.segment_slots, cfg.elog_entries, WRITER_THREADS,
                     gen=0, create=True)
        self.va = make_vertex_array(cfg.init_vertices, cfg.dram_placement, pool)
        self._seed_pivots()
        for slot, value in self.geometry_roots().items():
            pool.write_root(slot, value)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _initial_capacity(cfg: DGAPConfig) -> int:
        need = int((cfg.init_edges + cfg.init_vertices) * OVERPROVISION)
        n_seg = _next_pow2(max(1, (need + cfg.segment_slots - 1) // cfg.segment_slots))
        return n_seg * cfg.segment_slots

    @staticmethod
    def _auto_pool_bytes(cfg: DGAPConfig, capacity: int) -> int:
        # Headroom for several growth generations (a retired one is
        # reused, but only by a region that fits it), the per-section
        # edge logs of each, the scratch area and the undo logs.  The
        # headroom is virtual: device images are demand-zero, so pages
        # no generation ever writes cost no RSS (DESIGN.md §12).
        slot_bytes = capacity * 4
        elog_bytes = (capacity // cfg.segment_slots) * cfg.elog_size
        per_gen = slot_bytes * 3 + elog_bytes * 2
        return max(1 << 20, per_gen * 16 + WRITER_THREADS * (cfg.ulog_size + 4096) + (1 << 20))

    def _attach(self, capacity: int, seg_slots: int, eps: int, nthreads: int,
                gen: int, create: bool) -> None:
        """Bind the persistent structures of generation ``gen`` — allocated
        (``create``) or reopened from the pool — and reset everything
        DRAM-only that a fresh instance and a reopened one start from
        alike: locks, rebalancer, operation counters, view tracking."""
        cfg, pool = self.config, self.pool
        self.ea = EdgeArray(pool, capacity, seg_slots, gen=gen, create=create,
                            pm_metadata=not cfg.dram_placement)
        self.logs = EdgeLogs(pool, self.ea.n_sections, eps, create=create)
        self.ulogs = [UndoLog(pool, t, cfg.ulog_size, create=create) for t in range(nthreads)]
        self.tx_mgr: Optional[TransactionManager] = None
        if not cfg.use_undo_log:
            self._make_tx_mgr(capacity)
        self.locks = SectionLockTable(self.ea.n_sections)
        self.rebalancer = Rebalancer(self)
        # operation counters (informational)
        self.n_edges_inserted = 0
        self.n_log_inserts = 0
        self.n_array_inserts = 0
        self.n_shift_inserts = 0
        self.n_rebalances = 0
        self.n_resizes = 0
        self.n_compactions = 0
        self.tombstone_pairs_compacted = 0
        self._active_snapshots = 0
        self._shut_down = False
        self._init_view_tracking()

    def _make_tx_mgr(self, capacity: int) -> None:
        name = f"pmdk-journal.g{self.ea.gen}"
        self.tx_mgr = TransactionManager(self.pool, capacity=capacity * 4 + 64 * 1024, name=name)

    def _seed_pivots(self) -> None:
        """Place every initial vertex's pivot, evenly spaced (paper §3 ②)."""
        nv = self.va.num_vertices
        cap = self.ea.capacity
        if nv > cap:
            raise GraphError("init_vertices exceeds edge-array capacity")
        image = np.zeros(cap, dtype=SLOT_DTYPE)
        ids = np.arange(nv, dtype=np.int64)
        pos = ids * cap // nv
        image[pos] = encode_pivot(ids)
        self.pool.device.ntstore(self.ea.region.offset, image.view(np.uint8), payload=0)
        self.pool.device.sfence()
        starts = pos + 1
        zeros = np.zeros(nv, dtype=np.int64)
        self.va.bulk_load(starts, zeros, zeros.copy(), zeros.copy(), np.full(nv, -1, np.int64))
        self.ea.recount_all()

    def geometry_roots(self) -> dict:
        """Root slot → value for the geometry a reopen reads — the one
        list of DGAP's pool roots: the constructor stores them in this
        order, the scrubber rebuilds a damaged pool header from them."""
        return {
            ROOT_GEN: self.ea.gen,
            ROOT_SEGSLOTS: self.ea.segment_slots,
            ROOT_EPS: self.logs.entries_per_section,
            ROOT_NTHREADS: len(self.ulogs),
            ROOT_NV_HINT: self.va.num_vertices,
            ROOT_SHUTDOWN: 0,
        }

    # ------------------------------------------------------------------
    # structure epochs (incremental analysis views)
    # ------------------------------------------------------------------
    def _init_view_tracking(self) -> None:
        """Reset the structure epoch (the per-vertex row stamps live in
        the vertex array, which every open builds afresh).

        ``structure_epoch`` is a monotone counter bumped on every
        mutation — a view pinned at an older epoch must be re-acquired.
        ``va.row_epoch[v]`` records the epoch of the last mutation that
        changed vertex ``v``'s *logical row*: an edge or tombstone of
        ``v`` arriving, or a scrub repair losing one.  A row is append-
        only and kept in insertion order (paper §3.1.3), so rebalance
        windows, log merges, resizes and compaction sweeps move it
        without changing it: they bump the epoch (the view's geometry —
        chain share, scan overhead — is rebuilt from live PMA state) but
        stamp no row.  A view cache materialized at epoch ``e`` finds
        its stale rows as ``row_epoch > e`` — stamp-based, so there is
        no clearing step and any number of caches stay correct
        independently.  It re-reads only the *tail* a stale row grew
        since, which is exact until entries leave a row: a filtered
        rewrite (compaction sweep, lossy repair) records the epoch it
        commits at in ``history_epoch``, and a cache older than that
        reads its stale rows whole, once.
        """
        self.structure_epoch = 0
        self.history_epoch = 0
        self._views = None  # the store's view cache, built on first use

    def _touch_rows(self, vs) -> None:
        """Stamp the rows of ``vs`` (index or array) with a fresh epoch —
        the one call every site that changes a vertex's adjacency makes."""
        self.structure_epoch += 1
        self.va.row_epoch[vs] = self.structure_epoch

    def rows_changed_since(self, epoch: int, nv: int) -> np.ndarray:
        """Boolean mask over rows ``[0, nv)`` whose adjacency changed after ``epoch``."""
        return self.va.row_epoch[:nv] > epoch

    # ------------------------------------------------------------------
    # rebalancer callbacks
    # ------------------------------------------------------------------
    def note_rebalance_window(self, lo_slot: int, hi_slot: int) -> None:
        """A rebalance rewrote slots ``[lo_slot, hi_slot)`` (the window
        is the hook's argument for whoever wraps it)."""
        self.n_rebalances += 1
        self.structure_epoch += 1  # runs moved; no row changed

    def stats_note_resize(self, new_capacity: int) -> None:
        self.n_resizes += 1
        self.locks.resize(self.ea.n_sections)
        self.structure_epoch += 1  # new generation; no row changed
        if self.tx_mgr is not None:
            self._make_tx_mgr(new_capacity)

    # ------------------------------------------------------------------
    # graph updates (paper §3.1.2)
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        """Every public mutation starts here: after :meth:`shutdown` the
        NORMAL_SHUTDOWN flag stays set until the next :meth:`open`, so a
        write acknowledged now would be dropped by the normal restart."""
        if self._shut_down:
            raise GraphError("write to a shut-down store; reopen it from its pool")

    def insert_vertex(self, v: int) -> None:
        """Ensure vertex ids ``0..v`` exist (``g.insertV``)."""
        self._require_open()
        if self.va.num_vertices <= v:
            self._append_vertices(check_vertex(v))

    @traced("insert_vertex", v=lambda self, v: v)
    def _append_vertices(self, v: int) -> None:
        """Write tail pivots until vertex ``v`` exists."""
        va = self.va
        locked = self.config.thread_safe
        while va.num_vertices <= v:
            u = va.num_vertices
            last = u - 1
            pos = int(va.start[last] + va.array_degree[last])
            held = None
            if locked:
                # Tail pivot write: exclusive with appends to the last run.
                held = self.locks.acquire_many(
                    {
                        self.ea.section_of(int(va.start[last]) - 1),
                        self.ea.section_of(min(pos, self.ea.capacity - 1)),
                    }
                )
                stale = (
                    va.num_vertices != u
                    or int(va.start[last] + va.array_degree[last]) != pos
                )
                if stale:
                    self.locks.release_many(held)
                    continue
            try:
                if pos >= self.ea.capacity:
                    if held is not None:
                        self.locks.release_many(held)
                        held = None
                    self.rebalancer.resize(tail=v + 1 - u)  # room for every pivot left
                    continue
                if self.ea.slots[pos] != 0:
                    raise GraphError("tail slot unexpectedly occupied")
                self.ea.write_slot(pos, encode_pivot(u), payload=4, persist=True)
                va.grow(u + 1)
                va.set_start(u, pos + 1)
                va.set_el(u, -1)
                self.ea.inc_occ(self.ea.section_of(pos))
                self._touch_rows(u)
                self.pool.write_root(ROOT_NV_HINT, va.num_vertices)
            finally:
                if held is not None:
                    self.locks.release_many(held)

    def insert_edge(
        self, src: int, dst: int, thread_id: int = 0, tombstone: bool = False
    ) -> None:
        """Insert directed edge ``src -> dst`` (``g.insertE``).

        The paper's per-edge protocol: one ``store; clwb; sfence`` per
        edge, durable when the call returns (``insert_edges`` with two
        or more edges group-commits instead).  Deletion re-inserts the
        edge with the tombstone flag set (:meth:`delete_edge`).  The PM
        write is persisted *before* the DRAM vertex array is touched, so
        a crash in between is always recoverable from the persistent
        state.
        """
        self._require_open()
        src, dst = check_vertex(src), check_vertex(dst)
        self._ensure_vertices(src, max(src, dst), True)
        self._insert_one(src, dst, thread_id, tombstone)

    def _ensure_vertices(self, src_max: int, any_max: int, grow_vertices: bool) -> None:
        """Grow the id space to cover an insert, or — with growth
        disabled — require that its sources already exist."""
        nv = self.va.num_vertices
        if grow_vertices:
            if any_max >= nv:
                self._append_vertices(any_max)
        elif src_max >= nv:
            raise VertexRangeError(
                f"source {src_max} >= {nv} with vertex growth disabled"
            )

    # -- §3.1.6 lock sets ------------------------------------------------
    #
    # A writer locks the *pivot* section of its source vertex (edge-log
    # appends land there) plus the section of the append position — run
    # tails cross section boundaries, and a rebalance window can only be
    # exclusive if the writer holds the section it actually stores into.
    # Lock sets are recomputed and re-validated after acquisition: the
    # run may have moved (rebalance) or the whole geometry changed
    # (resize) while the writer waited.  Rebalances and resizes are
    # *deferred* out of the locked region (`_insert_edge_inner` returns
    # a pending action instead of calling the rebalancer): acquiring a
    # multi-section window while already holding a mid-window section is
    # the out-of-order acquisition the lock-discipline oracle rejects,
    # and two writers doing it concurrently deadlock.

    def _insert_lock_set(self, src: int) -> set:
        start = int(self.va.start[src])
        pos = start + int(self.va.array_degree[src])
        secs = {self.ea.section_of(start - 1)}
        if pos < self.ea.capacity:
            secs.add(self.ea.section_of(pos))
        return secs

    def _shift_lock_set(self, src: int) -> set:
        """Sections a nearby shift may rewrite: run head to the first gap."""
        va, ea = self.va, self.ea
        start = int(va.start[src])
        pos = start + int(va.array_degree[src])
        lo_sec = ea.section_of(start - 1)
        if pos >= ea.capacity:
            return {lo_sec}
        free = np.flatnonzero(ea.slots[pos:] == 0)
        g = pos + int(free[0]) if free.size else ea.capacity
        return set(range(lo_sec, ea.section_of(min(g, ea.capacity - 1)) + 1))

    def _pivot_sections(self, vids: np.ndarray) -> list:
        """The pivot sections of rows ``vids``, ascending: a snapshot
        reader's lock set (DESIGN.md §10) and the logs their chains sit in."""
        return distinct((self.va.start[vids] - 1) // self.ea.segment_slots).tolist()

    def _acquire_validated(self, src, lock_set_fn) -> list:
        """Acquire ``lock_set_fn(src)`` and re-validate it under the locks."""
        while True:
            held = self.locks.acquire_many(lock_set_fn(src))
            if set(lock_set_fn(src)) <= set(held):
                return held
            self.locks.release_many(held)

    @traced("insert_edge")
    def _insert_one(self, src: int, dst: int, thread_id: int, tombstone: bool) -> None:
        """One-edge insert for an existing vertex (lock + inner path).

        Rebalance work triggered by the insert (section merge, density
        rebalance, resize) runs *after* the writer's section locks are
        released; the rebalancer then takes its own window locks via
        ``begin_rebalance``.  With ``thread_safe=False`` the deferral is
        pure control flow — the persistence-event order is identical to
        the historical inline calls, which the crash sweeps pin down.
        """
        locked = self.config.thread_safe
        stage = "inner"
        while True:
            held = None
            if locked:
                held = self._acquire_validated(
                    src, self._insert_lock_set if stage == "inner" else self._shift_lock_set
                )
            try:
                if stage == "inner":
                    pending = self._insert_edge_inner(src, dst, thread_id, tombstone)
                else:  # stage == "shift": retry the nearby shift after a resize
                    pending = self._insert_with_shift(src, encode_edge(dst, tombstone), thread_id)
            finally:
                if held is not None:
                    self.locks.release_many(held)
            if pending is None:
                return
            kind = pending[0]
            if kind == "merge":  # insert landed; log crossed the merge point
                self.rebalancer.merge_section(pending[1], thread_id)
                return
            if kind == "merge_retry":  # log full; merge, then redo the insert
                self.rebalancer.merge_section(pending[1], thread_id)
                stage = "inner"
                continue
            if kind == "resize_shift":  # shift found no gap; resize, redo shift
                self.rebalancer.resize(thread_id)
                stage = "shift"
                continue
            if kind == "do_shift":  # No-EL ablation: shift needs its own lock set
                stage = "shift"
                continue
            if kind == "rebalance":  # shift landed; density check is due
                self.rebalancer.maybe_rebalance(pending[1], thread_id)
                return
            raise GraphError(f"unknown deferred insert action {pending!r}")

    def _insert_edge_inner(self, src: int, dst: int, thread_id: int, tombstone: bool):
        va, ea, logs, cfg = self.va, self.ea, self.logs, self.config
        enc = encode_edge(dst, tombstone)
        pos = int(va.start[src] + va.array_degree[src])
        live_delta = int(worth(enc))

        if pos < ea.capacity and ea.slots[pos] == 0:
            # Fast path: the slot after the run is a gap — atomic insert.
            ea.write_slot(pos, enc, payload=4, persist=True)
            va.set_array_degree(src, int(va.array_degree[src]) + 1)
            va.set_degree(src, int(va.degree[src]) + 1)
            va.set_live_degree(src, int(va.live_degree[src]) + live_delta)
            ea.inc_occ(ea.section_of(pos))
            self.n_array_inserts += 1
            self.n_edges_inserted += 1
            self._touch_rows(src)
            # No density check here: a gap insert cannot overflow anything.
            # Rebalancing is driven by the edge logs (merge at 90%/full) and
            # by capacity (resize) — see §3 ③: "rebalancing might be
            # triggered if either the edge array or edge log is approaching
            # full capacity".
            return

        if not cfg.use_edge_log:
            # Ablation "No EL": the naive mutable-CSR nearby shift.  Hand
            # control back to `_insert_one` so the shift runs under its
            # (wider) lock set rather than the pivot/append pair.
            if cfg.thread_safe:
                return ("do_shift",)
            return self._insert_with_shift(src, enc, thread_id)

        sec = ea.section_of(int(va.start[src]) - 1)
        if logs.counts[sec] >= logs.capacity:
            # Log completely full (merge threshold was deferred): force a
            # merge (deferred past lock release), then redo the insert.
            return ("merge_retry", sec)
        gidx = logs.append(sec, src, int(enc), int(va.el[src]))
        va.set_el(src, gidx)
        va.set_degree(src, int(va.degree[src]) + 1)
        va.set_live_degree(src, int(va.live_degree[src]) + live_delta)
        self.n_log_inserts += 1
        self.n_edges_inserted += 1
        self._touch_rows(src)
        if logs.counts[sec] >= logs.merge_at:
            return ("merge", sec)
        return None

    def _insert_with_shift(self, src: int, enc: np.int32, thread_id: int):
        """Naive PMA insert: shift the occupied range right to open a gap.

        This is the write-amplification path of Fig. 1(a) — every
        element between the insertion point and the next gap is
        rewritten and persisted.  Protected by the undo log (or a PMDK
        transaction under "No EL&UL").  Returns a deferred action for
        `_insert_one` (resize wanted, or a post-shift density check).
        """
        va, ea = self.va, self.ea
        pos = int(va.start[src] + va.array_degree[src])
        if pos >= ea.capacity:
            return ("resize_shift",)
        slots = ea.slots
        # find the first gap at or after pos
        g = pos
        cap = ea.capacity
        while g < cap and slots[g] != 0:
            g += 1
        if g >= cap:
            return ("resize_shift",)

        nbytes = (g - pos + 1) * 4
        if self.config.use_undo_log and nbytes <= self.ulogs[thread_id].capacity:
            # Common case: the paper's fused backup-then-shift protocol.
            ulog = self.ulogs[thread_id]
            ulog.snapshot_window(pos, g + 1, ea.byte_off(pos), nbytes)
            self._do_shift(pos, g, enc)
            # Nothing was merged: finishing directly is safe — a crash
            # before it restores the backup (the unacknowledged insert
            # simply never happened) and re-issues a window rebalance.
            ulog.finish()
        else:
            # Long shift (dense run longer than ULOG_SZ) or the PMDK-TX
            # ablation: the shifted image goes through the rebalancer's
            # commit sequence.  Edge logs are unused in "No EL" mode, so
            # no log was merged (``log_rows=None``): nothing to clear.
            image = np.empty(g - pos + 1, dtype=SLOT_DTYPE)
            image[0] = enc
            image[1:] = ea.slots[pos:g]
            self.rebalancer._commit(pos, g + 1, None, thread_id, image)

        # DRAM metadata: shifted runs (pivots in (pos, g]) moved right by one.
        starts = va.starts()
        pivots = starts - 1
        lo_i = int(np.searchsorted(pivots, pos, side="left"))
        hi_i = int(np.searchsorted(pivots, g + 1, side="left"))
        for u in range(lo_i, hi_i):
            va.set_start(u, int(va.start[u]) + 1)
        va.set_array_degree(src, int(va.array_degree[src]) + 1)
        va.set_degree(src, int(va.degree[src]) + 1)
        va.set_live_degree(src, int(va.live_degree[src]) + int(worth(enc)))
        ea.recount(pos, g + 1)
        self._touch_rows(src)
        self.n_shift_inserts += 1
        self.n_edges_inserted += 1
        return ("rebalance", ea.section_of(pos))

    def _do_shift(self, pos: int, gap: int, enc: int) -> None:
        """Move ``slots[pos:gap]`` one to the right and write ``enc`` at ``pos``."""
        ea = self.ea
        dev = self.pool.device
        if gap > pos:
            moved = ea.slots[pos:gap].copy()
            dev.store(ea.byte_off(pos + 1), moved.view(np.uint8), payload=0)
        dev.store(ea.byte_off(pos), np.asarray(enc, dtype=SLOT_DTYPE).tobytes(), payload=4)
        dev.persist(ea.byte_off(pos), (gap - pos + 1) * 4)

    def insert_edges(
        self,
        edges: EdgeLike,
        thread_id: int = 0,
        batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
        grow_vertices: bool = True,
    ) -> int:
        """Bulk insert — the primary mutation entry point (paper §3.1.2).

        Accepts an :class:`EdgeBatch`, an ``(N, 2)`` array or any
        ``(src, dst)`` iterable; returns the number of accepted edges
        (tombstones included).  The batch is grouped by PMA section and
        applied in rounds of two *commit groups*: every source's
        trailing gap run is filled (all stores, one flush per distinct
        cache line in ascending order, one fence), then the remaining
        edges are appended to their sections' edge logs the same way.
        Placement — and so the persistent image once the call returns —
        is identical to inserting the edges one at a time in
        :attr:`last_batch_order`; durability is acknowledged per
        (sub-)batch, not per edge (a crash mid-round keeps a per-vertex
        prefix of its edges).  ``batch_size`` splits the stream into
        sub-batches (default 512; None or <= 0 = one unbounded batch;
        1 = the per-edge persist path).

        With ``grow_vertices=False`` every source must already exist and
        destinations are stored as opaque ids without materializing
        vertices for them — the sharding layer owns only a source's
        shard and keeps destinations in the *global* id space
        (:mod:`repro.sharding`).
        """
        self._require_open()
        batch = EdgeBatch.coerce(edges)
        with trace("insert_edges", edges=len(batch)):
            return sum(
                self._insert_batch(c, thread_id, grow_vertices)
                for c in sub_batches(batch, batch_size)
            )

    def _insert_batch(
        self, batch: EdgeBatch, thread_id: int = 0, grow_vertices: bool = True
    ) -> int:
        n = len(batch)
        if n == 0:
            self.last_batch_order = np.empty(0, dtype=np.int64)
            return 0
        src_max = int(batch.src.max())
        self._ensure_vertices(src_max, max(src_max, int(batch.dst.max())), grow_vertices)
        cfg = self.config
        if n == 1 or not cfg.use_edge_log or not cfg.dram_placement:
            # A lone edge takes the per-edge persist path.  Ablation modes
            # interleave per-edge PM metadata writes (shift path /
            # PM-resident placement); keep the scalar order.
            src, dst, tomb = batch.src, batch.dst, batch.tombstone
            for i in range(n):
                self._insert_one(int(src[i]), int(dst[i]), thread_id, bool(tomb[i]))
            self.last_batch_order = np.arange(n, dtype=np.int64)
            return n
        return self._insert_batch_vectorized(batch, thread_id)

    def _insert_batch_vectorized(self, batch: EdgeBatch, thread_id: int) -> int:
        srcs = batch.src
        tombs = batch.tombstone.any()
        encs = encode_edge(batch.dst, batch.tombstone if tombs else False)
        # live-degree delta per edge; None when every edge is a live insert
        live = worth(encs) if tombs else None
        order_parts: list = []
        pending = np.arange(len(batch), dtype=np.int64)
        while pending.size:
            pending = self._batch_round(pending, srcs, encs, live, order_parts, thread_id)
        self.last_batch_order = (
            np.concatenate(order_parts) if order_parts else np.empty(0, dtype=np.int64)
        )
        return len(batch)

    @traced("batch_round", edges=lambda self, pending, *_: int(pending.size))
    def _batch_round(
        self,
        pending: np.ndarray,
        srcs: np.ndarray,
        encs: np.ndarray,
        live: Optional[np.ndarray],
        order_parts: list,
        thread_id: int,
    ) -> np.ndarray:
        """One grouped pass over ``pending``; returns the deferred rest.

        Edges are processed section-by-section, source-by-source: first
        every source's gap run is extended (commit group 1), then the
        overflow goes to the sections' edge logs (commit group 2), so a
        vertex's array edges are durable before its log edges.  A
        section merge or a resize relocates runs, so the rest of the
        round is deferred and regrouped against the new geometry —
        exactly what the scalar path's retry does.
        """
        va, cfg = self.va, self.config
        S = self.ea.segment_slots
        while True:
            ea, logs = self.ea, self.logs
            psrc = srcs[pending]
            # Vertex runs lie in id order, so sections ascend with the
            # source: one stable sort by source groups the round by
            # section, then by source, in stream order within a source.
            order = np.argsort(psrc, kind="stable")
            p = pending[order]
            o_src = psrc[order]
            m = int(p.size)

            # distinct-source subgroups (contiguous; sections contiguous too)
            gstart = np.flatnonzero(run_heads(o_src))
            gcount = run_lengths(gstart, m)
            gsrc = o_src[gstart]
            gbase = va.start[gsrc]
            gpos = gbase + va.array_degree[gsrc]  # each run's first free slot

            held: list = []
            if not cfg.thread_safe:
                break
            # Lock every section a group may store into: its pivot section
            # through the section of its worst-case trailing-gap fill (the
            # fast phase writes at most `gcount` slots past the run end).
            gsec = (gbase - 1) // S
            need: set = set()
            wend = np.minimum(gpos + gcount, ea.capacity) - 1
            for a, b in zip(gsec.tolist(), (np.maximum(wend, 0) // S).tolist()):
                need.update(range(int(a), min(int(b), ea.n_sections - 1) + 1))
            held = self.locks.acquire_many(need)
            stale = (
                self.ea is not ea
                or not np.array_equal((va.start[gsrc] - 1) // S, gsec)
                or not np.array_equal(va.start[gsrc] + va.array_degree[gsrc], gpos)
            )
            if not stale:
                break
            # A rebalance/resize moved runs while we waited: regroup.
            self.locks.release_many(held)
        deferred = None
        cut_sec = -1
        try:
            # ---- fast phase: fill trailing gap runs ----------------------
            # group g fills slots gpos[g] + [0, nfree[g]), ending fast entry ends[g]
            nfree = np.minimum(gcount, ea.capacity - gpos)  # a run ends by capacity
            ends = np.cumsum(nfree)
            fast_slots = multi_arange(gpos, nfree)
            occ = np.flatnonzero(ea.slots[fast_slots])
            if occ.size:
                # the first occupied candidate of a subgroup caps its run
                g = np.searchsorted(ends, occ, side="right")
                first = run_heads(g)
                g, occ = g[first], occ[first]
                nfree[g] = occ - (ends[g] - nfree[g])
                ends = np.cumsum(nfree)
                fast_slots = multi_arange(gpos, nfree)
            n_fast = int(ends[-1])
            fast_p, tails = p, None  # tails: the log phase's edges, as indices into p
            if n_fast < m:
                fast_i = multi_arange(gstart, nfree)
                logged = np.ones(m, dtype=bool)
                logged[fast_i] = False
                fast_p, tails = p[fast_i], np.flatnonzero(logged)
            if n_fast:
                # Commit group 1: durable before any log append is issued.
                ea.write_slots(fast_slots, encs[fast_p])
                ea.inc_occ_counts(fast_slots // S)
                if live is None:
                    d_live = nfree
                else:
                    lcum = np.concatenate(([0], np.cumsum(live[fast_p])))
                    d_live = lcum[ends] - lcum[ends - nfree]
                va.bulk_apply_inserts(gsrc, nfree, nfree, d_live)
                self.n_array_inserts += n_fast
                self.n_edges_inserted += n_fast
                self._touch_rows(gsrc if tails is None else gsrc[nfree > 0])
                order_parts.append(fast_p)
                # As in the scalar path, gap inserts trigger no density
                # check — rebalancing is driven by the edge logs.

            # ---- log phase: commit group 2, one scattered append ---------
            if tails is not None:
                # Units stay in round order — by source, stream order within
                # one — so sections lie in contiguous blocks.
                sp = p[tails]
                ssrc = o_src[tails]
                ssec = (va.start[ssrc] - 1) // S
                k = int(sp.size)
                bstart = np.flatnonzero(run_heads(ssec))
                usecs = ssec[bstart]
                t_total = run_lengths(bstart, k)
                heads = run_heads(ssrc)
                # Log slots are assigned in stream-position order: this
                # fixes each edge's entry and where the merge cut falls.
                # With one source per section, round order is that order.
                if int(np.count_nonzero(heads)) > bstart.size:
                    key = ssec * len(srcs) + sp  # (section, position)
                    at = np.searchsorted(np.sort(key), key)
                else:
                    at = np.arange(k)
                rank = at - np.repeat(bstart, t_total)
                counts_s = logs.counts[usecs]
                force = counts_s >= logs.capacity
                take_s = np.minimum(t_total, np.maximum(1, logs.merge_at - counts_s))
                merges = force | (counts_s + take_s >= logs.merge_at)
                kept = rank < np.repeat(take_s, t_total)
                # A merge relocates runs, so everything after the first
                # merge trigger is deferred and regrouped next round (the
                # scalar path's retry).  A normal trigger is the append
                # that crosses the merge threshold (scalar merges right
                # after it); a full log (force) merges *before* its unit.
                if merges.any():
                    trig_rank = np.where(merges, np.where(force, 0, take_s - 1), -1)
                    trig = np.flatnonzero(rank == np.repeat(trig_rank, t_total))
                    j = int(trig[np.argmin(sp[trig])])
                    cut_sec = int(ssec[j])
                    kept &= sp < sp[j] + (logs.counts[cut_sec] < logs.capacity)
                kg = np.repeat(usecs * logs.entries_per_section + counts_s, t_total) + rank
                if not kept.all():
                    deferred = sp[~kept]
                    sp, ssrc, kg, heads = sp[kept], ssrc[kept], kg[kept], heads[kept]
                n_log = int(sp.size)
                if n_log:
                    # A source keeps a prefix of its edges: in round order
                    # its kept entries are one back-pointer chain.
                    cstart = np.flatnonzero(heads)
                    clen = run_lengths(cstart, n_log)
                    cs = ssrc[cstart]
                    backs = np.empty(n_log, dtype=np.int64)
                    backs[1:] = kg[:-1]
                    backs[cstart] = va.el[cs]
                    tail_g = kg[cstart + clen - 1]
                    d_live = clen if live is None else np.add.reduceat(live[sp], cstart)
                    o = np.argsort(sp, kind="stable")  # appends go in stream order
                    sp, ssrc, kg, backs = sp[o], ssrc[o], kg[o], backs[o]
                    logs.append_scatter(kg, ssrc, encs[sp], backs)
                    va.bulk_set_el(cs, tail_g)
                    va.bulk_apply_inserts(cs, clen, 0, d_live)
                    self.n_log_inserts += n_log
                    self.n_edges_inserted += n_log
                    self._touch_rows(cs)
                    order_parts.append(sp)

        finally:
            self.locks.release_many(held)

        if cut_sec >= 0:
            # Deferred past the release: a merge takes window locks of its
            # own, and taking them while holding writer locks is the
            # out-of-order acquisition the lock discipline forbids.
            self.rebalancer.merge_section(cut_sec, thread_id)

        return np.empty(0, dtype=np.int64) if deferred is None else deferred

    def delete_edge(self, src: int, dst: int) -> None:
        """Delete one occurrence of ``src -> dst`` (tombstone insertion, §3.1.2)."""
        self.insert_edge(src, dst, tombstone=True)

    # ------------------------------------------------------------------
    # tombstone compaction (temporal expiry sweep)
    # ------------------------------------------------------------------
    def tombstone_count(self) -> int:
        """Tombstones the store holds, store-wide.

        ``degree`` counts every entry (lives and tombstones), and
        ``live_degree`` counts lives minus tombstones, so the count is
        ``(Σdegree − Σlive) / 2`` — a pure DRAM read, cheap enough to
        poll after every expiry batch or view build.  Only a tombstone
        raises it; only a filtered rewrite (compaction, lossy repair)
        lowers it.  Summed over ``shards``
        (:class:`~repro.sharding.sharded.ShardedDGAP` reuses this very
        method).
        """
        deg = sum(int(sh.va.degrees().sum()) for sh in self.shards)
        live = sum(sh.num_edges for sh in self.shards)
        return (deg - live) // 2

    def tombstone_density(self) -> float:
        """Fraction of logical edge entries that are tombstones (0 if empty)."""
        deg = sum(int(sh.va.degrees().sum()) for sh in self.shards)
        return self.tombstone_count() / deg if deg else 0.0

    def compact(self) -> dict:
        """Tombstone-merge sweep: physically drop matched delete pairs.

        Rewrites the whole edge array once (into its next generation,
        ``Rebalancer._switch``), removing every matched tombstone +
        cancelled-live pair from each vertex's logical run and merging
        pending edge-log chains in the same pass.  The live adjacency
        read back afterward
        is byte-identical; only the dead weight that inflates section
        occupancy, gathers and recovery scans is gone.  Unmatched
        tombstones are kept (see ``encoding.tombstone_matches``).

        Requires no active analysis snapshots: snapshot semantics give a
        reader the first ``degree_v`` *logical* entries of each run, and
        the sweep rewrites exactly that history.
        """
        self._require_open()
        self.require_no_snapshots("compact")
        with trace("compact"):
            stats = self.rebalancer.compact()
            annotate(**stats)
        self.n_compactions += 1
        self.tombstone_pairs_compacted += stats["pairs_dropped"]
        return stats

    # ------------------------------------------------------------------
    # graph analysis (paper §3.1.3)
    # ------------------------------------------------------------------
    def consistent_view(self, rows: Optional[np.ndarray] = None) -> DGAPSnapshot:
        """Snapshot the Degree Cache for an analysis task (``g.consistent_view``)
        — of ``rows`` (ascending vertex ids) only, for a task that reads no other."""
        return DGAPSnapshot(self, rows)

    @property
    def view_cache(self):
        """The store's one view cache — every reader's way to its CSR
        arrays (DESIGN.md §7).  Written over the store surface
        (:class:`~repro.sharding.sharded.ShardedDGAP` reuses this very
        property); built on first use, empty again after a reopen."""
        if self._views is None:
            # repro.sharding imports this module: import at call time
            from ..sharding.merge import ShardedViewCache

            self._views = ShardedViewCache(self)
        return self._views

    def require_no_snapshots(self, what: str) -> None:
        """Refuse ``what`` while a caller still holds an analysis snapshot."""
        if self._active_snapshots:
            raise GraphError(f"{what} with active analysis snapshots")

    def _snapshot_opened(self, snap) -> None:
        self._active_snapshots += 1

    def _snapshot_closed(self, snap) -> None:
        self._active_snapshots -= 1

    @property
    def num_vertices(self) -> int:
        return self.va.num_vertices

    @property
    def num_edges(self) -> int:
        """Live (tombstone-adjusted) edge count."""
        return int(self.va.live_degrees().sum())

    def out_degree(self, v: int) -> int:
        self.va.check(v)
        return int(self.va.live_degree[v])

    def out_neighbors(self, v: int) -> np.ndarray:
        """Current live neighbors of ``v`` — a point read through a
        snapshot of that one row (O(1) copies, released before returning)."""
        self.va.check(v)
        with self.consistent_view(np.array([v], dtype=np.int64)) as snap:
            return snap.out_neighbors(v)

    # ------------------------------------------------------------------
    # shutdown / reopen (paper §3.1.5)
    # ------------------------------------------------------------------
    _META_FIELDS = ("start", "degree", "array_degree", "live_degree", "el")

    @traced("shutdown")
    def shutdown(self) -> None:
        """Graceful shutdown: persist DRAM components, set NORMAL_SHUTDOWN."""
        self.require_no_snapshots("shutdown")
        nv = self.va.num_vertices
        meta = {f: getattr(self.va, f)[:nv] for f in self._META_FIELDS}
        # section occupancy + log cursors: a normal restart rescans nothing
        logs = self.logs
        meta.update(seg_occ=self.ea.seg_occ, log_counts=logs.counts, log_live=logs.live_counts)
        # The previous shutdown's regions go back to the allocator (their
        # bytes are reused).  NORMAL_SHUTDOWN is still 0 in here: a crash
        # reopens through crash recovery, which reads none of meta.*.
        for f, arr in meta.items():
            name = f"meta.{f}"
            if self.pool.has_array(name):
                self.pool.free_array(name)
            region = self.pool.alloc_array(name, np.int64, arr.size)
            region.nt_write_slice(0, arr)
        self.pool.device.sfence()
        self.pool.write_root(ROOT_NV_HINT, nv)
        self.pool.device.drain_all()
        self.pool.write_root(ROOT_SHUTDOWN, 1)
        self.pool.device.end_session()  # the reopen is another process
        self._shut_down = True

    @classmethod
    def open(cls, pool: PMemPool, config: Optional[DGAPConfig] = None) -> "DGAP":
        """Reopen a DGAP from its pool: fast path after a graceful
        shutdown, full recovery (§3.1.5) after a crash."""
        from .recovery import open_from_pool

        return open_from_pool(cls, pool, config)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the PMA structural invariants; raises ``GraphError``.

        Checked: pivot ids dense and strictly increasing; every run
        contiguous (no embedded gaps) and gap-terminated; DRAM occupancy
        bookkeeping consistent with the persistent array; per-vertex
        degree = array part + live edge-log chain, headed by ``el``
        (:func:`~repro.core.edge_log.group_chains` over every section's
        log, which raises ``PMemError`` for a chain that came up short).
        Used by tests and available to applications after recovery.
        """
        slots = self.ea.slots
        start, ends = run_bounds(slots)
        nv = self.va.num_vertices
        if start.size != nv:
            raise GraphError(f"{start.size} pivots for {nv} vertices")
        if not np.array_equal(start, self.va.starts()):
            raise GraphError("DRAM starts disagree with pivots")
        # a run is array_degree edges, then only gaps up to the next pivot
        ad = self.va.array_degree[:nv]
        fill = np.minimum(start + ad, ends)
        n_edges = np.concatenate(([0], np.cumsum(is_edge(slots))))
        bad = fill != start + ad
        bad |= (n_edges[fill] - n_edges[start] != ad) | (n_edges[ends] != n_edges[fill])
        if bad.any():
            raise GraphError(f"run of vertex {int(bad.argmax())} is not its edges then gaps")
        logs = self.logs
        group_chains(*logs.peek(np.arange(logs.n_sections)), np.arange(nv), self.va)
        occ = self.ea.seg_occ.copy()
        self.ea.recount_all()
        if not np.array_equal(occ, self.ea.seg_occ):
            raise GraphError("section occupancy bookkeeping stale")

    # Placeholder populated by recovery (bypasses __init__).
    @classmethod
    def _blank(cls) -> "DGAP":
        return cls.__new__(cls)


__all__ = ["DGAP"]
