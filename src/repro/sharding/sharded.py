"""N independent DGAP instances behind one graph facade.

Each shard owns a residue class of the vertex space
(:mod:`repro.sharding.partition`), with its **own** :class:`PMemPool`,
section-lock table, edge logs, undo logs and fault policy — the shards
share nothing persistent, which is exactly what lets ingest bandwidth
and recovery replay scale with the shard count (the per-pool media
write bandwidth is the single-instance ceiling of Table 3).

The facade keeps DGAP's mutation semantics:

* ``insert_edge`` / ``insert_edges`` / ``delete_edge`` accept global
  ids; batches are chunked at the same default cadence as a single
  instance, routed per shard (:class:`~repro.sharding.router.ShardRouter`)
  and dispatched down the unmodified batched ingest path with vertex
  growth disabled (sources are pre-grown owner-side; destinations stay
  global).
* crash simulation is whole-machine: every shard's device shares one
  :class:`~repro.pmem.crash.CrashInjector`, so crash sweeps see a
  single global persistence-event ordering, and when any shard's device
  power-fails mid-dispatch the facade power-fails the remaining shards
  too (a real outage does not spare the other DIMMs).
* ``open`` recovers every shard from its pool; the shards replay
  concurrently on the modeled clock, so recovery makespan is the max
  over per-shard recovery times, not the sum (``pool.clocks()`` is
  where that is read).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import List, Optional

import numpy as np

from ..config import DGAPConfig
from ..core.batch import DEFAULT_BATCH_SIZE, EdgeBatch, EdgeLike, sub_batches
from ..core.dgap import DGAP
from ..core.encoding import check_vertex
from ..errors import GraphError, SimulatedCrash
from ..pmem.crash import CrashInjector
from ..pmem.faults import FaultPolicy
from ..pmem.pool import PMemPool
from ..pmem.stats import SummedStats
from .partition import global_vertex_count, local_count, shard_of, to_local
from .router import ShardRouter


class ShardPoolGroup:
    """The persistent footprint of a :class:`ShardedDGAP`: one pool per shard.

    The members it shares with a :class:`~repro.pmem.pool.PMemPool`
    (itself a one-pool group): ``pools``, ``stats`` (every counter and
    ``modeled_ns`` summed — device work), ``clocks()`` (per-pool modeled
    ns — where "parallel" is read) and ``crash()``, which power-fails
    every shard.  A ``deepcopy`` preserves the shared-injector wiring
    (the injector deduplicates through the copy memo).
    """

    def __init__(self, pools):
        self.pools = list(pools)

    @property
    def stats(self) -> SummedStats:
        return SummedStats([p.stats for p in self.pools])

    clocks = PMemPool.clocks  # the same function: it reads ``self.pools``

    def crash(self) -> None:
        for p in self.pools:
            p.crash()


def shard_config(config: DGAPConfig, shard: int, n_shards: int) -> DGAPConfig:
    """Per-shard :class:`DGAPConfig` derived from the global one.

    The shard seeds exactly the initial vertices it owns (so the union
    of shard id spaces equals the unsharded initial id space) and sizes
    its edge array / pool for its slice of the stream.
    """
    lc = local_count(config.init_vertices - 1, shard, n_shards)
    if lc <= 0:
        raise GraphError(
            f"init_vertices={config.init_vertices} < n_shards={n_shards}: "
            f"shard {shard} would own no initial vertex"
        )
    pool_bytes = config.pool_bytes
    if pool_bytes is not None:
        pool_bytes = max(1 << 20, pool_bytes // n_shards)
    return replace(
        config,
        init_vertices=lc,
        init_edges=max(256, -(-config.init_edges // n_shards)),
        pool_bytes=pool_bytes,
    )


class ShardedDGAP:
    """Vertex-striped multi-pool DGAP with a routing front-end."""

    def __init__(
        self,
        n_shards: int = 4,
        config: Optional[DGAPConfig] = None,
        injector: Optional[CrashInjector] = None,
        faults: Optional[FaultPolicy] = None,
    ):
        if n_shards < 1:
            raise GraphError("need at least one shard")
        config = config or DGAPConfig()
        # One injector across every shard device: crash sweeps count a
        # single machine-wide persistence-event stream.
        injector = injector or CrashInjector()
        self._assemble(
            [
                DGAP(shard_config(config, r, n_shards), injector=injector, faults=faults)
                for r in range(n_shards)
            ],
            config,
        )

    def _assemble(self, shards: List[DGAP], config: DGAPConfig) -> None:
        """The one place the facade's fields are set (fresh or reopened)."""
        self.config = config
        self.shards = shards
        self.n_shards = len(shards)
        self.router = ShardRouter(self.n_shards)
        self.pool = ShardPoolGroup([sh.pool for sh in shards])
        self._views = None  # the store's view cache, built on first use

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Contiguous global vertex count every shard agrees on."""
        return global_vertex_count([sh.num_vertices for sh in self.shards])

    @property
    def num_edges(self) -> int:
        return sum(sh.num_edges for sh in self.shards)

    def shard_for(self, v: int) -> DGAP:
        return self.shards[shard_of(int(v), self.n_shards)]

    # Point reads bounds-check in the *global* id space and never fall
    # through to the owner shard's local check: the shard would report
    # the *local* id, and after an uneven mid-crash growth a
    # globally-invalid id could even resolve to a stray local vertex.

    def out_degree(self, v: int) -> int:
        v = check_vertex(v, self.num_vertices)
        return self.shard_for(v).out_degree(to_local(v, self.n_shards))

    def out_neighbors(self, v: int) -> np.ndarray:
        """Live neighbors of global vertex ``v`` (global destination ids)."""
        v = check_vertex(v, self.num_vertices)
        return self.shard_for(v).out_neighbors(to_local(v, self.n_shards))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    @contextmanager
    def _whole_machine(self):
        """A shard device power-failing inside the block fails the whole machine.

        The device that raised already lost its volatile state
        (``PMemDevice._tick`` crashes before re-raising); any *other*
        shard device still holding dirty or in-flight lines loses them
        here, so recovery always sees a consistent whole-machine outage.
        """
        try:
            yield
        except SimulatedCrash:
            for sh in self.shards:
                dev = sh.pool.device
                if dev.dirty_lines or dev.pending_lines:
                    dev.crash()
            raise

    def insert_vertex(self, v: int) -> None:
        """Ensure global vertices ``0..v`` exist (owner shards grow)."""
        with self._whole_machine():
            for r, sh in enumerate(self.shards):
                lc = local_count(int(v), r, self.n_shards)
                if lc > sh.num_vertices:
                    sh.insert_vertex(lc - 1)

    def insert_edge(self, src: int, dst: int, tombstone: bool = False) -> None:
        """One edge, routed as a one-edge batch: the owner shard takes it
        down its per-edge persist path."""
        self._dispatch(EdgeBatch(np.array([src]), np.array([dst]), np.array([tombstone])))

    def delete_edge(self, src: int, dst: int) -> None:
        self.insert_edge(src, dst, tombstone=True)

    #: store-wide tombstone count and fraction: DGAP's methods are written over ``shards``.
    tombstone_count = DGAP.tombstone_count
    tombstone_density = DGAP.tombstone_density

    def compact(self) -> dict:
        """Tombstone-merge sweep on every shard; returns summed statistics.

        Shard sweeps are independent (nothing persistent is shared), so
        a mid-sweep power failure on one shard device fails the whole
        machine, exactly like a mid-dispatch batch crash.
        """
        totals: dict = {}
        with self._whole_machine():
            for sh in self.shards:
                for k, v in sh.compact().items():
                    totals[k] = totals.get(k, 0) + v
        return totals

    def insert_edges(
        self, edges: EdgeLike, batch_size: Optional[int] = DEFAULT_BATCH_SIZE
    ) -> int:
        """Route and bulk-insert; returns accepted edge count.

        Chunking happens *before* routing (same stream cadence as one
        instance); each chunk grows the owner shards to the chunk's max
        vertex, then dispatches whole per-shard sub-batches in
        ascending shard order down the unmodified batched ingest path.
        """
        batch = EdgeBatch.coerce(edges)
        return sum(self._dispatch(c) for c in sub_batches(batch, batch_size))

    def _dispatch(self, chunk: EdgeBatch) -> int:
        if len(chunk) == 0:
            return 0
        with self._whole_machine():
            mx = chunk.max_vertex()
            if mx >= self.num_vertices:
                self.insert_vertex(mx)
            for r, sub in self.router.split(chunk):
                self.shards[r].insert_edges(sub, batch_size=None, grow_vertices=False)
        return len(chunk)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    #: the store's one view cache: DGAP's property is written over ``shards``.
    view_cache = DGAP.view_cache

    def global_csr(self):
        """Merged global ``((out_indptr, out_dsts), (in_indptr, in_srcs))``.

        Byte-identical to an unsharded build of the same edge stream
        (DESIGN.md §14); incrementally maintained per shard by the
        epoch-versioned view caches.
        """
        return self.view_cache.materialize()

    # ------------------------------------------------------------------
    # diagnostics / lifecycle
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        for r, sh in enumerate(self.shards):
            try:
                sh.check_invariants()
            except GraphError as exc:
                raise GraphError(f"shard {r}: {exc}") from exc

    def shutdown(self) -> None:
        """All-or-nothing: no shard is flagged NORMAL_SHUTDOWN unless every
        shard can be — a half-flagged machine would keep taking writes
        that the flagged shards' normal restart then drops (§3.1.5)."""
        for sh in self.shards:
            sh.require_no_snapshots("shutdown")
        with self._whole_machine():
            for sh in self.shards:
                sh.shutdown()

    @classmethod
    def open(
        cls, pool: ShardPoolGroup, config: Optional[DGAPConfig] = None
    ) -> "ShardedDGAP":
        """Reopen every shard from its pool (normal restart or recovery).

        Shards recover *concurrently on the modeled clock*: each
        shard's replay accrues to its own device, so the modeled
        recovery makespan is the max over per-shard deltas — the
        crash-sweep driver measures exactly that via ``pool.clocks()``.
        """
        config = config or DGAPConfig()
        n = len(pool.pools)
        host = cls.__new__(cls)
        host._assemble(
            [DGAP.open(p, shard_config(config, r, n)) for r, p in enumerate(pool.pools)],
            config,
        )
        return host


__all__ = ["ShardedDGAP", "ShardPoolGroup", "shard_config"]
