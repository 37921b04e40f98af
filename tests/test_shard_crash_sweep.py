"""Crash sweeps over the sharded multi-pool graph.

What changes versus the single-pool sweeps of ``test_crash_sweep.py``:

* one :class:`CrashInjector` spans every shard device, so the sweep's
  crash-point coordinate enumerates a single machine-wide ordering of
  persistence events across all pools;
* a crash raised by one shard device power-fails the rest (the facade's
  whole-machine outage), so recovery always opens from a consistent
  multi-pool crash image;
* ``("batch", EdgeBatch)`` ops land crashes *between* the per-shard
  dispatches of one routed batch — the oracle accepts any per-vertex
  prefix of the in-flight batch (each vertex lives in exactly one
  shard, and the batched path preserves per-vertex stream order);
* modeled recovery time is the max over per-shard replay deltas
  (parallel recovery), read from ``pool.clocks()``.
"""

import numpy as np
import pytest

from repro import DGAPConfig
from repro.pmem.faults import DEFAULT_POLICY, TORN_STORES, FaultPolicy
from repro.sharding import ShardedDGAP
from repro.testing import (
    SweepConfig,
    crash_sweep,
    make_batched_insert_workload,
    make_insert_workload,
)

CFG = dict(init_vertices=9, init_edges=256, segment_slots=64, elog_size=96)


def make_sharded(n):
    def factory(injector, faults):
        return ShardedDGAP(n, DGAPConfig(**CFG), injector=injector, faults=faults)

    return factory


def scalar_workload():
    """Inserts spread over every shard, plus deletes; forces log appends
    and at least one rebalance in the hottest shard."""
    ops = [("insert", d % 9, (d * 5) % 9) for d in range(60)]
    ops += [("insert", 0, d % 9) for d in range(30)]
    ops += [("delete", 0, 2), ("delete", 1, 5 % 9)]
    return ops


class TestShardedScalarSweep:
    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, TORN_STORES],
                             ids=["default", "torn"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_sweep_passes_oracle(self, n, policy):
        rep = crash_sweep(
            make_sharded(n),
            scalar_workload(),
            SweepConfig(faults=policy, exhaustive_threshold=100,
                        samples=120, idempotence_samples=3, seed=3),
        )
        assert rep.crash_points > 80
        assert rep.unrecoverable_count() == 0
        assert rep.in_flight_applied_count() > 0

    def test_sweep_is_deterministic(self):
        cfg = SweepConfig(exhaustive_threshold=0, samples=40,
                          idempotence_samples=2, seed=5)
        a = crash_sweep(make_sharded(3), scalar_workload(), cfg)
        b = crash_sweep(make_sharded(3), scalar_workload(), cfg)
        assert [(r.total_index, r.acked, r.in_flight_applied, r.recovery_ns)
                for r in a.results] == \
               [(r.total_index, r.acked, r.in_flight_applied, r.recovery_ns)
                for r in b.results]


class TestShardedBatchedSweep:
    def test_mid_dispatch_crashes_keep_prefix_consistency(self):
        # batch_size 8 over 3 shards: most batches split across several
        # shards, so sampled crash points land between the per-shard
        # dispatches of one routed batch — the tentpole's oracle case.
        rng = np.random.default_rng(2)
        edges = np.column_stack([
            rng.integers(0, 9, size=72), rng.integers(0, 9, size=72),
        ])
        rep = crash_sweep(
            make_sharded(3),
            make_batched_insert_workload(edges, batch_size=8),
            SweepConfig(exhaustive_threshold=100, samples=120,
                        idempotence_samples=3, seed=9),
        )
        assert rep.unrecoverable_count() == 0
        # partially-applied batches must actually occur for the oracle
        # run to mean anything
        assert rep.in_flight_applied_count() > 0

    def test_batched_rejects_tombstones(self):
        edges = np.array([[0, 1]])
        ops = make_batched_insert_workload(edges, batch_size=4)
        assert len(ops) == 1
        from repro.core.batch import EdgeBatch

        with pytest.raises(ValueError):
            make_batched_insert_workload(
                EdgeBatch(np.array([0]), np.array([1]), np.array([True]))
            )


class TestParallelRecoveryClock:
    def test_pool_clocks_shape(self):
        sh = ShardedDGAP(3, DGAPConfig(**CFG))
        clocks = sh.pool.clocks()
        assert clocks.shape == (3,)
        single = make_sharded(1)(None, None)
        assert single.pool.clocks().shape == (1,)
        assert single.shards[0].pool.clocks().shape == (1,)  # a plain PMemPool

    def test_recovery_ns_is_max_over_shards_not_sum(self):
        sh = ShardedDGAP(3, DGAPConfig(**CFG))
        for kind, u, w in scalar_workload():
            (sh.insert_edge if kind == "insert" else sh.delete_edge)(u, w)
        sh.pool.crash()
        before, work0 = sh.pool.clocks(), sh.pool.stats.snapshot()
        ShardedDGAP.open(sh.pool, sh.config)
        deltas = sh.pool.clocks() - before
        assert (deltas > 0).all()  # every shard actually replayed
        makespan = float(deltas.max())
        assert makespan < float(deltas.sum())
        # the group stats are device *work*: the sum, never the makespan
        assert sh.pool.stats.delta_since(work0).modeled_ns == pytest.approx(deltas.sum())
