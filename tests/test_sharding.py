"""Sharded multi-pool DGAP: partition algebra, routing, merged views.

The load-bearing contract is *byte identity*: a :class:`ShardedDGAP`
fed an edge stream materializes exactly the CSR (out and in) of the
shadow model fed the same stream — same dtypes, same element order, same
bytes — so every analysis kernel (including order-sensitive float
reductions like PageRank) is oblivious to sharding.  The store machine
holds every store to it after every step of a random history (inserts,
tombstones, growth, power failures inside any of them, reopens); here
one four-shard stream.
"""

import dataclasses

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.core.batch import DEFAULT_BATCH_SIZE, EdgeBatch
from repro.datasets import get_dataset
from repro.errors import GraphError
from repro.obs import Tracer, tracing
from repro.sharding import (
    ShardedDGAP,
    ShardRouter,
    global_vertex_count,
    local_count,
    local_ids_to_global,
    shard_config,
    shard_of,
    to_global,
    to_local,
)
from .harness.model import Model
from .harness.vthreads import VirtualThreadScheduler, run_sharded

from .stores import csr_bytes, make_store, model_csrs


def stream(n_edges=4000, nv=600, seed=11):
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.integers(0, nv, size=n_edges),
        rng.integers(0, nv, size=n_edges),
    ]).astype(np.int64)


class TestPartition:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_bijective_over_prefix(self, n):
        g = np.arange(5000)
        r = shard_of(g, n)
        l = to_local(g, n)
        assert ((r >= 0) & (r < n)).all()
        # one id — a Python int (a served point read) or a NumPy scalar —
        # lands where its array lane does
        assert [shard_of(v, n) for v in range(0, 5000, 7)] == r[::7].tolist()
        assert [shard_of(v, n) for v in g[::7]] == r[::7].tolist()
        np.testing.assert_array_equal(to_global(l, r, n), g)
        # distinct (shard, local) pairs — a bijection onto 0..4999
        assert len(set(zip(r.tolist(), l.tolist()))) == g.size

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("mg", [0, 1, 6, 7, 8, 100, 1023])
    def test_local_count_partitions_prefix(self, n, mg):
        counts = [local_count(mg, r, n) for r in range(n)]
        assert sum(counts) == mg + 1
        # counts match enumeration
        r_all = shard_of(np.arange(mg + 1), n)
        for r in range(n):
            assert counts[r] == int((r_all == r).sum())
        assert global_vertex_count(counts) == mg + 1

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_local_ids_to_global_ascends_and_inverts(self, n):
        gids = local_ids_to_global(1000, 3 % n, n)
        assert (np.diff(gids) > 0).all()
        np.testing.assert_array_equal(to_local(gids, n), np.arange(1000))
        np.testing.assert_array_equal(shard_of(gids, n), 3 % n)

    def test_hub_ids_spread_across_shards(self):
        # RMAT hubs concentrate at ids divisible by large powers of two;
        # the block-mixed partition must not map them all to shard 0.
        hubs = np.arange(64) * 1024
        assert len(set(shard_of(hubs, 4).tolist())) == 4


class TestRouterAndConfig:
    def test_router_rejects_zero_shards(self):
        with pytest.raises(GraphError):
            ShardRouter(0)

    def test_shard_config_splits_initial_vertices_exactly(self):
        cfg = DGAPConfig(init_vertices=10, init_edges=1024)
        lcs = [shard_config(cfg, r, 3).init_vertices for r in range(3)]
        assert sum(lcs) == 10

    def test_shard_config_rejects_empty_shard(self):
        with pytest.raises(GraphError):
            shard_config(DGAPConfig(init_vertices=2, init_edges=64), 2, 4)

    def test_sharded_rejects_fewer_vertices_than_shards(self):
        with pytest.raises(GraphError):
            ShardedDGAP(4, DGAPConfig(init_vertices=2, init_edges=64))


class TestShardedFacade:
    def make(self, nv=600, n=4, init_edges=16384):
        return ShardedDGAP(n, DGAPConfig(init_vertices=nv, init_edges=init_edges))

    def test_vertex_and_edge_counts(self):
        sh = self.make(nv=600)
        assert sh.num_vertices == 600
        assert sh.num_edges == 0
        sh.insert_edges(stream(1000, nv=600))
        assert sh.num_edges == 1000

    def test_insert_vertex_grows_every_owner(self):
        sh = self.make(nv=10, n=3)
        sh.insert_vertex(99)
        assert sh.num_vertices == 100
        assert sum(s.num_vertices for s in sh.shards) == 100

    def test_scalar_insert_and_neighbors(self):
        sh = self.make(nv=50)
        sh.insert_edge(7, 30)
        sh.insert_edge(7, 12)
        sh.insert_edge(8, 7)
        assert sh.out_degree(7) == 2
        np.testing.assert_array_equal(np.sort(sh.out_neighbors(7)), [12, 30])
        assert sh.out_degree(0) == 0

    def test_delete_edge_tombstones(self):
        sh = self.make(nv=50)
        sh.insert_edge(3, 9)
        sh.insert_edge(3, 11)
        sh.delete_edge(3, 9)
        np.testing.assert_array_equal(sh.out_neighbors(3), [11])

    def test_group_stats_parallel_clock(self):
        sh = self.make(nv=600)
        before, clocks0 = sh.pool.stats.snapshot(), sh.pool.clocks()
        per0 = [p.stats.snapshot() for p in sh.pool.pools]
        sh.insert_edges(stream(2000, nv=600))
        d = sh.pool.stats.delta_since(before)
        per = [p.stats.delta_since(b) for p, b in zip(sh.pool.pools, per0)]
        # work sums (a real PMemStats, every counter); elapsed is the max
        # over per-pool deltas and lives in pool.clocks()
        assert type(d) is type(per[0])
        assert d.media_bytes == sum(x.media_bytes for x in per)
        assert d.modeled_ns == pytest.approx(sum(x.modeled_ns for x in per))
        elapsed = float((sh.pool.clocks() - clocks0).max())
        assert elapsed == max(x.modeled_ns for x in per) < d.modeled_ns

    def test_check_invariants_runs_per_shard(self):
        sh = self.make(nv=600)
        sh.insert_edges(stream(1500, nv=600))
        sh.check_invariants()


class TestMergedViewIdentity:
    @pytest.mark.parametrize("n", [4])
    def test_byte_identity_uniform_stream(self, n):
        edges = stream(4000, nv=600)
        sh = ShardedDGAP(n, DGAPConfig(init_vertices=600, init_edges=16384))
        sh.insert_edges(edges)
        assert csr_bytes(sh.global_csr()) == csr_bytes(model_csrs(Model(edges), 600))


def mixed_call(n_edges=3000, nv=200, seed=5):
    """One call of ``n_edges`` inserts over ids ``0..nv-1`` followed by
    tombstones of a tenth of them, in shuffled order."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, nv, size=(2, n_edges))
    dead = rng.permutation(n_edges)[: n_edges // 10]
    return EdgeBatch(
        np.concatenate([src, src[dead]]),
        np.concatenate([dst, dst[dead]]),
        np.arange(n_edges + dead.size) >= n_edges,
    )


class TestRoutedOnce:
    """A call is routed once and each shard ingests its whole share in
    its own rounds of at most ``batch_size`` edges (DESIGN.md §14)."""

    CFG = DGAPConfig(init_vertices=64, init_edges=2048)

    def test_each_shard_runs_its_own_rounds(self):
        edges = stream(4096, nv=600)
        sh = ShardedDGAP(4, DGAPConfig(init_vertices=600, init_edges=16384))
        tracer = Tracer(sh.pool.stats)
        with tracing(tracer):
            sh.insert_edges(edges)
        shares = np.bincount(shard_of(edges[:, 0], 4), minlength=4)
        rounds = [sum(s.name == "batch_round" for _, s in root.walk()) for root in tracer.roots]
        assert rounds == [-(-int(k) // DEFAULT_BATCH_SIZE) for k in shares]

    def test_each_shard_is_a_store_fed_its_share(self):
        batch = mixed_call()
        sh = ShardedDGAP(4, self.CFG)
        sh.insert_edges(batch)
        keys, top = shard_of(batch.src, 4), batch.max_vertex()
        for r, part in enumerate(sh.shards):
            twin = DGAP(shard_config(self.CFG, r, 4))
            twin.insert_vertex(local_count(top, r, 4) - 1)
            mine = np.flatnonzero(keys == r)
            twin.insert_edges(
                EdgeBatch(to_local(batch.src[mine], 4), batch.dst[mine], batch.tombstone[mine]),
                grow_vertices=False,
            )
            assert np.array_equal(part.pool.device.media, twin.pool.device.media), r
            assert dataclasses.asdict(part.pool.stats) == dataclasses.asdict(twin.pool.stats), r

    def test_merged_view_equals_one_store_fed_the_call(self):
        batch = mixed_call()
        sh, one = ShardedDGAP(4, self.CFG), DGAP(self.CFG)
        sh.insert_edges(batch)
        one.insert_edges(batch)
        assert csr_bytes(sh.global_csr()) == csr_bytes(one.view_cache.materialize())


class TestFourPoolsAreFourLanes:
    def test_ingest_and_recovery_beat_one_pool_and_the_split_is_balanced(self):
        """On the modeled clock, over the ``scale`` notch (measured at 0.05:
        ingest 4.25x, recovery 3.50x, largest shard 0.292 of the edges —
        a plain residue partition would put about half of R-MAT's edges
        in shard 0)."""
        spec = get_dataset("scale")
        edges = spec.generate(0.05)
        nv, _ = spec.sizes(0.05)
        ingest_ns, recovery_ns = [], []
        for kind in ("dgap", "sharded4"):
            g = make_store(kind, init_vertices=nv, init_edges=len(edges))
            before = g.pool.clocks()
            g.insert_edges(edges)
            ingest_ns.append(float((g.pool.clocks() - before).max()))
            shares = [sh.num_edges / g.num_edges for sh in g.shards]
            g.pool.crash()
            before = g.pool.clocks()
            type(g).open(g.pool, g.config)
            recovery_ns.append(float((g.pool.clocks() - before).max()))
        assert ingest_ns[0] >= 2.0 * ingest_ns[1]
        assert recovery_ns[0] >= 1.5 * recovery_ns[1]
        assert max(shares) <= 0.35


class TestShardedVThreads:
    def test_run_sharded_beats_single_instance(self):
        spec = get_dataset("citpatents")
        edges = spec.generate(0.05)
        nv, _ = spec.sizes(0.05)
        pairs = [tuple(e) for e in edges.tolist()]

        single = DGAP(DGAPConfig(init_vertices=nv, init_edges=len(edges)))
        base = VirtualThreadScheduler(single, 16).run(pairs)

        sh = ShardedDGAP(4, DGAPConfig(init_vertices=nv, init_edges=len(edges)))
        res = run_sharded(sh, edges, 16)
        assert len(res.per_shard) == 4
        assert res.makespan_s == max(r.makespan_s for r in res.per_shard)
        # 4 independent media lanes: comfortably faster than one pool
        # (hub-section serial chains keep it below the ideal 4x)
        assert base.makespan_s / res.makespan_s > 1.4

    def test_run_sharded_matches_batched_contents(self):
        edges = stream(1200, nv=300, seed=13)
        sh = ShardedDGAP(3, DGAPConfig(init_vertices=300, init_edges=16384))
        run_sharded(sh, edges, 8)
        assert csr_bytes(sh.global_csr()) == csr_bytes(model_csrs(Model(edges), 300))
