"""Sharded multi-pool DGAP: partition algebra, routing, merged views.

The load-bearing contract is *byte identity*: a :class:`ShardedDGAP`
fed an edge stream materializes exactly the CSR (out and in) of the
shadow model fed the same stream — same dtypes, same element order, same
bytes — so every analysis kernel (including order-sensitive float
reductions like PageRank) is oblivious to sharding.  The store machine
holds every store to it after every step of a random history (inserts,
tombstones, growth, power failures, reopens); here one four-shard
stream, and a power failure inside vertex growth.
"""

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.analysis.view import build_in_csr
from repro.datasets import get_dataset
from repro.errors import GraphError
from repro.sharding import (
    ShardedDGAP,
    ShardRouter,
    global_vertex_count,
    local_count,
    local_ids_to_global,
    merge_out_csr,
    shard_config,
    shard_of,
    to_global,
    to_local,
)
from .harness.crashsweep import crash_points
from .harness.model import Model
from .harness.vthreads import VirtualThreadScheduler, run_sharded

from .stores import csr_bytes, make_store, model_csrs, served_csr


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

    def test_a_power_failure_inside_vertex_growth_leaves_a_readable_store(self):
        """``insert_vertex`` grows the shards one after another, so a power
        failure inside it reopens a store whose shards hold uneven vertex
        counts — rows above the agreed prefix, all empty.  At every
        persistence event of a growth that crosses a resize on each shard,
        the reopened store's rows, merged view and served reads are the
        pre-crash model's, and stay so after an in-range write."""
        from repro.serve import QueryServer
        from repro.serve.driver import SnapshotReader, _bytes_equal

        edges = stream(200, nv=64, seed=0)
        n = 3

        def make(inj):
            g = ShardedDGAP(n, DGAPConfig(init_vertices=64, init_edges=1024), injector=inj)
            g.insert_edges(edges)
            return g

        def check(g, model):
            nv = g.num_vertices
            out = model.csr(nv)
            want = [a.tobytes() for a in (*out, *build_in_csr(*out, nv))]
            cache = g.view_cache
            rows = cache.rows()
            assert [ip.size - 1 for ip, _ in rows] == [local_count(nv - 1, r, n) for r in range(n)]
            assert [a.tobytes() for a in merge_out_csr(list(rows), nv, n)] == want[:2]
            assert [a.tobytes() for pair in cache.materialize() for a in pair] == want
            view, direct = QueryServer(g).acquire(), SnapshotReader(g)
            assert [a.tobytes() for a in served_csr(view)] == want[:2]
            for op in (("top_k_degree", 5), ("k_hop", 1, 2), ("neighbors", nv - 1)):
                assert _bytes_equal(getattr(view, op[0])(*op[1:]), getattr(direct, op[0])(*op[1:]))

        uneven = 0
        for k, g, crash in crash_points(make, lambda g: g.insert_vertex(130)):
            g2 = ShardedDGAP.open(g.pool, g.config)
            uneven += any(sh.num_vertices > local_count(g2.num_vertices - 1, r, n)
                          for r, sh in enumerate(g2.shards))
            model = Model(edges)
            check(g2, model)
            g2.insert_edge(g2.num_vertices - 1, 3)
            model.insert(g2.num_vertices - 1, 3)
            check(g2, model)
        assert uneven > 400  # nearly every point: the case is really reached


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
