"""One view cache per store, under interleaved readers (DESIGN.md §7).

A store owns its read entry (``g.view_cache``): an analysis reader, any
number of ``QueryServer`` s and ``global_csr()`` share one
``ShardedViewCache``, so a row patch any of them paid for is every
other reader's reuse — a server reads the patched rows, an analysis
reader adds only the merge.  Each reader keeps only a wrapper around
the cache's current arrays.  Driven on all three stores of the surface
suite.
"""

import numpy as np
import pytest

from repro.analysis.costs import EPOCH_CHECK_NS, merge_ns
from repro.analysis.view import CSRArraysView
from repro.baselines.dgap_system import DGAPSystem
from repro.serve import QueryServer, ServeWorkloadConfig, generate_workload, run_serve_workload
from repro.sharding import ShardedViewCache

from .stores import STORES, make_store, rows_bytes, served_csr
from .test_view_cache import NV, TINY_LOG, layout_op, view_bytes


def analysis_view(g) -> CSRArraysView:
    """What an analysis reader does: wrap the store cache's arrays."""
    (indptr, dsts), inn = g.view_cache.materialize()
    return CSRArraysView(indptr, dsts, derived={"in": inn})


def builds(g):
    """(full rebuilds, rows re-read) of the store's cache, summed over shards."""
    stats = g.view_cache.stats
    return (sum(st.full_rebuilds for st in stats), sum(st.vertices_rebuilt for st in stats))


def loaded(kind):
    g = make_store(kind, **TINY_LOG)
    g.insert_edges(np.random.default_rng(6).integers(0, NV, size=(160, 2)))
    return g


@pytest.mark.parametrize("kind", STORES)
class TestInterleavedReaders:
    def test_a_build_one_reader_paid_for_is_the_other_readers_reuse(self, kind):
        g = loaded(kind)
        server = QueryServer(g)

        # analysis builds; the server's first acquire finds the arrays there
        first = analysis_view(g)
        built = builds(g)
        assert built[0] == g.n_shards and not g.view_cache.last.reused
        held = server.acquire()
        assert server.last_acquire_ns == EPOCH_CHECK_NS
        assert (server.refreshes, server.reuses, server.rows_reread) == (0, 1, 0)
        assert server.refresh_ns_total == 0.0
        assert builds(g) == built  # no second build
        assert held.rows is g.view_cache.rows()  # the rows analysis patched
        assert view_bytes([served_csr(held)]) == view_bytes([first.out_csr()])
        pinned = rows_bytes(held)

        # a write, then analysis again: the patch is analysis's, and the
        # server wraps the new rows for the price of the epoch check
        g.insert_edges([[3, 7], [3, 9], [NV + 2, 3]])
        second = analysis_view(g)
        patched = builds(g)
        assert patched[0] == built[0] and patched[1] > built[1]
        fresh = server.acquire()
        assert fresh is not held and fresh.rows is g.view_cache.rows()
        assert view_bytes([served_csr(fresh)]) == view_bytes([second.out_csr()])
        assert server.last_acquire_ns == EPOCH_CHECK_NS
        assert (server.refreshes, server.reuses, server.rows_reread) == (0, 2, 0)
        assert builds(g) == patched
        assert server.acquire() is fresh
        assert list(fresh.neighbors(3))[-2:] == [7, 9]

        # the view held from before the write keeps its epoch's bytes, frozen
        assert rows_bytes(held) == pinned != rows_bytes(fresh)
        for arr in (a for view in (held, fresh) for pair in view.rows for a in pair):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held.neighbors(3).sort()

        # the server pays when it is first: its counters are its own builds
        g.insert_edge(5, 1)
        before = builds(g)
        own = server.acquire()
        assert own is not fresh and server.last_acquire_ns > EPOCH_CHECK_NS
        assert (server.refreshes, server.reuses) == (1, 3)
        assert server.rows_reread == builds(g)[1] - before[1] == 1
        assert server.refresh_ns_total == server.last_acquire_ns
        patched = builds(g)
        third = analysis_view(g)  # and analysis reuses the rows the server patched:
        last = g.view_cache.last  # it pays the merge alone, and reads no row
        assert (last.reused, last.modeled_ns) == (False, merge_ns(third.num_edges, g.n_shards))
        assert builds(g) == patched
        assert view_bytes([third.out_csr()]) == view_bytes([served_csr(own)])

    @pytest.mark.parametrize("op", [("window", 1), ("merge", 2), ("resize", 0), ("compact",)])
    def test_a_layout_only_move_returns_the_same_served_view(self, kind, op):
        g = loaded(kind)
        g.delete_edge(*map(int, np.random.default_rng(6).integers(0, NV, size=(160, 2))[0]))
        server = QueryServer(g)
        held = server.acquire()
        epochs = [sh.structure_epoch for sh in g.shards]
        layout_op(g, op)
        assert [sh.structure_epoch for sh in g.shards] != epochs
        assert server.acquire() is held
        assert server.last_acquire_ns == EPOCH_CHECK_NS
        assert (server.refreshes, server.reuses) == (1, 1)

    def test_every_reader_of_a_store_shares_its_one_cache(self, kind):
        g = loaded(kind)
        a, b = QueryServer(g), QueryServer(g)
        assert a._cache is b._cache is g.view_cache
        assert isinstance(g.view_cache, ShardedViewCache)
        for step in range(4):
            g.insert_edges(np.random.default_rng(step).integers(0, NV + 4, size=(9, 2)))
            first, second = (a, b) if step % 2 else (b, a)
            va, vb = first.acquire(), second.acquire()
            assert va.rows is vb.rows  # one set of rows, two wrappers
            merged = g.view_cache.materialize()
            assert view_bytes(merged[:1]) == view_bytes([served_csr(va)])
            if kind != "dgap":
                assert g.global_csr() is merged
        # each build had exactly one payer
        assert a.refreshes + b.refreshes == 4 and a.reuses + b.reuses == 4
        full = sum(st.full_rebuilds for st in g.view_cache.stats)
        assert full == g.n_shards  # the first build, once per shard, whoever asked
        # an outside caller may still build its own; stamps keep it right
        own = ShardedViewCache(g)
        assert own is not g.view_cache
        assert view_bytes(own.materialize()) == view_bytes(g.view_cache.materialize())

    @pytest.mark.parametrize("crash", [True, False])
    def test_a_reopened_store_starts_with_an_empty_cache(self, kind, crash):
        g = loaded(kind)
        before = view_bytes(g.view_cache.materialize())
        old = g.view_cache
        g.pool.crash() if crash else g.shutdown()
        g2 = type(g).open(g.pool, g.config)
        assert g2._views is None  # nothing is built until a reader asks
        cache = g2.view_cache
        assert cache is not old and cache.last is None and cache.rows_read == 0
        assert [st.as_dict() for st in cache.stats] == [type(st)().as_dict() for st in cache.stats]
        assert view_bytes(cache.materialize()) == before
        assert sum(st.full_rebuilds for st in cache.stats) == g2.n_shards


@pytest.mark.parametrize("kind", ["dgap", "sharded3"])
def test_serving_builds_no_in_csr_and_no_merge(kind):
    """A serve workload patches rows only; the analysis view that follows
    pays one in-CSR catch-up per shard, however many patches it lagged,
    and one merge."""
    g = loaded(kind)
    cfg = ServeWorkloadConfig(n_ops=200, seed=3, n_clients=2)
    report = run_serve_workload(g, generate_workload(NV, cfg), cfg, twin_check=True)
    assert report.identity_ok and report.refreshes > 2
    cache = g.view_cache
    assert (cache.merges, [st.in_catchups for st in cache.stats]) == (0, [0] * g.n_shards)
    view = analysis_view(g)
    assert (cache.merges, [st.in_catchups for st in cache.stats]) == (1, [1] * g.n_shards)
    assert view_bytes([view.out_csr(), view.in_csr()]) == view_bytes(ShardedViewCache(g).materialize())


def test_the_analysis_adapter_and_a_server_share_the_stores_cache():
    """``DGAPSystem`` holds no cache of its own: its view and a server's
    wrap the same arrays, and the view counters are the store cache's."""
    system = DGAPSystem(NV, 1024)
    assert not hasattr(system, "csr_cache")
    system.insert_edges(np.random.default_rng(3).integers(0, NV, size=(200, 2)))
    server = QueryServer(system.graph)
    view = system.analysis_view()
    served = server.acquire()
    # one shard: the analysis out-CSR *is* the served rows, not a copy
    assert served.rows[0][0] is view.out_csr()[0] and server.refreshes == 0
    c0 = system.view_counters()
    assert (c0["full_rebuilds"], c0["view_builds"]) == (1, 1)
    system.insert_edges(np.array([[2, 5]]))
    served = server.acquire()  # the server patches ...
    assert server.refreshes == 1 and server.rows_reread == 1
    view = system.analysis_view()  # ... and the adapter wraps what it built,
    assert view.out_csr()[0] is served.rows[0][0]  # its in-CSR caught up, unpriced
    assert system.graph.view_cache.last.modeled_ns == 0.0
    c1 = system.view_counters()
    assert c1["vertices_rebuilt"] - c0["vertices_rebuilt"] == 1
    assert c1["in_catchups"] - c0["in_catchups"] == 1
    assert c1["view_builds"] == 2 and c1["full_rebuilds"] == 1
