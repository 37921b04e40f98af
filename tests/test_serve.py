"""Online serving layer: isolation, byte-identity, caching, error parity.

Four contracts (DESIGN.md §15):

* **Snapshot isolation** — a held :class:`~repro.serve.server.ServeView`
  never observes writes committed after its acquisition; a re-acquired
  view observes all of them (hypothesis interleavings, unsharded and
  sharded).
* **Byte-identity** — every served read equals a direct fresh-snapshot
  read of the same stream point, byte for byte (the twin runner).
* **Point-read caching** — ``DGAP.out_neighbors`` (and the server's
  ``acquire``) take a fresh snapshot only when the structure epoch
  moved; a read burst between writes pays one snapshot.
* **Error parity** — out-of-range point queries raise the same
  exception type with the same global-id message on ``DGAP`` and
  ``ShardedDGAP``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.analysis.view import ID_DTYPE
from repro.errors import VertexRangeError
from repro.serve import (
    EPOCH_CHECK_NS,
    QueryServer,
    ServeWorkloadConfig,
    ZipfianSampler,
    generate_workload,
    run_serve_workload,
)
from repro.serve.driver import SnapshotReader, _bytes_equal
from repro.sharding import ShardedDGAP

from .test_store_surface import rows_bytes, served_csr

common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

NV = 24
SMALL = dict(init_vertices=NV, init_edges=256, segment_slots=64)


def small_graph(**overrides) -> DGAP:
    return DGAP(DGAPConfig(**{**SMALL, **overrides}))


def small_sharded(n=3, **overrides) -> ShardedDGAP:
    return ShardedDGAP(n, DGAPConfig(**{**SMALL, **overrides}))


def preload(g, n_edges=60, seed=3):
    rng = np.random.default_rng(seed)
    g.insert_edges(rng.integers(0, NV, size=(n_edges, 2)))


edge_lists = st.lists(
    st.tuples(st.integers(0, NV - 1), st.integers(0, NV - 1)),
    min_size=1,
    max_size=40,
)


# ---------------------------------------------------------------------------
# satellite: point reads on the store (``out_neighbors``)
# ---------------------------------------------------------------------------

class TestPointViewCache:
    def test_point_read_opens_one_row_and_holds_nothing(self):
        """``out_neighbors`` reads through a snapshot of that one row and
        releases it: no graph-owned snapshot is left for a write, a sweep
        or a shutdown to special-case."""
        g = small_graph()
        preload(g)
        scopes = []
        orig = g.consistent_view

        def spied(rows=None):
            scopes.append(None if rows is None else rows.tolist())
            return orig(rows)

        g.consistent_view = spied
        with orig() as snap:
            want = {v: snap.out_neighbors(v).tolist() for v in range(NV)}
        for v in range(NV):
            assert g.out_neighbors(v).tolist() == want[v]
            assert g._active_snapshots == 0
        assert scopes == [[v] for v in range(NV)]
        g.insert_edge(1, 5)  # a write is visible to the next read
        assert g.out_neighbors(1).tolist() == want[1] + [5]
        g.delete_edge(1, 5)
        g.compact()  # refuses while any snapshot is held
        assert g.out_neighbors(1).tolist() == want[1]
        g.shutdown()  # likewise

    def test_out_neighbors_checks_range(self):
        g = small_graph()
        with pytest.raises(VertexRangeError):
            g.out_neighbors(-1)
        with pytest.raises(VertexRangeError):
            g.out_neighbors(NV)
        g.shutdown()


# ---------------------------------------------------------------------------
# satellite: out-of-range error parity, unsharded vs sharded
# ---------------------------------------------------------------------------

class TestErrorParity:
    @pytest.mark.parametrize("bad", [-1, NV, NV + 7])
    def test_same_exception_and_message(self, bad):
        g = small_graph()
        s = small_sharded()
        messages = {}
        for name, host in (("dgap", g), ("sharded", s)):
            for query in (host.out_degree, host.out_neighbors):
                with pytest.raises(VertexRangeError) as exc:
                    query(bad)
                messages.setdefault(name, set()).add(str(exc.value))
        assert messages["dgap"] == messages["sharded"]
        (msg,) = messages["dgap"]
        assert f"vertex {bad} " in msg and f"[0, {NV})" in msg
        g.shutdown()
        s.shutdown()

    def test_serve_view_matches(self):
        g = small_graph()
        preload(g)
        view = QueryServer(g).acquire()
        with pytest.raises(VertexRangeError) as served:
            view.neighbors(NV)
        with pytest.raises(VertexRangeError) as direct:
            g.out_neighbors(NV)
        assert str(served.value) == str(direct.value)
        g.shutdown()


# ---------------------------------------------------------------------------
# satellite: snapshot isolation under interleaved writes
# ---------------------------------------------------------------------------

def _fresh_out_csr(graph):
    """Out-CSR straight from fresh snapshots (the trusted read path)."""
    if hasattr(graph, "global_csr"):
        return graph.global_csr()[0]
    with graph.consistent_view() as snap:
        indptr, dsts = snap.to_csr()
    return np.asarray(indptr), np.asarray(dsts)


def _run_isolation(graph, rounds, deletions):
    server = QueryServer(graph)
    v1 = server.acquire()
    pinned = rows_bytes(v1)
    total_before = int(served_csr(v1)[0][-1])

    live = []
    wrote = 0
    for edges in rounds:
        batch = np.asarray(edges, dtype=np.int64)
        graph.insert_edges(batch)
        live.extend(map(tuple, edges))
        wrote += len(edges)
        # deletes target edges this stream inserted, so they always
        # cancel a live occurrence
        for idx in deletions:
            if live:
                s, d = live.pop(idx % len(live))
                graph.delete_edge(s, d)
        deletions = deletions[len(deletions) // 2 :]

    # the held view is frozen at its epoch: same bytes, same totals
    assert rows_bytes(v1) == pinned
    assert int(served_csr(v1)[0][-1]) == total_before

    # a re-acquired view observes every committed write
    v2 = server.acquire()
    assert wrote and v2.epoch != v1.epoch
    ref_ip, ref_ds = _fresh_out_csr(graph)
    got_ip, got_ds = served_csr(v2)
    assert got_ip.tobytes() == np.asarray(ref_ip).tobytes()
    assert got_ds.tobytes() == np.asarray(ref_ds).tobytes()
    # net live count: preloaded edges plus the stream's surviving inserts
    assert int(got_ip[-1]) == len(live) + total_before


@common
@given(
    rounds=st.lists(edge_lists, min_size=1, max_size=4),
    deletions=st.lists(st.integers(0, 10_000), max_size=10),
)
def test_snapshot_isolation_unsharded(rounds, deletions):
    g = small_graph()
    preload(g)
    try:
        _run_isolation(g, rounds, deletions)
    finally:
        g.shutdown()


@common
@given(
    rounds=st.lists(edge_lists, min_size=1, max_size=4),
    deletions=st.lists(st.integers(0, 10_000), max_size=10),
)
def test_snapshot_isolation_sharded(rounds, deletions):
    s = small_sharded()
    preload(s)
    _run_isolation(s, rounds, deletions)


# ---------------------------------------------------------------------------
# tentpole: workload generator
# ---------------------------------------------------------------------------

class TestWorkload:
    def test_deterministic(self):
        cfg = ServeWorkloadConfig(n_ops=300, seed=11)
        a = generate_workload(50, cfg)
        b = generate_workload(50, cfg)
        assert len(a) == len(b) == 300
        for x, y in zip(a, b):
            assert x[0] == y[0]
            if x[0] == "write":
                assert x[1].src.tobytes() == y[1].src.tobytes()
                assert x[1].dst.tobytes() == y[1].dst.tobytes()
                assert x[1].tombstone.tobytes() == y[1].tombstone.tobytes()
            else:
                assert x == y

    def test_zipf_skew_and_bounds(self):
        rng = np.random.default_rng(0)
        z = ZipfianSampler(1000, 0.99, rng)
        draws = z.sample(rng, 20_000)
        assert draws.min() >= 0 and draws.max() < 1000
        counts = np.bincount(draws, minlength=1000)
        # the hottest key dwarfs the median under theta=0.99 skew
        assert counts.max() > 20 * max(np.median(counts), 1)

    def test_deletes_only_live_edges(self):
        cfg = ServeWorkloadConfig(n_ops=400, read_fraction=0.5, seed=2)
        ops = generate_workload(40, cfg)
        live = {}
        saw_delete = False
        for op in ops:
            if op[0] != "write":
                continue
            batch = op[1]
            for s, d, t in zip(batch.src, batch.dst, batch.tombstone):
                key = (int(s), int(d))
                if t:
                    saw_delete = True
                    assert live.get(key, 0) > 0, "tombstone for a dead edge"
                    live[key] -= 1
                else:
                    live[key] = live.get(key, 0) + 1
        assert saw_delete

    def test_read_mix_covers_all_classes(self):
        ops = generate_workload(60, ServeWorkloadConfig(n_ops=800, seed=4))
        kinds = {op[0] for op in ops}
        assert kinds == {
            "degree", "neighbors", "edge_exists", "k_hop", "top_k_degree", "write",
        }


# ---------------------------------------------------------------------------
# tentpole: served reads are byte-identical to fresh snapshot reads
# ---------------------------------------------------------------------------

def _twin(graph, nv, mode="closed"):
    cfg = ServeWorkloadConfig(n_ops=250, seed=5, n_clients=4, mode=mode)
    preload(graph, n_edges=80)
    report = run_serve_workload(graph, generate_workload(nv, cfg), cfg, twin_check=True)
    return report


@pytest.mark.parametrize("n_shards", [1, 4])
def test_a_served_stream_keeps_its_top_lists_without_a_refill(n_shards):
    """Every shard's list has a floor (more rows than it lists) and the
    stream's writes move only a few rows per epoch: every top-k read is a
    listed merge equal to a fresh snapshot's, and no list is ever re-ranked
    after its first build — on a DGAP and on four shards."""
    nv = 96 * n_shards
    cfg = DGAPConfig(init_vertices=nv, init_edges=8192)
    g = DGAP(cfg) if n_shards == 1 else ShardedDGAP(n_shards, cfg)
    g.insert_edges(np.random.default_rng(3).integers(0, nv, size=(4 * nv, 2)))
    wl = ServeWorkloadConfig(n_ops=800, seed=5, n_clients=2)
    report = run_serve_workload(g, generate_workload(nv, wl), wl, twin_check=True)
    assert report.identity_ok and report.mismatches == 0 and report.refreshes > 2
    assert len(report.latencies["top_k_degree"]) > 10
    assert [st.top_refills for st in g.view_cache.stats] == [0] * n_shards
    assert [st.full_rebuilds for st in g.view_cache.stats] == [1] * n_shards


class TestTwinIdentity:
    def test_unsharded(self):
        g = small_graph()
        report = _twin(g, NV)
        assert report.identity_checked and report.identity_ok
        assert report.reads and report.writes
        assert report.refreshes + report.reuses == report.reads
        g.shutdown()

    def test_sharded(self):
        s = small_sharded()
        report = _twin(s, NV)
        assert report.identity_ok
        assert report.refreshes + report.reuses == report.reads

    def test_open_loop(self):
        g = small_graph()
        report = _twin(g, NV, mode="open")
        assert report.identity_ok
        assert report.mode == "open"
        assert report.makespan_ns > 0
        g.shutdown()

    def test_stats_report_p99(self):
        g = small_graph()
        report = _twin(g, NV)
        stats = report.stats()
        assert stats, "no latency classes recorded"
        for cls, dist in stats.items():
            assert "p50_us" in dist and "p99_us" in dist, cls
        assert "write" in stats
        g.shutdown()

    def test_mismatch_detection(self):
        """The twin comparator must actually be able to fail."""
        assert not _bytes_equal(
            np.array([1, 2], dtype=np.int32), np.array([1, 2], dtype=np.int64)
        )
        assert not _bytes_equal((1, 2), (1, 3))
        assert _bytes_equal(np.array([3], dtype=ID_DTYPE), np.array([3], dtype=ID_DTYPE))


# ---------------------------------------------------------------------------
# tentpole: view reuse and query surface details
# ---------------------------------------------------------------------------

class TestQueryServer:
    def test_reuse_without_writes(self):
        g = small_graph()
        preload(g)
        server = QueryServer(g)
        views = {id(server.acquire()) for _ in range(10)}
        assert len(views) == 1
        assert server.refreshes == 1 and server.reuses == 9
        g.shutdown()

    def test_refresh_only_on_epoch_move(self):
        g = small_graph()
        preload(g)
        server = QueryServer(g)
        v1 = server.acquire()
        g.insert_edge(0, 1)
        v2 = server.acquire()
        v3 = server.acquire()
        assert v1 is not v2 and v2 is v3
        assert server.refreshes == 2 and server.reuses == 1
        g.shutdown()

    @pytest.mark.parametrize("make", [small_graph, small_sharded])
    def test_a_layout_only_epoch_move_is_not_a_refresh(self, make):
        """A rebalance window, resize or compaction with no write between
        moves the epoch and no row: the held view comes back, counted and
        priced as the reuse it is."""
        g = make()
        preload(g)
        g.delete_edge(*next((s, int(g.out_neighbors(s)[0])) for s in range(NV) if g.out_degree(s)))
        server = QueryServer(g)
        v1 = server.acquire()
        for layout in (
            lambda sh: sh.rebalancer.rebalance_window(*sh.ea.tree.window_at(0, 1), 1),
            lambda sh: sh.rebalancer.resize(),
            lambda sh: sh.compact(),
        ):
            epochs = [sh.structure_epoch for sh in g.shards]
            for sh in g.shards:
                layout(sh)
            assert all(sh.structure_epoch > e for sh, e in zip(g.shards, epochs))
            assert server.acquire() is v1
            assert server.last_acquire_ns == EPOCH_CHECK_NS
        assert (server.refreshes, server.reuses) == (1, 3)
        g.insert_edge(0, 1)
        assert server.acquire() is not v1 and server.refreshes == 2
        g.shutdown()

    def test_k_hop_levels(self):
        g = small_graph()
        # path 0 -> 1 -> 2 -> 3 plus a cycle edge back to 0
        for s, d in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            g.insert_edge(s, d)
        view = QueryServer(g).acquire()
        np.testing.assert_array_equal(view.k_hop(0, 1), [1])
        np.testing.assert_array_equal(view.k_hop(0, 2), [1, 2])
        np.testing.assert_array_equal(view.k_hop(0, 4), [1, 2, 3])  # 0 excluded
        assert view.k_hop(0, 4).dtype == ID_DTYPE
        g.shutdown()

    def test_top_k_tie_break_by_id(self):
        g = small_graph()
        for s, d in [(5, 1), (5, 2), (3, 1), (3, 2), (7, 1)]:
            g.insert_edge(s, d)
        ids, degs = QueryServer(g).acquire().top_k_degree(3)
        np.testing.assert_array_equal(ids, [3, 5, 7])
        np.testing.assert_array_equal(degs, [2, 2, 1])
        g.shutdown()

    def test_edge_exists(self):
        g = small_graph()
        g.insert_edge(4, 9)
        view = QueryServer(g).acquire()
        assert view.edge_exists(4, 9) is True
        assert view.edge_exists(4, 8) is False
        assert view.edge_exists(9, 4) is False
        g.shutdown()

    def test_obs_spans_per_query_class(self):
        from repro.obs import Tracer, tracing

        g = small_graph()
        preload(g)
        cfg = ServeWorkloadConfig(n_ops=200, seed=9, n_clients=2)
        t = Tracer()
        with tracing(t):
            run_serve_workload(g, generate_workload(NV, cfg), cfg)
        for name in ("degree", "neighbors", "edge_exists", "k_hop",
                     "top_k_degree", "write"):
            found = t.find(f"serve_{name}")
            assert found, f"no serve_{name} spans recorded"
            assert all("modeled_latency_ns" in s.attrs for s in found), name
        g.shutdown()

    def test_snapshot_reader_matches_served_after_delete(self):
        g = small_graph()
        g.insert_edges([(2, 3), (2, 4), (2, 3)])
        g.delete_edge(2, 3)
        server = QueryServer(g)
        direct = SnapshotReader(g)
        view = server.acquire()
        assert view.degree(2) == direct.degree(2) == 2
        assert view.neighbors(2).tobytes() == direct.neighbors(2).tobytes()
        g.shutdown()
