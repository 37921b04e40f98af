"""Online serving layer: byte-identity, point reads, query details.

(DESIGN.md §15.)  Snapshot isolation of a held view, reuse at an
unmoved epoch and the illegal-call messages are the store machine's
(``held_views_keep_their_epoch``, ``hold_a_serve_view``,
``illegal_call``) on every store; here:

* **Byte-identity** — every served read equals a direct fresh-snapshot
  read of the same stream point, byte for byte (the twin runner).
* **Point reads** — ``DGAP.out_neighbors`` reads through a snapshot of
  that one row and holds nothing.
* the query surface's details: ``k_hop`` levels, the top-k tie break,
  per-class spans.
"""

import numpy as np
import pytest
from repro.analysis.view import ID_DTYPE
from repro.errors import VertexRangeError
from repro.obs import DISTRIBUTION_KEYS
from repro.serve import (
    QueryServer,
    ServeWorkloadConfig,
    ZipfianSampler,
    generate_workload,
    run_serve_workload,
)
from repro.serve.driver import SnapshotReader, _bytes_equal

from .stores import make_store

NV = 24
SMALL = dict(init_vertices=NV, init_edges=256, segment_slots=64)


def preload(g, n_edges=60, seed=3):
    rng = np.random.default_rng(seed)
    g.insert_edges(rng.integers(0, NV, size=(n_edges, 2)))


# ---------------------------------------------------------------------------
# satellite: point reads on the store (``out_neighbors``)
# ---------------------------------------------------------------------------

class TestPointViewCache:
    def test_point_read_opens_one_row_and_holds_nothing(self):
        """``out_neighbors`` reads through a snapshot of that one row and
        releases it: no graph-owned snapshot is left for a write, a sweep
        or a shutdown to special-case."""
        g = make_store(**SMALL)
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
        g = make_store(**SMALL)
        with pytest.raises(VertexRangeError):
            g.out_neighbors(-1)
        with pytest.raises(VertexRangeError):
            g.out_neighbors(NV)
        g.shutdown()


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
    g = make_store("dgap" if n_shards == 1 else f"sharded{n_shards}", init_vertices=nv, init_edges=8192)
    g.insert_edges(np.random.default_rng(3).integers(0, nv, size=(4 * nv, 2)))
    wl = ServeWorkloadConfig(n_ops=800, seed=5, n_clients=2)
    report = run_serve_workload(g, generate_workload(nv, wl), wl, twin_check=True)
    assert report.identity_ok and report.mismatches == 0 and report.refreshes > 2
    assert len(report.latencies["top_k_degree"]) > 10
    assert [st.top_refills for st in g.view_cache.stats] == [0] * n_shards
    assert [st.full_rebuilds for st in g.view_cache.stats] == [1] * n_shards


@pytest.mark.parametrize("kind,floor", [("dgap", 3.0), ("sharded4", 1.5)])
def test_a_served_read_costs_a_fraction_of_a_snapshot_read(kind, floor):
    """8 000 vertices, 32 000 uniform edges preloaded, a 95 % read Zipfian
    stream (400 ops, seed 7): served reads cost at least ``floor`` times
    less than a fresh snapshot per read on the modeled clock (measured
    8.77x unsharded and 6.44x on four shards, where a point read's
    snapshot opens only its owner shard's rows), and at least 90 % of
    reads reuse a view (0.953).  The speedup depends on the vertex count,
    so the geometry is pinned."""
    nv = 8000
    g = make_store(kind, init_vertices=nv, init_edges=16 * nv)
    g.insert_edges(np.random.default_rng(1).integers(0, nv, size=(4 * nv, 2)))
    cfg = ServeWorkloadConfig(n_ops=400, read_fraction=0.95, seed=7)
    report = run_serve_workload(g, generate_workload(nv, cfg), cfg, twin_check=True)
    assert report.identity_ok
    assert report.modeled_read_speedup >= floor
    assert report.reuse_ratio >= 0.9


class TestTwinIdentity:
    def test_unsharded(self):
        g = make_store(**SMALL)
        report = _twin(g, NV)
        assert report.identity_checked and report.identity_ok
        assert report.reads and report.writes
        assert report.refreshes + report.reuses == report.reads
        g.shutdown()

    def test_sharded(self):
        s = make_store("sharded3", **SMALL)
        report = _twin(s, NV)
        assert report.identity_ok
        assert report.refreshes + report.reuses == report.reads

    def test_open_loop(self):
        g = make_store(**SMALL)
        report = _twin(g, NV, mode="open")
        assert report.identity_ok
        assert report.mode == "open"
        assert report.makespan_ns > 0
        g.shutdown()

    def test_stats_report_p99(self):
        g = make_store(**SMALL)
        report = _twin(g, NV)
        stats = report.stats()
        assert stats, "no latency classes recorded"
        for cls, dist in stats.items():
            assert list(dist) == [f"{k}_us" for k in DISTRIBUTION_KEYS], cls
            assert dist["min_us"] <= dist["p50_us"] <= dist["p90_us"] <= dist["p95_us"], cls
            assert dist["p95_us"] <= dist["p99_us"] <= dist["max_us"], cls
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
    def test_k_hop_levels(self):
        g = make_store(**SMALL)
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
        g = make_store(**SMALL)
        for s, d in [(5, 1), (5, 2), (3, 1), (3, 2), (7, 1)]:
            g.insert_edge(s, d)
        ids, degs = QueryServer(g).acquire().top_k_degree(3)
        np.testing.assert_array_equal(ids, [3, 5, 7])
        np.testing.assert_array_equal(degs, [2, 2, 1])
        g.shutdown()

    def test_edge_exists(self):
        g = make_store(**SMALL)
        g.insert_edge(4, 9)
        view = QueryServer(g).acquire()
        assert view.edge_exists(4, 9) is True
        assert view.edge_exists(4, 8) is False
        assert view.edge_exists(9, 4) is False
        g.shutdown()

    def test_obs_spans_per_query_class(self):
        from repro.obs import Tracer, tracing

        g = make_store(**SMALL)
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
        g = make_store(**SMALL)
        g.insert_edges([(2, 3), (2, 4), (2, 3)])
        g.delete_edge(2, 3)
        server = QueryServer(g)
        direct = SnapshotReader(g)
        view = server.acquire()
        assert view.degree(2) == direct.degree(2) == 2
        assert view.neighbors(2).tobytes() == direct.neighbors(2).tobytes()
        g.shutdown()
