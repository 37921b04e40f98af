"""Differential tests: tracing is observationally free (ISSUE 5 satellite).

Twin-system pattern (as in ``tests/test_view_cache.py``): two identical
DGAP instances run the identical workload, one under an installed
:class:`~repro.obs.Tracer` (with device-op events on — the most
invasive configuration), one untraced.  The traced arm must be
indistinguishable from the untraced arm at every level the simulator
can observe:

* the **PM event stream** — every injector-visible persistence event,
  in order (recorded via a CrashInjector subclass);
* **byte-identical device state** — cache image and media image;
* **exactly-equal counters** — every integer counter and the float
  modeled clock, bit for bit (the tracer only *reads* snapshots, so
  there is no epsilon here), including through shutdown/reopen and
  crash/recovery.

This is the proof behind the acceptance criterion "tracing-off runs are
counter- and event-identical to pre-PR behaviour": the tracer's entire
interaction with the system is snapshot reads, so traced == untraced ==
pre-PR.
"""

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.algorithms import betweenness_centrality, bfs, connected_components, pagerank
from repro.obs import Tracer, tracing
from repro.pmem.crash import CrashInjector
from repro.pmem.stats import PMemStats

SMALL = dict(init_vertices=24, init_edges=256, segment_slots=64)
NV = SMALL["init_vertices"]


class RecordingInjector(CrashInjector):
    """Never fires; records the exact persistence-event stream."""

    def __init__(self):
        super().__init__()
        self.events = []

    def tick(self, event):
        self.events.append((event, 1))
        super().tick(event)

    def tick_many(self, event, n):
        if n > 0:
            self.events.append((event, int(n)))
        super().tick_many(event, n)


def make_twin():
    inj = RecordingInjector()
    g = DGAP(DGAPConfig(**SMALL), injector=inj)
    return g, inj


def workload_edges():
    rng = np.random.default_rng(42)
    return rng.integers(0, NV, size=(600, 2))


def run_workload(g: DGAP) -> None:
    """Mixed mutation + analysis workload hitting every hot path."""
    edges = workload_edges()
    g.insert_edges(edges[:500], batch_size=64)   # batched pipeline
    for s, d in edges[500:520]:
        g.insert_edge(int(s), int(d))            # scalar path
    for s, d in edges[:10]:
        g.delete_edge(int(s), int(d))            # tombstones
    g.insert_edges(edges[520:], batch_size=1)    # per-edge batch path
    with g.consistent_view() as snap:
        pagerank_view = snap.to_csr()
    assert pagerank_view[0].shape[0] == g.num_vertices + 1


def assert_devices_identical(g1: DGAP, g2: DGAP):
    d1, d2 = g1.pool.device, g2.pool.device
    np.testing.assert_array_equal(d1.buf, d2.buf)
    np.testing.assert_array_equal(d1.media, d2.media)
    assert d1._dirty == d2._dirty
    assert d1.stats == d2.stats  # integer counters AND float modeled_ns, exactly


def test_traced_run_is_event_and_counter_identical():
    g_plain, inj_plain = make_twin()
    g_traced, inj_traced = make_twin()

    run_workload(g_plain)

    tracer = Tracer(g_traced.pool.stats, device_ops=True)
    with tracing(tracer):
        run_workload(g_traced)

    assert inj_plain.events == inj_traced.events
    assert_devices_identical(g_plain, g_traced)
    assert tracer.span_count() > 0  # the traced arm really was traced


def test_traced_shutdown_reopen_is_identical():
    g_plain, _ = make_twin()
    g_traced, _ = make_twin()
    run_workload(g_plain)
    run_workload(g_traced)

    g_plain.shutdown()
    r_plain = DGAP.open(g_plain.pool, g_plain.config)

    tracer = Tracer(g_traced.pool.stats, device_ops=True)
    with tracing(tracer):
        g_traced.shutdown()
        r_traced = DGAP.open(g_traced.pool, g_traced.config)

    assert_devices_identical(g_plain, g_traced)
    assert r_plain.num_vertices == r_traced.num_vertices
    assert r_plain.num_edges == r_traced.num_edges
    np.testing.assert_array_equal(
        r_plain.va.live_degrees(), r_traced.va.live_degrees()
    )
    assert tracer.find("shutdown") and tracer.find("normal_restart")


def test_traced_crash_recovery_is_byte_identical():
    g_plain, inj_plain = make_twin()
    g_traced, inj_traced = make_twin()
    run_workload(g_plain)
    run_workload(g_traced)

    g_plain.pool.crash()
    snap_plain = g_plain.pool.stats.snapshot()
    r_plain = DGAP.open(g_plain.pool, g_plain.config)
    delta_plain = g_plain.pool.stats.delta_since(snap_plain)

    tracer = Tracer(g_traced.pool.stats, device_ops=True)
    with tracing(tracer):
        g_traced.pool.crash()
        snap_traced = g_traced.pool.stats.snapshot()
        r_traced = DGAP.open(g_traced.pool, g_traced.config)
    delta_traced = g_traced.pool.stats.delta_since(snap_traced)

    # identical event streams through crash + full recovery
    assert inj_plain.events == inj_traced.events
    # byte-identical recovered persistent state
    assert_devices_identical(g_plain, g_traced)
    # exactly-equal modeled recovery cost (floats compared with ==)
    assert delta_plain.modeled_ns == delta_traced.modeled_ns
    assert delta_plain.seq_read_bytes == delta_traced.seq_read_bytes > 0
    # recovered graphs agree
    assert r_plain.num_edges == r_traced.num_edges
    np.testing.assert_array_equal(
        r_plain.va.live_degrees(), r_traced.va.live_degrees()
    )
    assert tracer.find("crash_recover")


def test_analysis_kernels_unperturbed_by_tracing():
    g_plain, _ = make_twin()
    g_traced, _ = make_twin()
    run_workload(g_plain)
    run_workload(g_traced)

    with g_plain.consistent_view() as snap:
        from repro.analysis.view import CSRArraysView

        view_plain = CSRArraysView(*snap.to_csr())
        ranks_plain = pagerank(view_plain, iterations=5)
        secs_plain = view_plain.seconds(1)
        bc_view_plain = view_plain.clone()
        bc_plain = betweenness_centrality(bc_view_plain, 0)
        bfs_view_plain = view_plain.clone()
        bfs_plain = bfs(bfs_view_plain, 0)

    tracer = Tracer(g_traced.pool.stats, device_ops=True)
    with tracing(tracer):
        with g_traced.consistent_view() as snap:
            from repro.analysis.view import CSRArraysView

            view_traced = CSRArraysView(*snap.to_csr())
            ranks_traced = pagerank(view_traced, iterations=5)
            secs_traced = view_traced.seconds(1)
            bc_view_traced = view_traced.clone()
            bc_traced = betweenness_centrality(bc_view_traced, 0)
            bfs_view_traced = view_traced.clone()
            bfs_traced = bfs(bfs_view_traced, 0)

    np.testing.assert_array_equal(ranks_plain, ranks_traced)
    assert secs_plain == secs_traced  # modeled analysis seconds, exactly
    assert tracer.find("pr")[0].attrs["analysis_par_ns"] > 0
    # BC and BFS on this graph each pull a level, and a BC backward level
    # reads its in-rows; their spans say how many
    assert bc_plain.tobytes() == bc_traced.tobytes()
    assert bc_view_plain.seconds(1) == bc_view_traced.seconds(1)
    assert bfs_plain.tobytes() == bfs_traced.tobytes()
    assert bfs_view_plain.seconds(1) == bfs_view_traced.seconds(1)
    for kernel in ("bc", "bfs"):
        span = tracer.find(kernel)[0].attrs
        assert 1 <= span["levels_pulled"] <= span["levels"], kernel
    assert 1 <= tracer.find("bc")[0].attrs["backward_in"] < tracer.find("bc")[0].attrs["levels"]


def test_incremental_cc_unperturbed_by_tracing():
    """A CC round that picks up the last round's labels hands out the
    same labels at the same modeled price traced or not, and its span
    says which path it took and how many appended edges it read."""
    from repro.baselines.dgap_system import DGAPSystem

    edges = workload_edges()

    def incremental_round(tracer):
        system = DGAPSystem(NV, SMALL["init_edges"], config=DGAPConfig(**SMALL))
        system.insert_edges(edges[:300])
        connected_components(system.analysis_view())  # leaves its labels behind
        system.insert_edges(edges[300:])
        view = system.analysis_view()
        if tracer is None:
            labels = connected_components(view)
        else:
            with tracing(tracer):
                labels = connected_components(view)
        return labels, view.seconds(1), view.seconds(16), system.graph

    plain = incremental_round(None)
    tracer = Tracer(PMemStats())  # a kernel span reads its view's clock
    traced = incremental_round(tracer)
    assert plain[0].tobytes() == traced[0].tobytes()
    assert plain[1:3] == traced[1:3]  # modeled analysis seconds, exactly
    span = tracer.find("cc")[0].attrs
    assert span["incremental"] is True and span["appended_edges"] == 300
    assert span["analysis_par_ns"] + span["analysis_ser_ns"] == pytest.approx(traced[1] * 1e9)
    assert_devices_identical(plain[3], traced[3])


def test_served_refreshes_unperturbed_and_attributed():
    """Traced vs untraced serving twins hand out the same bytes at the
    same modeled price, and every traced refresh shows where that price
    came from: its ``view_materialize`` span carries the three counts
    ``view_build_ns`` prices."""
    from repro.analysis.costs import view_build_ns
    from repro.analysis.viewcache import ShardBuild
    from repro.serve import QueryServer

    edges = workload_edges()

    def serve(g, on_refresh):
        server, trail = QueryServer(g), []
        for step, a in enumerate(range(0, 600, 40)):
            g.insert_edges(edges[a : a + 40])
            g.delete_edge(*edges[a].tolist())
            if step % 5 == 4:
                g.compact()
            view = server.acquire()
            trail.append(([a.tobytes() for pair in view.rows for a in pair], server.last_acquire_ns))
            on_refresh(view, server.last_acquire_ns)
        assert server.refreshes == len(trail)
        return trail, [st.as_dict() for st in server._cache.stats]

    g_plain, _ = make_twin()
    g_traced, _ = make_twin()
    want = serve(g_plain, lambda view, ns: None)

    tracer = Tracer(g_traced.pool.stats, device_ops=True)
    seen = []

    def attributed(view, ns):
        spans = tracer.find("view_materialize")
        assert len(spans) == len(seen) + 1
        did = ShardBuild(**{k: spans[-1].attrs[k] for k in ShardBuild._fields})
        assert did.mode != "reuse" and did.entries_streamed >= 41
        assert ns == view_build_ns([did])  # the patch, and no merge
        seen.append(did)

    with tracing(tracer):
        got = serve(g_traced, attributed)
    assert got == want
    assert any(b.rows_copied < NV for b in seen)  # tails were read, not only whole rows
    assert_devices_identical(g_plain, g_traced)
