"""Virtual-thread scheduler tests: the event-level Table 3 cross-check."""

from functools import partial

import numpy as np
import pytest

from repro.datasets import get_dataset
from .harness.vthreads import VirtualThreadScheduler, simulate_threads

from .stores import make_store

SPEC = get_dataset("orkut")
EDGES = SPEC.generate(0.2)
NV, _ = SPEC.sizes(0.2)
make_graph = partial(make_store, init_vertices=NV, init_edges=EDGES.shape[0])


class TestScheduler:
    def test_single_thread_equals_serial_time(self):
        g = make_graph()
        res = VirtualThreadScheduler(g, 1).run(list(map(tuple, EDGES[:5000])))
        assert res.n_threads == 1
        assert res.lock_wait_s == 0.0
        assert res.makespan_s == pytest.approx(sum(res.thread_busy_s), rel=1e-6)

    def test_more_threads_scale_throughput(self):
        results = simulate_threads(make_graph, EDGES[:20000], thread_counts=(1, 8))
        speedup = results[8].meps / results[1].meps
        assert 2.0 < speedup <= 8.0

    def test_speedup_saturates_like_table3(self):
        """The paper's DGAP scales ~2.6x at 8T, ~2.9x at 16T (Table 3)."""
        results = simulate_threads(make_graph, EDGES[:20000], thread_counts=(1, 8, 16))
        s8 = results[8].meps / results[1].meps
        s16 = results[16].meps / results[1].meps
        assert s16 >= s8 * 0.95  # monotone-ish
        assert s16 < 16  # never perfect (locks + media bandwidth)

    def test_hot_section_contention_hurts(self):
        """All writers hitting one vertex's section must serialize."""
        hot = np.column_stack([
            np.zeros(8000, dtype=np.int64),
            np.arange(8000, dtype=np.int64) % NV,
        ])
        res_hot = simulate_threads(make_graph, hot, thread_counts=(8,))[8]
        res_spread = simulate_threads(make_graph, EDGES[:8000], thread_counts=(8,))[8]
        assert res_hot.utilization < res_spread.utilization
        assert res_hot.lock_wait_s > res_spread.lock_wait_s

    def test_agrees_with_analytic_model_in_shape(self):
        """Event-level replay and the Amdahl+bandwidth model should land
        in the same scaling band for DGAP (within ~2x of each other)."""
        from repro.baselines import DGAPSystem

        sys8 = DGAPSystem(NV, EDGES.shape[0])
        sys8.insert_edges(map(tuple, EDGES[:20000]))
        analytic = sys8.insert_profile(edges=20000)
        sim = simulate_threads(make_graph, EDGES[:20000], thread_counts=(8,))[8]
        ratio = sim.meps / analytic.meps(8)
        assert 0.4 < ratio < 2.5, (sim.meps, analytic.meps(8))

    def test_bad_thread_count(self):
        with pytest.raises(ValueError):
            VirtualThreadScheduler(make_graph(), 0)

    def test_result_fields(self):
        res = simulate_threads(make_graph, EDGES[:2000], thread_counts=(4,))[4]
        assert res.edges == 2000
        assert len(res.thread_busy_s) == 4
        assert res.pm_media_bytes > 0
        assert 0 < res.utilization <= 1.0
