"""End-to-end integration tests across modules.

Full pipelines: generate a dataset proxy -> ingest through the harness
-> analyze through the views, and cross-system functional agreement on
kernel outputs.  Crash -> recover -> analyze is the store machine's
(``tests/test_store_machine.py``).
"""

import numpy as np
import pytest

from repro.algorithms import bfs, betweenness_centrality, connected_components, pagerank
from repro.baselines import SYSTEMS, StaticCSR
from repro.bench.harness import build_system, ingest, pick_source, run_kernel
from repro.datasets import get_dataset

SCALE = 0.1


@pytest.fixture(scope="module")
def orkut():
    spec = get_dataset("orkut")
    edges = spec.generate(SCALE)
    nv, _ = spec.sizes(SCALE)
    return spec, edges, nv


class TestHarnessPipeline:
    def test_ingest_protocol(self, orkut):
        spec, edges, nv = orkut
        system = build_system("dgap", nv, edges.shape[0])
        result = ingest(system, spec, edges)
        assert result.edges_timed == edges.shape[0] - int(edges.shape[0] * 0.1)
        assert result.profile.meps(1) > 0
        assert result.write_amplification > 1.0
        assert system.analysis_view().num_edges == edges.shape[0]

    def test_all_systems_agree_on_kernels(self, orkut):
        spec, edges, nv = orkut
        ref = StaticCSR(nv, edges).analysis_view()
        src = int(np.argmax(ref.out_degrees()))
        ref_pr = pagerank(ref, 10)
        ref_cc = connected_components(ref)
        ref_bc = betweenness_centrality(ref, src)
        for name in SYSTEMS:
            system = build_system(name, nv, edges.shape[0])
            system.insert_edges(map(tuple, edges))
            system.finalize()
            view = system.analysis_view()
            np.testing.assert_allclose(pagerank(view, 10), ref_pr, rtol=1e-9, err_msg=name)
            np.testing.assert_array_equal(connected_components(view), ref_cc, err_msg=name)
            np.testing.assert_allclose(
                betweenness_centrality(view, src), ref_bc, rtol=1e-9, err_msg=name
            )

    def test_bfs_reaches_same_set_everywhere(self, orkut):
        spec, edges, nv = orkut
        ref = StaticCSR(nv, edges).analysis_view()
        src = int(np.argmax(ref.out_degrees()))
        reached_ref = bfs(ref, src) >= 0
        for name in ("dgap", "graphone"):
            system = build_system(name, nv, edges.shape[0])
            system.insert_edges(map(tuple, edges))
            system.finalize()
            reached = bfs(system.analysis_view(), src) >= 0
            np.testing.assert_array_equal(reached, reached_ref, err_msg=name)

    def test_run_kernel_thread_points(self, orkut):
        spec, edges, nv = orkut
        system = build_system("dgap", nv, edges.shape[0])
        system.insert_edges(map(tuple, edges))
        times = run_kernel(system.analysis_view(), "pr")
        assert sorted(times) == [1, 16] and times[1] > times[16]


class TestSourcePicker:
    def test_pick_source_is_hub(self, orkut):
        src = pick_source("orkut", SCALE)
        spec, edges, nv = orkut
        deg = np.bincount(edges[:, 0], minlength=nv)
        assert deg[src] == deg.max()
