"""Functional correctness of every compared system.

Each system ingests the same stream and must expose the same graph
(LLAMA after finalize — mid-stream it may legitimately lag by up to one
batch, which is tested separately as the paper's staleness property).
"""

import numpy as np
import pytest

from repro.algorithms import connected_components, pagerank
from repro.baselines import (
    SYSTEMS,
    BlockedAdjacencyList,
    DGAPSystem,
    GraphOneFD,
    LLAMA,
    StaticCSR,
    XPGraph,
)
from repro.baselines.llama import FLATTEN_EVERY
from repro.datasets import rmat_edges, shuffle_edges
from repro.errors import ImmutableGraphError, VertexRangeError
from .harness.model import Model

NV = 200
EDGES = shuffle_edges(rmat_edges(NV, 3000, seed=42), seed=1)


@pytest.fixture(params=list(SYSTEMS))
def system(request):
    sys = SYSTEMS[request.param](NV, EDGES.shape[0])
    sys.insert_edges(map(tuple, EDGES))
    sys.finalize()
    return sys


class TestFunctionalEquivalence:
    def test_same_graph_as_reference(self, system):
        ref = Model(EDGES)
        view = system.analysis_view()
        indptr, dsts = view.out_csr()
        for v in range(NV):
            got = sorted(dsts[indptr[v] : indptr[v + 1]].tolist())
            assert got == sorted(ref.row(v)), (system.name, v)

    def test_edge_count(self, system):
        assert system.analysis_view().num_edges == EDGES.shape[0]

    def test_kernels_agree_across_systems(self, system):
        view = system.analysis_view()
        pr = pagerank(view, iterations=10)
        cc = connected_components(view)
        csr = StaticCSR(NV, EDGES).analysis_view()
        np.testing.assert_allclose(pr, pagerank(csr, iterations=10), rtol=1e-9)
        np.testing.assert_array_equal(cc, connected_components(csr))

    def test_insert_profile_positive(self, system):
        prof = system.insert_profile()
        assert prof.modeled_ns > 0
        assert prof.meps(1) > 0
        assert prof.seconds(16) <= prof.seconds(1)


class TestStaticCSR:
    def test_immutable(self):
        csr = StaticCSR(NV, EDGES)
        with pytest.raises(ImmutableGraphError):
            csr.insert_edge(0, 1)

    def test_empty_graph(self):
        csr = StaticCSR(5, np.empty((0, 2), dtype=np.int64))
        assert csr.analysis_view().num_edges == 0


class TestBAL:
    def test_block_chains(self):
        bal = BlockedAdjacencyList(NV, EDGES.shape[0])
        for _ in range(100):
            bal.insert_edge(3, 7)
        assert bal.degree[3] == 100
        assert len(bal.block_lists[3]) == 2  # 100 edges > one 62-edge block

    def test_vertex_bounds(self):
        bal = BlockedAdjacencyList(4, 100)
        with pytest.raises(VertexRangeError):
            bal.insert_edge(4, 0)

    def test_head_pointers_persistent(self):
        bal = BlockedAdjacencyList(NV, EDGES.shape[0])
        bal.insert_edge(5, 6)
        bal.pool.crash()
        assert bal.heads.view[5] != 0  # journaled link survived


class TestLLAMA:
    def test_analysis_lags_by_at_most_one_batch(self):
        llama = LLAMA(NV, 50_000)  # snapshots every 1 % of the expected edges: 500
        assert llama.batch_edges == 500
        llama.insert_edges(map(tuple, EDGES[:1234]))
        visible = llama.analysis_view().num_edges
        assert visible == 1000  # two full snapshots; 234 pending invisible
        llama.finalize()
        assert llama.analysis_view().num_edges == 1234

    def test_snapshot_count(self):
        llama = LLAMA(NV, 30_000)
        llama.insert_edges(map(tuple, EDGES))
        assert llama.n_snapshots == 10

    def test_flattening_bounds_fragments(self):
        llama = LLAMA(NV, 10_000)  # 30 snapshots of 100 edges
        llama.insert_edges(map(tuple, EDGES))
        llama.finalize()
        assert llama.n_snapshots == 30
        assert max(len(f) for f in llama._frags.values()) <= FLATTEN_EVERY + 1


class TestGraphOne:
    def test_flush_cadence(self):
        go = GraphOneFD(NV, 1 << 18)
        for i in range(1 << 16):
            go.insert_edge(i % NV, (i + 1) % NV)
        assert go.flushes == 1

    def test_serializes_less_than_llama(self):
        assert GraphOneFD.insert_serial_fraction < LLAMA.insert_serial_fraction


class TestXPGraph:
    def test_archiving_threshold_effect(self):
        """Fig. 5: larger thresholds -> cheaper per-edge archiving."""
        def cost(threshold):
            xp = XPGraph(NV, EDGES.shape[0], archive_threshold=threshold)
            xp.insert_edges(map(tuple, EDGES))
            xp.finalize()
            return xp.modeled_insert_ns()

        assert cost(1 << 6) > cost(1 << 12)

    def test_log_fit_disables_archiving(self):
        xp = XPGraph(NV, EDGES.shape[0], log_capacity_edges=None)
        xp.insert_edges(map(tuple, EDGES))
        xp.finalize()
        assert xp.n_archives == 0
        xp2 = XPGraph(NV, EDGES.shape[0])
        xp2.insert_edges(map(tuple, EDGES))
        assert xp2.n_archives > 0

    def test_serial_fraction_depends_on_archiving(self):
        xp = XPGraph(NV, EDGES.shape[0], log_capacity_edges=None)
        xp.insert_edges(map(tuple, EDGES))
        assert xp.insert_serial_fraction == 0.05
        xp2 = XPGraph(NV, EDGES.shape[0])
        xp2.insert_edges(map(tuple, EDGES))
        assert xp2.insert_serial_fraction == 0.30


class TestDGAPSystem:
    def test_no_sw_overhead(self):
        assert DGAPSystem.sw_overhead_ns == 0.0

    def test_view_geometry_derived_from_state(self):
        sys = SYSTEMS["dgap"](NV, EDGES.shape[0])
        sys.insert_edges(map(tuple, EDGES))
        geo = sys.analysis_view().geometry
        assert geo.scan_overhead > 0
        assert geo.chain_rnd_per_edge >= 0


class TestComparativeShape:
    """The paper's qualitative comparison claims, at test scale."""

    def test_dgap_beats_graphone_on_inserts(self):
        res = {}
        for name in ("dgap", "graphone"):
            sys = SYSTEMS[name](NV, EDGES.shape[0])
            sys.insert_edges(map(tuple, EDGES))
            sys.finalize()
            res[name] = sys.insert_profile().meps(1)
        assert res["dgap"] > res["graphone"]

    def test_graphone_beats_dgap_on_bfs(self):
        from repro.algorithms import bfs

        times = {}
        for name in ("dgap", "graphone"):
            sys = SYSTEMS[name](NV, EDGES.shape[0])
            sys.insert_edges(map(tuple, EDGES))
            sys.finalize()
            view = sys.analysis_view()
            bfs(view, source=0)
            times[name] = view.seconds(1)
        assert times["graphone"] < times["dgap"]

    def test_csr_fastest_on_pagerank(self):
        csr_view = StaticCSR(NV, EDGES).analysis_view()
        pagerank(csr_view, 5)
        t_csr = csr_view.seconds(1)
        for name in SYSTEMS:
            sys = SYSTEMS[name](NV, EDGES.shape[0])
            sys.insert_edges(map(tuple, EDGES))
            sys.finalize()
            view = sys.analysis_view()
            pagerank(view, 5)
            assert view.seconds(1) >= t_csr * 0.99, name
