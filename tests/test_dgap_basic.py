"""Functional tests for the DGAP facade: inserts, snapshots, deletes, growth."""

import random

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.analysis.view import build_in_csr
from repro.errors import GraphError, SnapshotError, VertexRangeError
from .harness import model
from .harness.model import Model

SMALL = dict(init_vertices=32, init_edges=256, segment_slots=64)


@pytest.fixture
def g():
    return DGAP(DGAPConfig(**SMALL))


class TestInsert:
    def test_single_edge(self, g):
        g.insert_edge(1, 2)
        assert g.num_edges == 1
        assert g.out_degree(1) == 1
        assert list(g.out_neighbors(1)) == [2]

    def test_insertion_order_preserved(self, g):
        g.insert_edge(1, 6)
        g.insert_edge(1, 2)  # paper: (1->2) stored after (1->6)
        assert list(g.out_neighbors(1)) == [6, 2]

    def test_duplicate_edges_kept(self, g):
        for _ in range(3):
            g.insert_edge(4, 4)
        assert list(g.out_neighbors(4)) == [4, 4, 4]

    def test_skewed_inserts(self, g):
        """One hot vertex should push through edge logs + rebalances."""
        ref = []
        for d in range(2000):
            g.insert_edge(0, d % 32)
            ref.append(d % 32)
        assert list(g.out_neighbors(0)) == ref
        assert g.n_log_inserts > 0

    def test_insert_edges_bulk(self, g):
        n = g.insert_edges([(0, 1), (1, 2), (2, 3)])
        assert n == 3 and g.num_edges == 3
        assert g.insert_edges([]) == 0 and g.num_edges == 3

    def test_counters(self, g):
        g.insert_edges((i % 32, (i * 7) % 32) for i in range(500))
        assert g.n_edges_inserted == 500
        assert g.n_array_inserts + g.n_log_inserts + g.n_shift_inserts == 500


class TestVertexGrowth:
    def test_auto_grow_on_edge(self, g):
        g.insert_edge(100, 5)
        assert g.num_vertices == 101
        assert list(g.out_neighbors(100)) == [5]

    def test_insert_vertex_explicit(self, g):
        g.insert_vertex(40)
        assert g.num_vertices == 41
        assert g.out_degree(40) == 0

    def test_grow_then_insert_everywhere(self, g):
        g.insert_vertex(63)
        for v in range(64):
            g.insert_edge(v, 63 - v)
        for v in range(64):
            assert list(g.out_neighbors(v)) == [63 - v]

    @pytest.mark.parametrize("v, capacity", [(50, 1024), (100, 1024), (500, 2048)])
    def test_many_ids_in_one_call_resize_once(self, v, capacity):
        """``insert_vertex(v)`` sizes its one growth for every pivot it
        still has to write and leaves them room behind the last run: 100
        edges over 24 vertices on a 512-slot array, plus the new pivots,
        fit ``capacity`` at the root density bound (0.75 · ``TAU_ROOT``).
        Growing at each tail overflow instead took 50 and 100 to 4 096
        and 8 192 slots in 3 and 4 resizes."""
        g = DGAP(DGAPConfig(init_vertices=8, init_edges=256, segment_slots=64, elog_size=96))
        edges = np.random.default_rng(0).integers(0, 24, size=(100, 2))
        g.insert_edges(edges)
        assert (g.num_vertices, g.ea.capacity) == (24, 512)
        resizes = g.n_resizes
        g.insert_vertex(v)
        assert (g.num_vertices, g.ea.capacity, g.n_resizes - resizes) == (v + 1, capacity, 1)
        ref = Model()
        for s, d in edges.tolist():
            ref.insert(s, d)
        assert all(g.out_neighbors(u).tolist() == ref.row(u) for u in range(v + 1))
        g.check_invariants()

    def test_vertex_range_limit(self, g):
        with pytest.raises(VertexRangeError):
            g.insert_vertex(1 << 31)


class TestDelete:
    def test_delete_removes_one_occurrence(self, g):
        g.insert_edge(1, 2)
        g.insert_edge(1, 2)
        g.delete_edge(1, 2)
        assert list(g.out_neighbors(1)) == [2]
        assert g.out_degree(1) == 1

    def test_delete_then_reinsert(self, g):
        g.insert_edge(1, 2)
        g.delete_edge(1, 2)
        g.insert_edge(1, 2)
        assert list(g.out_neighbors(1)) == [2]

    def test_deleted_invisible_to_new_snapshot(self, g):
        g.insert_edge(3, 4)
        g.delete_edge(3, 4)
        with g.consistent_view() as snap:
            assert snap.out_degree(3) == 0
            assert snap.out_neighbors(3).size == 0

class TestSnapshots:
    def test_snapshot_isolation(self, g):
        g.insert_edge(0, 1)
        snap = g.consistent_view()
        g.insert_edge(0, 2)
        assert list(snap.out_neighbors(0)) == [1]  # update invisible
        snap2 = g.consistent_view()
        assert list(snap2.out_neighbors(0)) == [1, 2]
        snap.release()
        snap2.release()

    def test_snapshot_isolation_through_merges(self):
        """Inserts after t must stay invisible even across merges/rebalances."""
        # tiny edge logs + a hot vertex that outgrows its gap share force
        # frequent log merges and rebalances
        g = DGAP(DGAPConfig(init_vertices=32, init_edges=4000, segment_slots=64, elog_size=96))
        random.seed(3)
        pre = Model()
        for _ in range(800):
            u, w = random.randrange(32), random.randrange(32)
            g.insert_edge(u, w)
            pre.insert(u, w)
        snap = g.consistent_view()
        for i in range(2500):  # hammer one vertex: merges + rebalances
            g.insert_edge(7, i % 32)
        assert g.n_rebalances > 0 and g.n_log_inserts > 0
        for v in range(32):
            assert list(snap.out_neighbors(v)) == pre.row(v), v
        snap.release()

    def test_csr_with_pending_chains(self, g):
        # hammer one vertex to leave entries in the edge log, then CSR
        for d in range(200):
            g.insert_edge(5, d % 32)
        with g.consistent_view() as snap:
            indptr, dsts = snap.to_csr()
            assert list(dsts[indptr[5] : indptr[6]]) == [d % 32 for d in range(200)]

    def test_csc_is_transpose(self, g):
        g.insert_edges([(0, 1), (2, 1), (1, 0)])
        with g.consistent_view() as snap:
            in_indptr, in_srcs = build_in_csr(*snap.to_csr(), snap.num_vertices)
            assert sorted(in_srcs[in_indptr[1] : in_indptr[2]].tolist()) == [0, 2]

    def test_use_after_release(self, g):
        snap = g.consistent_view()
        snap.release()
        with pytest.raises(SnapshotError):
            snap.out_neighbors(0)

    def test_num_edges_live(self, g):
        g.insert_edge(0, 1)
        g.delete_edge(0, 1)
        with g.consistent_view() as snap:
            assert snap.num_edges == 0

    def test_shutdown_with_active_snapshot_rejected(self, g):
        snap = g.consistent_view()
        with pytest.raises(GraphError):
            g.shutdown()
        snap.release()


class TestAblationModes:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(use_edge_log=False),
            dict(use_edge_log=False, use_undo_log=False),
            dict(use_edge_log=False, use_undo_log=False, dram_placement=False),
            dict(dram_placement=False),
        ],
    )
    def test_functionally_identical(self, kw):
        random.seed(9)
        g = DGAP(DGAPConfig(**SMALL, **kw))
        ref = Model()
        for _ in range(1500):
            u, w = random.randrange(32), random.randrange(32)
            g.insert_edge(u, w)
            ref.insert(u, w)
        ref.admits(model.of(g))

    def test_edge_log_reduces_stored_bytes(self):
        """The headline §4.4 claim: EL cuts insert write traffic."""
        random.seed(12)
        edges = [(random.randrange(64), random.randrange(64)) for _ in range(4000)]

        def traffic(**kw):
            g = DGAP(DGAPConfig(init_vertices=64, init_edges=1024, segment_slots=64, **kw))
            before = g.pool.stats.snapshot()
            g.insert_edges(edges)
            return g.pool.stats.delta_since(before)

        with_el = traffic()
        without = traffic(use_edge_log=False)
        assert without.stored_bytes > 1.3 * with_el.stored_bytes
        assert without.modeled_ns > with_el.modeled_ns


class TestInvariantChecker:
    def test_clean_after_workload(self):
        random.seed(31)
        g = DGAP(DGAPConfig(**SMALL))
        for _ in range(3000):
            g.insert_edge(random.randrange(32), random.randrange(32))
        g.check_invariants()

    def test_clean_after_crash_recovery(self):
        random.seed(32)
        g = DGAP(DGAPConfig(**SMALL))
        for _ in range(1500):
            g.insert_edge(random.randrange(32), random.randrange(32))
        g.pool.crash()
        g2 = DGAP.open(g.pool, g.config)
        g2.check_invariants()

    def test_detects_corruption(self):
        from repro.errors import GraphError

        g = DGAP(DGAPConfig(**SMALL))
        g.insert_edge(1, 2)
        # corrupt a pivot behind the API's back
        import numpy as np

        ppos = int(np.flatnonzero(g.ea.slots < 0)[2])
        off = g.ea.byte_off(ppos)
        g.pool.device.buf[off : off + 4] = np.frombuffer(
            np.int32(0).tobytes(), dtype=np.uint8
        )
        with pytest.raises(GraphError):
            g.check_invariants()


class TestGapDistribution:
    @pytest.mark.parametrize("strategy", ["proportional", "uniform"])
    def test_both_strategies_correct(self, strategy):
        random.seed(33)
        g = DGAP(DGAPConfig(init_vertices=32, init_edges=512, segment_slots=64,
                            gap_distribution=strategy))
        ref = Model()
        for _ in range(2500):
            u, w = random.randrange(32), random.randrange(32)
            g.insert_edge(u, w)
            ref.insert(u, w)
        g.check_invariants()
        ref.admits(model.of(g))

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            DGAPConfig(gap_distribution="random")
