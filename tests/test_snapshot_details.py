"""Focused tests on snapshot internals: chain slicing, CSR splicing, CSC."""

import random

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.analysis.view import build_in_csr
from repro.nputil import multi_arange as _multi_arange
from .harness.model import Model

CFG = dict(init_vertices=24, init_edges=1024, segment_slots=64)


class TestChainSlicing:
    def test_snapshot_between_log_appends(self):
        """degree_t falls inside the chain: skip-newest/take logic (§3.1.3)."""
        g = DGAP(DGAPConfig(**CFG))
        # exhaust vertex 0's gap so later edges land in the edge log
        for d in range(80):
            g.insert_edge(0, d % 24)
        snap_mid = g.consistent_view()
        deg_mid = snap_mid.out_degree(0)
        for d in range(40):  # newer entries the snapshot must skip
            g.insert_edge(0, (d * 7) % 24)
        assert list(snap_mid.out_neighbors(0)) == [d % 24 for d in range(deg_mid)]
        snap_mid.release()

    def test_merge_after_snapshot_moves_chain_into_array(self):
        g = DGAP(DGAPConfig(**CFG, elog_size=96))
        for d in range(60):
            g.insert_edge(0, d % 24)
        snap = g.consistent_view()
        rebal_before = g.n_rebalances
        for d in range(400):  # forces merges of vertex 0's section
            g.insert_edge(0, (d + 5) % 24)
        assert g.n_rebalances > rebal_before
        # snapshot still reads its 60 edges although the chain merged
        assert list(snap.out_neighbors(0)) == [d % 24 for d in range(60)]
        snap.release()

    def test_multiple_concurrent_snapshots_different_times(self):
        g = DGAP(DGAPConfig(**CFG))
        snaps = []
        expected = []
        seq = []
        for round_ in range(4):
            for d in range(25):
                g.insert_edge(3, d)
                seq.append(d)
            snaps.append(g.consistent_view())
            expected.append(list(seq))
        for snap, want in zip(snaps, expected):
            assert list(snap.out_neighbors(3)) == want
            snap.release()


class TestRowScope:
    def test_a_scoped_snapshot_reads_its_rows_and_refuses_every_other(self):
        """``consistent_view(rows)`` copies those rows' degrees only: in
        scope it reads what a whole snapshot reads; an id below, between,
        above or beside the rows raises instead of reading a neighbour."""
        from repro.errors import SnapshotError

        g = DGAP(DGAPConfig(**CFG))
        rng = np.random.default_rng(1)
        g.insert_edges(rng.integers(0, 24, size=(300, 2)))
        rows = np.array([3, 7, 8, 20], dtype=np.int64)
        with g.consistent_view() as whole, g.consistent_view(rows) as scoped:
            assert scoped.degree_t.size == rows.size
            for v in rows.tolist():
                assert scoped.out_degree(v) == whole.out_degree(v)
                assert list(scoped.out_neighbors(v)) == list(whole.out_neighbors(v))
            counts, dsts = scoped.materialize_rows(rows[[1, 3]])
            want = whole.materialize_rows(rows[[1, 3]])
            assert counts.tolist() == want[0].tolist() and dsts.tolist() == want[1].tolist()
            for v in (0, 2, 5, 9, 21, 23):
                with pytest.raises(SnapshotError, match="scope"):
                    scoped.out_neighbors(v)
                with pytest.raises(SnapshotError, match="scope"):
                    scoped.out_degree(v)
            with pytest.raises(SnapshotError, match="scope"):
                scoped.materialize_rows(np.array([7, 9], dtype=np.int64))
        with g.consistent_view(np.empty(0, dtype=np.int64)) as nothing:
            assert nothing.materialize_rows(np.empty(0, dtype=np.int64))[1].size == 0
            with pytest.raises(SnapshotError, match="scope"):
                nothing.out_neighbors(0)


class TestCSRDetails:
    def test_csr_cached(self):
        g = DGAP(DGAPConfig(**CFG))
        g.insert_edges([(1, 2), (3, 4)])
        with g.consistent_view() as snap:
            a = snap.to_csr()
            b = snap.to_csr()
            assert a[0] is b[0] and a[1] is b[1]

    def test_csr_empty_graph(self):
        g = DGAP(DGAPConfig(**CFG))
        with g.consistent_view() as snap:
            indptr, dsts = snap.to_csr()
            assert indptr[-1] == 0 and dsts.size == 0

    def test_csr_with_tombstones_spliced(self):
        g = DGAP(DGAPConfig(**CFG))
        g.insert_edges([(1, 2), (1, 3), (2, 5)])
        g.delete_edge(1, 2)
        with g.consistent_view() as snap:
            indptr, dsts = snap.to_csr()
            assert list(dsts[indptr[1] : indptr[2]]) == [3]
            assert list(dsts[indptr[2] : indptr[3]]) == [5]
            assert indptr[-1] == 2

    def test_csr_mixed_special_and_plain(self):
        """Chain vertices and tombstone vertices splice around plain ones."""
        random.seed(13)
        g = DGAP(DGAPConfig(**CFG))
        ref = Model()
        for _ in range(500):
            u, w = random.randrange(24), random.randrange(24)
            g.insert_edge(u, w)
            ref.insert(u, w)
        for d in range(120):  # chain vertex
            g.insert_edge(7, d % 24)
            ref.insert(7, d % 24)
        first = ref.row(3)[0]  # tombstone vertex: the last copy of it goes
        g.delete_edge(3, first)
        ref.delete(3, first)
        with g.consistent_view() as snap:
            indptr, dsts = snap.to_csr()
            for v in range(24):
                assert list(dsts[indptr[v] : indptr[v + 1]]) == ref.row(v), v

    def test_csc_counts_match(self):
        random.seed(14)
        g = DGAP(DGAPConfig(**CFG))
        indeg = np.zeros(24, dtype=int)
        for _ in range(300):
            u, w = random.randrange(24), random.randrange(24)
            g.insert_edge(u, w)
            indeg[w] += 1
        with g.consistent_view() as snap:
            in_indptr, in_srcs = build_in_csr(*snap.to_csr(), snap.num_vertices)
            np.testing.assert_array_equal(np.diff(in_indptr), indeg)


class TestMultiArange:
    def test_empty(self):
        assert _multi_arange(np.empty(0, np.int64), np.empty(0, np.int64)).size == 0

    def test_zero_counts_skipped(self):
        out = _multi_arange(np.array([5, 10, 20]), np.array([2, 0, 1]))
        np.testing.assert_array_equal(out, [5, 6, 20])
