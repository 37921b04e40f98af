"""Concurrency-control tests (paper §3.1.6) with real threads.

The GIL serializes bytecode but not compound critical sections, so the
per-section locks are load-bearing: without them, two writers could
interleave between the slot probe and the slot write and both claim the
same gap.  These tests run real writer threads with ``thread_safe=True``
and verify structural integrity and no lost updates.
"""

import threading

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.core.locks import SectionLockTable
from repro.errors import LockDisciplineError


class TestSectionLockTable:
    def test_basic_acquire_release(self):
        t = SectionLockTable(4)
        t.acquire(2)
        t.release(2)

    def test_context_manager(self):
        t = SectionLockTable(4)
        with t.locked(1):
            pass

    def test_rebalance_blocks_writers(self):
        t = SectionLockTable(4)
        secs = t.begin_rebalance([1, 2])
        got = []

        def writer():
            t.acquire(1)
            got.append("acquired")
            t.release(1)

        th = threading.Thread(target=writer)
        th.start()
        th.join(timeout=0.2)
        assert got == []  # blocked on the rebalance flag
        t.end_rebalance(secs)
        th.join(timeout=2)
        assert got == ["acquired"]

    def test_rebalance_lock_order_sorted(self):
        t = SectionLockTable(8)
        secs = t.begin_rebalance([5, 2, 7, 2])
        assert secs == [2, 5, 7]
        t.end_rebalance(secs)

    def test_resize_rebuilds(self):
        t = SectionLockTable(2)
        t.resize(8)
        assert t.n_sections == 8
        with t.locked(7):
            pass

    def test_resize_requires_quiescence(self):
        """A table swap while another thread holds a section must raise,
        not orphan the holder's lock (the pre-fix resize bug)."""
        t = SectionLockTable(4)
        holding = threading.Event()
        done = threading.Event()

        def holder():
            t.acquire(1)
            holding.set()
            done.wait(5)
            t.release(1)

        th = threading.Thread(target=holder)
        th.start()
        assert holding.wait(2)
        with pytest.raises(LockDisciplineError):
            t.resize(8)
        done.set()
        th.join(timeout=2)
        # quiescent now: the same resize succeeds
        t.resize(8)
        assert t.n_sections == 8

    def test_resize_by_sole_holder_releases_and_swaps(self):
        """The resize path holds every section itself; its own holds are
        legal and the new table comes up free."""
        t = SectionLockTable(2)
        secs = t.begin_rebalance([0, 1])
        assert secs == [0, 1]
        t.resize(4)
        assert t.n_sections == 4
        assert t.held_sections() == {}
        with t.locked(3):
            pass

    def test_release_without_acquire_raises(self):
        t = SectionLockTable(4)
        with pytest.raises(LockDisciplineError):
            t.release(2)

    def test_acquire_rechecks_flag_after_winning_lock(self):
        """TOCTOU regression (real threads): a writer that passes the
        flag check before ``begin_rebalance`` flags the section must NOT
        end up inside the window — it backs off and waits.  Replayed
        deterministically in tests/test_racecheck.py; here the fixed
        table is hammered with the adversarial timing for good measure."""
        t = SectionLockTable(2)
        inside = []

        secs = t.begin_rebalance([0])

        def writer():
            t.acquire(0)  # must block until end_rebalance
            owner, count = t.holder(0)
            inside.append((owner, count))
            t.release(0)

        th = threading.Thread(target=writer)
        th.start()
        th.join(timeout=0.2)
        assert inside == []  # writer held out of the claimed window
        t.end_rebalance(secs)
        th.join(timeout=2)
        assert len(inside) == 1 and inside[0][1] == 1


class TestConcurrentWriters:
    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_no_lost_updates_disjoint_vertices(self, n_threads):
        """Each thread owns a disjoint vertex set; all edges must land."""
        nv = 64
        per_thread = 400
        g = DGAP(DGAPConfig(
            init_vertices=nv, init_edges=n_threads * per_thread + 512,
            segment_slots=64, thread_safe=True,
        ))
        errors = []

        def writer(tid):
            try:
                for i in range(per_thread):
                    src = (tid + n_threads * (i % (nv // n_threads))) % nv
                    g.insert_edge(src, (i * 7 + tid) % nv, thread_id=tid)
            except Exception as e:  # pragma: no cover - failure reporting
                errors.append(e)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert g.num_edges == n_threads * per_thread

    def test_structure_valid_after_contended_writes(self):
        """Writers hammer the same vertices; PMA invariants must survive."""
        nv = 16
        g = DGAP(DGAPConfig(
            init_vertices=nv, init_edges=4096, segment_slots=64, thread_safe=True,
        ))
        n_threads, per_thread = 4, 300
        barrier = threading.Barrier(n_threads)
        errors = []

        def writer(tid):
            try:
                barrier.wait()
                for i in range(per_thread):
                    g.insert_edge(i % nv, (i + tid) % nv, thread_id=tid)
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert g.num_edges == n_threads * per_thread

        # structural integrity: dense increasing pivots, contiguous runs
        slots = g.ea.slots
        ppos = np.flatnonzero(slots < 0)
        vids = -slots[ppos].astype(np.int64) - 1
        np.testing.assert_array_equal(vids, np.arange(nv))
        total = int(g.va.degrees().sum())
        assert total == n_threads * per_thread

    def test_readers_see_consistent_snapshots_during_writes(self):
        nv = 32
        g = DGAP(DGAPConfig(
            init_vertices=nv, init_edges=8192, segment_slots=64, thread_safe=True,
        ))
        g.insert_edges([(i % nv, (i * 3) % nv) for i in range(500)])
        stop = threading.Event()
        failures = []

        def writer():
            # a fixed budget that fits the 8 192-edge array beside the 500
            # preloaded edges: the pool never has to grow past its limit
            try:
                for i in range(4096):
                    if stop.is_set():
                        break
                    g.insert_edge(i % nv, (i * 5) % nv, thread_id=0)
            except Exception as e:
                failures.append(e)

        def reader():
            try:
                for _ in range(30):
                    with g.consistent_view() as snap:
                        indptr, dsts = snap.to_csr()
                        if indptr[-1] != snap.num_edges + np.count_nonzero(
                            snap.degree_t[: snap.num_vertices]
                            - snap.live_t[: snap.num_vertices]
                        ):
                            # degree_t counts tombstone slots; none here
                            if indptr[-1] != snap.num_edges:
                                failures.append((int(indptr[-1]), snap.num_edges))
            except Exception as e:  # pragma: no cover
                failures.append(e)

        wt = threading.Thread(target=writer)
        rt = threading.Thread(target=reader)
        wt.start()
        rt.start()
        rt.join()
        stop.set()
        wt.join()
        assert not failures


class TestSnapshotRace:
    def test_a_merge_between_a_rows_extent_and_its_chain_is_read_again(self, monkeypatch):
        """A section merge lands after ``_tails`` read a row's array
        extent and before it walks the row's log chain: the drained row
        (and every run the merge moved) is read again, and the view is
        the one a quiet snapshot reads."""
        import repro.core.snapshot as snapshot

        nv = 16
        g = DGAP(DGAPConfig(init_vertices=nv, init_edges=256, segment_slots=64, thread_safe=True))
        # every row holds a few edges, then row 0's overflow goes to its
        # section's edge log
        for i in range(48):
            g.insert_edge(i % nv, (i * 3 + 1) % nv)
        for i in range(40):
            g.insert_edge(0, (i * 5 + 2) % nv)
        chained = np.flatnonzero(g.va.el[:nv] >= 0)
        assert chained.size
        v = int(chained[0])
        with g.consistent_view() as snap:
            want = [a.copy() for a in snap.to_csr()]
        section = g.ea.section_of(int(g.va.start[v]) - 1)
        starts = g.va.start[:nv].copy()

        real = snapshot.multi_arange
        calls = []

        def merge_first(*args):
            if not calls:
                g.rebalancer.merge_section(section)
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(snapshot, "multi_arange", merge_first)
        with g.consistent_view() as snap:
            got = snap.to_csr()
        assert g.va.el[v] < 0  # the merge drained the chain under the read
        assert (g.va.start[:nv] != starts).any()  # and moved runs
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_a_merge_inside_a_chain_walk_is_read_again(self, monkeypatch):
        """The merge lands while ``_tails`` walks a row's log chain —
        after the row's fields were checked: the walk meets an entry the
        merge invalidated, the row counts as moved, and the fields are
        checked again behind every read (seqlock order), so the drained
        row and every run the merge moved are read again."""
        nv = 16
        g = DGAP(DGAPConfig(init_vertices=nv, init_edges=256, segment_slots=64, thread_safe=True))
        for i in range(48):
            g.insert_edge(i % nv, (i * 3 + 1) % nv)
        for i in range(40):
            g.insert_edge(0, (i * 5 + 2) % nv)
        chained = np.flatnonzero(g.va.el[:nv] >= 0)
        assert chained.size
        v = int(chained[0])
        with g.consistent_view() as snap:
            want = [a.copy() for a in snap.to_csr()]
        section = g.ea.section_of(int(g.va.start[v]) - 1)
        starts = g.va.start[:nv].copy()

        real = g.logs.walk_chain_arrays
        calls = []

        def merge_first(*args, **kwargs):
            if not calls:
                g.rebalancer.merge_section(section)
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(g.logs, "walk_chain_arrays", merge_first)
        with g.consistent_view() as snap:
            got = snap.to_csr()
        assert calls
        assert g.va.el[v] < 0  # the merge drained the chain under the walk
        assert (g.va.start[:nv] != starts).any()  # and moved runs
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
