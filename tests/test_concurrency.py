"""Concurrency-control tests (paper §3.1.6) with real threads.

The GIL serializes bytecode but not compound critical sections, so the
per-section locks are load-bearing: without them, two writers could
interleave between the slot probe and the slot write and both claim the
same gap.  These tests run real writer threads with ``thread_safe=True``
and verify structural integrity and no lost updates.
"""

import threading
import time

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.core import locks as locks_mod
from repro.core.locks import SectionLockTable
from repro.errors import LockDisciplineError


class TestSectionLockTable:
    def test_basic_acquire_release(self):
        t = SectionLockTable(4)
        assert t.acquire_many([3, 1, 3]) == [1, 3]
        assert t.held_sections() == {1: (threading.get_ident(), 1),
                                     3: (threading.get_ident(), 1)}
        t.release_many([1, 3])
        assert t.held_sections() == {}

    def test_rebalance_blocks_writers(self):
        t = SectionLockTable(4)
        secs = t.begin_rebalance([1, 2])
        got = []

        def writer():
            t.acquire_many([1])
            got.append("acquired")
            t.release_many([1])

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

    def test_two_threads_first_acquire_share_one_lock(self, monkeypatch):
        """A section's lock is made on its first acquire.  Two threads that
        race to that first acquire — its making slowed to widen the race —
        get one lock between them, and never hold the section together."""
        made = []
        plain = locks_mod._LazyLocks.__missing__

        def slow_missing(table, section):
            time.sleep(0.01)
            lock = plain(table, section)
            made.append(lock)
            return lock

        monkeypatch.setattr(locks_mod._LazyLocks, "__missing__", slow_missing)
        t = SectionLockTable(4)
        start = threading.Barrier(2)
        inside, most, errors = [0], [0], []

        def writer():
            try:
                start.wait(2)
                for _ in range(50):
                    t.acquire_many([2])
                    inside[0] += 1
                    most[0] = max(most[0], inside[0])
                    time.sleep(0)
                    inside[0] -= 1
                    t.release_many([2])
            except Exception as exc:  # a dying thread fails the test
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(10)
        assert errors == [] and most == [1]
        assert len(made) == 1 and t.held_sections() == {}

    def test_resize_rebuilds(self):
        t = SectionLockTable(2)
        t.resize(8)
        assert t.n_sections == 8
        t.acquire_many([7])
        t.release_many([7])

    def test_resize_requires_quiescence(self):
        """A table swap while another thread holds a section must raise,
        not orphan the holder's lock (the pre-fix resize bug)."""
        t = SectionLockTable(4)
        holding = threading.Event()
        done = threading.Event()

        def holder():
            t.acquire_many([1])
            holding.set()
            done.wait(5)
            t.release_many([1])

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
        t.acquire_many([3])
        t.release_many([3])

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
            t.acquire_many([0])  # must block until end_rebalance
            owner, count = t.holder(0)
            inside.append((owner, count))
            t.release_many([0])

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
    """A section merge started by a second thread while a snapshot reads a
    chained row: the reader holds the row's pivot section (DESIGN.md §10),
    so the merge waits for the read to end, and the view both before and
    after the merge is the one a quiet snapshot reads."""

    @staticmethod
    def _store_with_a_chained_row():
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
        return g, nv, int(chained[0])

    def _race(self, g, nv, v, patch):
        """Read a snapshot with ``patch(start_merge)`` installed, where
        ``start_merge`` starts merging ``v``'s pivot section on a second
        thread and checks that the merge is held off by the read."""
        with g.consistent_view() as snap:
            want = [a.copy() for a in snap.to_csr()]
        section = g.ea.section_of(int(g.va.start[v]) - 1)
        starts = g.va.start[:nv].copy()
        merger = threading.Thread(target=g.rebalancer.merge_section, args=(section,))
        started = []

        def start_merge():
            if not started:
                started.append(True)
                merger.start()
                merger.join(timeout=0.2)
                assert merger.is_alive()  # waiting on the reader's section lock
                assert g.va.el[v] >= 0

        patch(start_merge)
        try:
            with g.consistent_view() as snap:
                got = snap.to_csr()
        finally:
            if started:
                merger.join(timeout=30)
        assert started and not merger.is_alive()
        assert g.va.el[v] < 0  # the merge drained the chain once the read ended
        assert (g.va.start[:nv] != starts).any()  # and moved runs
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        with g.consistent_view() as snap:  # read again, after the merge
            again = snap.to_csr()
        for a, b in zip(again, want):
            np.testing.assert_array_equal(a, b)
        g.check_invariants()

    def test_a_merge_between_a_rows_extent_and_its_chain_is_read_again(self, monkeypatch):
        """The merge starts after ``_tails`` read the rows' array extents
        and before it reads their chains."""
        import repro.core.snapshot as snapshot

        g, nv, v = self._store_with_a_chained_row()
        real = snapshot.multi_arange

        def patch(start_merge):
            def merge_first(*args):
                start_merge()
                return real(*args)

            monkeypatch.setattr(snapshot, "multi_arange", merge_first)

        self._race(g, nv, v, patch)

    def test_a_merge_inside_a_chain_walk_is_read_again(self, monkeypatch):
        """The merge starts as ``_tails`` reads the chained row's pivot
        section log, after the row's fields were read."""
        g, nv, v = self._store_with_a_chained_row()
        real = g.logs.peek
        calls = []

        def patch(start_merge):
            def merge_first(*args, **kwargs):
                calls.append(args)
                start_merge()
                return real(*args, **kwargs)

            monkeypatch.setattr(g.logs, "peek", merge_first)

        self._race(g, nv, v, patch)
        assert calls
