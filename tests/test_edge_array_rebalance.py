"""Unit tests for the edge array and rebalancer internals."""

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.core.edge_array import EdgeArray
from repro.core.encoding import encode_edge, encode_pivot
from repro.pmem import PMemPool


@pytest.fixture
def ea():
    pool = PMemPool(8 << 20)
    return EdgeArray(pool, capacity_slots=1024, segment_slots=128)


class TestEdgeArray:
    def test_geometry(self, ea):
        assert ea.n_sections == 8
        assert ea.section_of(0) == 0
        assert ea.section_of(127) == 0
        assert ea.section_of(128) == 1

    def test_bad_geometry_rejected(self):
        pool = PMemPool(1 << 20)
        with pytest.raises(ValueError):
            EdgeArray(pool, 1000, 128)  # not a multiple
        with pytest.raises(ValueError):
            EdgeArray(pool, 128 * 3, 128)  # non-pow2 sections

    def test_write_slot_persists(self, ea):
        ea.write_slot(5, encode_edge(7), payload=4, persist=True)
        ea.pool.crash()
        assert ea.slots[5] == encode_edge(7)

    def test_occupancy_tracking(self, ea):
        ea.write_slot(0, encode_pivot(0))
        ea.write_slot(1, encode_edge(3))
        ea.inc_occ(0)
        ea.inc_occ(0)
        assert ea.seg_occ[0] == 2
        ea.recount(0, 1024)
        assert ea.seg_occ[0] == 2 and ea.seg_occ.sum() == 2

    def test_recount_partial(self, ea):
        ea.write_slot(130, encode_edge(1))
        ea.recount(128, 256)
        assert ea.seg_occ[1] == 1
        assert ea.seg_occ[0] == 0  # untouched sections stay

    def test_combined_occupancy(self, ea):
        logs = np.zeros(8, dtype=np.int64)
        logs[2] = 5
        ea.seg_occ[2] = 3
        assert ea.combined_occupancy(logs)[2] == 8

    def test_pm_metadata_mirrors(self):
        pool = PMemPool(8 << 20)
        ea = EdgeArray(pool, 1024, 128, pm_metadata=True)
        flushes = pool.stats.flushes
        ea.inc_occ(0)
        assert pool.stats.flushes > flushes


class TestRebalanceInternals:
    def make(self, **kw):
        return DGAP(DGAPConfig(init_vertices=16, init_edges=1024, segment_slots=64, **kw))

    def test_extend_covers_straddling_run(self):
        g = self.make()
        # grow vertex 0's run across the first segment boundary
        for d in range(100):
            g.insert_edge(0, d % 16)
        lo, hi, i0, j = g.rebalancer._extend(64, 128)
        assert lo <= int(g.va.start[0]) - 1  # pulled back to the pivot
        assert i0 == 0

    def test_gather_includes_chain(self):
        g = self.make()
        for d in range(200):
            g.insert_edge(0, d % 16)
        if g.va.el[0] >= 0:
            lo, hi, i0, j = g.rebalancer._extend(0, g.ea.capacity)
            res = g.rebalancer._gather(lo, hi, i0, j)
            assert res.runs[0].size == g.va.degree[0]
            assert len(res.chain_gidxs) > 0

    def test_plan_preserves_order_and_density(self):
        g = self.make()
        for d in range(120):
            g.insert_edge(d % 16, (d * 3) % 16)
        lo, hi, i0, j = g.rebalancer._extend(0, g.ea.capacity)
        res = g.rebalancer._gather(lo, hi, i0, j)
        image, new_starts = g.rebalancer._plan(res)
        assert image.size == hi - lo
        # pivots appear in vertex order at new_starts - 1 - lo
        for k, v in enumerate(range(i0, j)):
            assert image[new_starts[k] - 1 - lo] == encode_pivot(v)
            run = res.runs[k]
            got = image[new_starts[k] - lo : new_starts[k] - lo + run.size]
            np.testing.assert_array_equal(got, run)

    def test_gap_distribution_proportional(self):
        """VCSR weighting: bigger runs get more trailing gap."""
        g = self.make()
        for d in range(200):
            g.insert_edge(0, d % 16)  # hot vertex
        g.insert_edge(5, 1)
        lo, hi, i0, j = g.rebalancer._extend(0, g.ea.capacity)
        res = g.rebalancer._gather(lo, hi, i0, j)
        image, new_starts = g.rebalancer._plan(res)
        # gap after a run = next pivot - run end
        gaps = []
        for k in range(j - i0):
            end = new_starts[k] - lo + res.runs[k].size
            nxt = new_starts[k + 1] - 1 - lo if k + 1 < j - i0 else image.size
            gaps.append(nxt - end)
        assert gaps[0] == max(gaps)  # the hot vertex got the most room

    def test_resize_generation_switch(self):
        g = self.make()
        gen0 = g.ea.gen
        cap0 = g.ea.capacity
        g.rebalancer.resize()
        assert g.ea.gen == gen0 + 1
        assert g.ea.capacity >= 2 * cap0
        assert g.pool.read_root(1) == g.ea.gen  # ROOT_GEN committed
        # structure still valid
        g.insert_edge(3, 4)
        assert 4 in g.out_neighbors(3).tolist()

    def test_write_window_protected_small_and_large(self):
        g = self.make()
        img_small = np.zeros(64, dtype=np.int32)
        img_small[0] = encode_pivot(0)
        # beyond ULOG capacity (2048 B = 512 slots)
        img_large = np.zeros(1024, dtype=np.int32)
        img_large[0] = encode_pivot(0)
        g.rebalancer.write_window_protected(0, 64, img_small, 0)
        np.testing.assert_array_equal(g.ea.slots[:64], img_small)
        g.ulogs[0].finish()
        g.rebalancer.write_window_protected(0, 1024, img_large, 0)
        np.testing.assert_array_equal(g.ea.slots[:1024], img_large)

    def test_merge_clears_full_sections_only(self):
        g = self.make(elog_size=96)
        before = g.logs.live_counts.sum()
        for d in range(300):  # forces several merges
            g.insert_edge(0, d % 16)
        # whatever remains pending is consistent with the degree totals
        total = int(g.va.degrees().sum())
        in_array = int(g.va.array_degree[: g.num_vertices].sum())
        in_logs = int(g.logs.live_counts.sum())
        assert total == in_array + in_logs == 300


class TestBoundarySectionClears:
    def test_partial_window_invalidation_preserves_siblings(self):
        """A rebalance window that partially covers a section must
        invalidate only the merged vertices' log entries there."""
        from repro.core.encoding import encode_edge

        g = DGAP(DGAPConfig(init_vertices=16, init_edges=1024, segment_slots=64))
        logs = g.logs
        # plant entries in section 0's log for two vertices: one whose
        # pivot is inside the clear window, one outside
        inside_v = int(-g.ea.slots[np.flatnonzero(g.ea.slots < 0)[0]]) - 1
        pivots = np.flatnonzero(g.ea.slots < 0)
        outside_candidates = [int(-g.ea.slots[p]) - 1 for p in pivots if p >= 64]
        outside_v = outside_candidates[0]
        ga = logs.append(0, inside_v, int(encode_edge(5)), -1)
        gb = logs.append(0, outside_v, int(encode_edge(6)), -1)
        g.rebalancer._clears_by_window(0, 64, logs.stream(0, 1))  # covers section 0 partially? no:
        # window [0, 64) == exactly section 0 -> full clear; use [0, 32)
        # to exercise the boundary path instead
        logs2 = g.logs
        if logs2.counts[0] == 0:
            # full-section path cleared everything; re-plant and do partial
            ga = logs2.append(0, inside_v, int(encode_edge(5)), -1)
            gb = logs2.append(0, outside_v, int(encode_edge(6)), -1)
        g.rebalancer._clears_by_window(0, 32, logs2.stream(0, 1))
        # the outside vertex's entry must survive, the inside one must not
        _, entries = logs2.stream(0, 1)
        live_srcs = {int(e[0]) - 1 for e in entries if e[1] != 0}
        assert outside_v in live_srcs
        assert inside_v not in live_srcs


class TestOneCommitSequence:
    """Every edge-array rewrite runs the Fig. 4 tail through
    ``Rebalancer._commit`` — once, in protocol order: mark done, finish,
    then the vertex-array move (where the rewrite moves runs)."""

    @pytest.fixture
    def spy(self, monkeypatch):
        from repro.core.rebalance import Rebalancer
        from repro.core.undo_log import UndoLog
        from repro.core.vertex_array import VertexArray

        events = []

        def record(cls, name, enter, leave=None):
            orig = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                events.append(enter)
                try:
                    return orig(self, *args, **kwargs)
                finally:
                    if leave:
                        events.append(leave)

            monkeypatch.setattr(cls, name, wrapper)

        record(UndoLog, "mark_done", "mark_done")
        record(UndoLog, "finish", "finish")
        record(VertexArray, "update_window", "update_window")
        record(Rebalancer, "_commit", "commit>", "<commit")
        return events

    @staticmethod
    def make(use_undo_log, **over):
        cfg = dict(init_vertices=16, init_edges=1024, segment_slots=64, elog_size=96)
        g = DGAP(DGAPConfig(**{**cfg, **over}, use_undo_log=use_undo_log))
        for d in range(40):
            g.insert_edge(5, d % 16)
        d = 0
        while not g.logs.counts.any():  # overflow vertex 0's gap into its log
            g.insert_edge(0, d % 16)
            d += 1
        return g

    @staticmethod
    def expected(use_undo_log, moves_runs=True):
        inner = (["mark_done", "finish"] if use_undo_log else []) + (
            ["update_window"] if moves_runs else []
        )
        return ["commit>", *inner, "<commit"]

    @pytest.mark.parametrize("use_undo_log", [True, False])
    def test_rebalance(self, spy, use_undo_log):
        g = self.make(use_undo_log)
        del spy[:]
        g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)
        assert spy == self.expected(use_undo_log)
        g.check_invariants()

    @pytest.mark.parametrize("use_undo_log", [True, False])
    def test_forced_merge(self, spy, use_undo_log):
        g = self.make(use_undo_log)
        sec = int(np.flatnonzero(g.logs.counts)[0])  # a section with pending entries
        del spy[:]
        g.rebalancer.merge_section(sec)
        assert spy == self.expected(use_undo_log)
        assert g.logs.counts[sec] == 0

    @pytest.mark.parametrize("use_undo_log", [True, False])
    def test_compact(self, spy, use_undo_log):
        g = self.make(use_undo_log)
        for d in range(8):
            g.delete_edge(0, d)
        del spy[:]
        assert g.compact()["pairs_dropped"] == 8
        assert spy == self.expected(use_undo_log)
        g.check_invariants()

    @pytest.mark.parametrize("use_undo_log", [True, False])
    def test_long_no_el_shift(self, spy, use_undo_log):
        """A shift longer than ULOG_SZ goes through the commit sequence
        with an empty done window; it bumps starts itself."""
        g = DGAP(DGAPConfig(init_vertices=4, init_edges=128, segment_slots=64,
                            use_edge_log=False, use_undo_log=use_undo_log, ulog_size=64))
        for d in range(40):  # a dense run (41 slots > ULOG_SZ) right of vertex 1's gap
            g.insert_edge(2, d)
        start2 = int(g.va.start[2])
        shifts = g.n_shift_inserts
        d = 0
        while g.n_shift_inserts == shifts:  # fill vertex 1's gap, then shift
            del spy[:]
            g.insert_edge(1, d)
            d += 1
        assert spy[: len(self.expected(use_undo_log, False))] == self.expected(use_undo_log, False)
        assert int(g.va.start[2]) == start2 + 1
        if use_undo_log:
            h = g.ulogs[0].read_header()
            assert h.done_lo == h.done_hi  # nothing merged, nothing to clear
        assert g.out_neighbors(1).tolist() == list(range(d))
        assert g.out_neighbors(2).tolist() == list(range(40))

    def test_copyback_recovery_redo(self, spy):
        """Recovery re-enters the sequence at the recorded state: the
        scratch copy is redone, then done → clears → finish."""
        g = self.make(True)
        image = np.arange(1, 65, dtype=np.int32)
        scratch = g.rebalancer._get_scratch(256)
        g.pool.device.ntstore(scratch.offset, image.view(np.uint8))
        g.pool.device.sfence()
        ul = g.ulogs[0]
        ul.begin_copyback(0, 64, scratch.offset, 256)
        del spy[:]
        assert g.rebalancer.recover_ulog(ul, g.logs.rebuild_counts()) is None
        assert spy == self.expected(True, moves_runs=False)
        np.testing.assert_array_equal(g.ea.slots[:64], image)


def test_compaction_too_big_for_the_array_resizes_filtered():
    """When even the filtered image cannot fit in place, the resize that
    takes the sweep over drops the matched pairs itself — one sweep, and
    its statistics are the resize's."""
    g = DGAP(DGAPConfig(init_vertices=4, init_edges=64, segment_slots=64, elog_size=2048))
    for i in range(140):
        g.insert_edge(1, i % 4)
    for d in (0, 1, 2):
        g.delete_edge(1, d)
    before = g.out_neighbors(1).tolist()
    assert g.ea.gen == 0 and int(g.va.degree[1]) - 6 > g.ea.capacity
    stats = g.compact()
    assert g.ea.gen == 1 and stats["slots"] == g.ea.capacity
    assert (stats["entries_before"], stats["pairs_dropped"], stats["tombstones_after"]) == (143, 3, 0)
    assert int(g.va.degree[1]) == 137 and g.tombstone_density() == 0
    assert g.out_neighbors(1).tolist() == before
    g.check_invariants()
