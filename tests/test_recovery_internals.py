"""Focused tests on recovery internals: scans, replay, reissue, DONE protocol."""

import numpy as np
import pytest

from repro import DGAP, DGAPConfig, SimulatedCrash
from repro.core.encoding import encode_pivot
from repro.core.recovery import _scan_edge_array
from repro.core.undo_log import STATE_IDLE
from repro.errors import GraphError, RecoveryError
from repro.pmem import CrashInjector

CFG = dict(init_vertices=16, init_edges=512, segment_slots=64)


class TestPivotScan:
    def test_scan_matches_dram_state(self):
        g = DGAP(DGAPConfig(**CFG))
        g.insert_edges([(i % 16, (i * 3) % 16) for i in range(400)])
        starts, array_deg, live = _scan_edge_array(g)
        np.testing.assert_array_equal(starts, g.va.starts())
        np.testing.assert_array_equal(array_deg, g.va.array_degree[: g.num_vertices])

    def test_scan_detects_corruption(self):
        g = DGAP(DGAPConfig(**CFG))
        # stomp a pivot with an out-of-order id, bypassing the API
        ppos = np.flatnonzero(g.ea.slots < 0)
        off = g.ea.byte_off(int(ppos[3]))
        g.pool.device.buf[off : off + 4] = np.frombuffer(
            np.int32(-1).tobytes(), dtype=np.uint8
        )  # vertex 0's pivot duplicated later
        with pytest.raises(RecoveryError):
            _scan_edge_array(g)

    @pytest.mark.parametrize("reader", ["crash_open", "check_invariants"])
    @pytest.mark.parametrize("stomp", ["not_dense", "not_increasing"])
    def test_both_readers_refuse_a_corrupt_pivot_image(self, stomp, reader):
        """Recovery's pivot scan and the invariant check are one scan: a
        pivot id past the vertex count, or two pivots out of order, is
        refused by either, persisted through the device."""
        g = DGAP(DGAPConfig(**CFG))
        g.insert_edges([(i % 16, (i * 3) % 16) for i in range(100)])
        ppos = np.flatnonzero(g.ea.slots < 0)
        if stomp == "not_dense":  # still increasing: the last pivot names vertex 20
            at, ids = ppos[-1:], [20]
        else:  # still dense: vertices 2 and 3 swap pivots
            at, ids = ppos[2:4], [3, 2]
        for p, v in zip(at.tolist(), ids):
            g.pool.device.ntstore(g.ea.byte_off(p), encode_pivot(v).tobytes(), payload=0)
        g.pool.device.sfence()
        if reader == "check_invariants":
            with pytest.raises(GraphError, match="pivot ids"):
                g.check_invariants()
        else:
            g.pool.crash()
            with pytest.raises(RecoveryError, match="pivot ids"):
                DGAP.open(g.pool, g.config)

    def test_scan_counts_tombstones(self):
        g = DGAP(DGAPConfig(**CFG))
        g.insert_edge(1, 2)
        g.delete_edge(1, 2)
        # force both into the array (they are: gap inserts)
        starts, array_deg, live = _scan_edge_array(g)
        assert array_deg[1] == 2  # slot count
        assert live[1] == 0  # tombstone-adjusted


class TestUlogRecoveryBranches:
    def make(self):
        return DGAP(DGAPConfig(**CFG))

    def test_idle_is_noop(self):
        g = self.make()
        assert g.rebalancer.recover_ulog(g.ulogs[0], g.logs.rebuild_counts()) is None

    def test_active_with_backup_restores_and_reports_window(self):
        g = self.make()
        ul = g.ulogs[0]
        original = g.ea.slots[:64].copy()
        ul.snapshot_window(0, 64, g.ea.byte_off(0), 256)
        g.pool.device.store(g.ea.byte_off(0), np.full(256, 7, np.uint8))
        g.pool.device.persist(g.ea.byte_off(0), 256)
        win = g.rebalancer.recover_ulog(ul, g.logs.rebuild_counts())
        assert win == (0, 64)
        np.testing.assert_array_equal(g.ea.slots[:64], original)
        assert ul.read_header().state == STATE_IDLE

    def test_done_completes_log_clears(self):
        g = DGAP(DGAPConfig(**CFG, elog_size=256))
        # vertex 0's first 63 edges fill its gap run; the rest go to
        # section 0's log.  Then a crash right after a merge marked DONE,
        # before the clears finished: recovery finishes them.
        for d in range(70):
            g.insert_edge(0, d % 16)
        assert g.logs.counts[0] > 0
        ul = g.ulogs[0]
        ul.snapshot_window(0, 64, g.ea.byte_off(0), 256)
        ul.mark_done(0, 64)
        g.rebalancer.recover_ulog(ul, g.logs.rebuild_counts())
        assert g.logs.counts[0] == 0
        assert ul.read_header().state == STATE_IDLE

    def test_copyback_redoes_copy(self):
        g = self.make()
        ul = g.ulogs[0]
        image = np.arange(1, 65, dtype=np.int32)  # fake final layout bytes
        scratch = g.rebalancer._get_scratch(256)
        g.pool.device.ntstore(scratch.offset, image.view(np.uint8))
        g.pool.device.sfence()
        ul.begin_copyback(0, 64, scratch.offset, 256)
        # crash before any copy happened; recovery must redo it fully
        g.rebalancer.recover_ulog(ul, g.logs.rebuild_counts())
        np.testing.assert_array_equal(g.ea.slots[:64], image)
        assert ul.read_header().state == STATE_IDLE


class TestAcknowledgementSemantics:
    def test_unacked_edge_may_or_may_not_survive(self):
        """A crash between PM persist and DRAM update: the in-flight edge
        is recovered (it is persistent) but was never acknowledged."""
        inj = CrashInjector()
        g = DGAP(DGAPConfig(**CFG), injector=inj)
        g.insert_edge(1, 2)
        # crash exactly at the fence of the next insert's slot persist
        inj.arm(1, "fence")
        with pytest.raises(SimulatedCrash):
            g.insert_edge(1, 3)
        g2 = DGAP.open(g.pool, g.config)
        nb = g2.out_neighbors(1).tolist()
        assert nb[:1] == [2]
        assert nb in ([2], [2, 3])

    def test_recovery_is_idempotent(self):
        g = DGAP(DGAPConfig(**CFG))
        g.insert_edges([(i % 16, i % 16 + 0) for i in range(200)])
        g.pool.crash()
        g2 = DGAP.open(g.pool, g.config)
        state1 = {v: g2.out_neighbors(v).tolist() for v in range(16)}
        g2.pool.crash()  # crash again immediately (nothing new written)
        g3 = DGAP.open(g2.pool, g2.config)
        state2 = {v: g3.out_neighbors(v).tolist() for v in range(16)}
        assert state1 == state2


# ----------------------------------------------------------------------
# poisoned regions: one verdict table for crash-time scrub and runtime repair
# (tests/test_resilience.py runs the same table against ResilienceManager)
# ----------------------------------------------------------------------
LINE, XPLINE = 64, 256


def poison_graph():
    """Vertex 0 holds an array run and a live log chain in section 0."""
    g = DGAP(DGAPConfig(**CFG, elog_size=96))
    i = 0
    while not g.logs.counts[0]:
        g.insert_edge(0, i % 16)
        i += 1
    return g


def first_line(g, name):
    """The first cache line of region ``name`` (regions start line-aligned)."""
    return g.pool._directory[name][0], LINE


def _case_ulog_pay_idle():
    g = poison_graph()
    return g, first_line(g, "ulog.pay.t0")


def _case_ulog_pay_active_valid():
    g = poison_graph()
    g.ulogs[0].snapshot_window(0, 64, g.ea.byte_off(0), 256)  # committed backup
    return g, first_line(g, "ulog.pay.t0")


def _case_scratch_unused():
    g = poison_graph()
    return g, (g.rebalancer._get_scratch(256).offset, LINE)


def _copyback_graph():
    g = poison_graph()
    scratch = g.rebalancer._get_scratch(256)
    g.ulogs[0].begin_copyback(0, 64, scratch.offset, 256)
    return g, scratch


def _case_scratch_copyback_source():
    g, scratch = _copyback_graph()
    return g, (scratch.offset + 128, LINE)


def _case_scratch_past_copyback_source():
    g, scratch = _copyback_graph()
    return g, (scratch.offset + 256, LINE)  # same region, beyond the image


def _restarted_graph():
    g = poison_graph()
    g.shutdown()  # allocates meta.*
    return DGAP.open(g.pool, g.config)


def _case_meta():
    g = _restarted_graph()
    return g, first_line(g, "meta.degree")


def _retired_line(part):
    """A line of generation 0's edge array (``"ea"``) or log region
    (``"logs"``) after the resize that retired it — and freed it at the
    flip: nobody's bytes any more."""
    g = poison_graph()
    line = first_line(g, getattr(g, part).region.name)
    g.rebalancer.resize()
    assert g.pool.region_of(line[0]) is None
    return g, line


def _case_edges_dead_generation():
    return _retired_line("ea")


def _case_elogs_dead_generation():
    return _retired_line("logs")


def _half_built_generation():
    """A switch that crashed between allocating the next generation's
    region and flipping to it: ``edges.g1`` is registered, never current."""
    g = poison_graph()
    half = g.pool.alloc_array("edges.g1", np.int32, g.ea.capacity)
    return g, half


def _case_edges_half_built_generation():
    g, half = _half_built_generation()
    return g, (half.offset, LINE)


def _case_edges_committed_generation():
    g, half = _half_built_generation()  # ... its image committed, the root not flipped
    g.ulogs[0].begin_copyback(0, g.ea.capacity, half.offset, half.nbytes)
    return g, (half.offset + 128, LINE)


def _case_edges_live():
    g = poison_graph()
    g.rebalancer.resize()
    return g, first_line(g, "edges.g1")


def _case_elogs_live():
    g = poison_graph()
    return g, first_line(g, g.logs.region.name)


def _case_xpline_straddling_dead_and_live():
    g = _restarted_graph()
    if g.pool.allocator.cursor % XPLINE == 0:  # make the next region start mid-XPLine
        g.pool.alloc_array("meta.pad", np.uint8, LINE)
    g.rebalancer.resize()  # edges.g1 lands right behind the last meta array
    live_off = g.pool._directory["edges.g1"][0]
    assert live_off % XPLINE and g.pool.region_of(live_off - 1)[0].startswith("meta.")
    return g, (live_off // XPLINE * XPLINE, XPLINE)  # one ECC line holds both


#: case -> (builder returning ``(graph, (off, nbytes))``, verdict):
#: ``dead`` — nothing reads the bytes again, zeroing repairs them;
#: ``lost`` — something must read them and no copy exists;
#: ``live`` — current-generation edges/logs: lost to crash recovery,
#: structurally repairable only while DRAM metadata is alive.
POISON_CASES = {
    "ulog.pay-idle": (_case_ulog_pay_idle, "dead"),
    "ulog.pay-active-valid": (_case_ulog_pay_active_valid, "lost"),
    "scratch-unused": (_case_scratch_unused, "dead"),
    "scratch-copyback-source": (_case_scratch_copyback_source, "lost"),
    "scratch-past-copyback-source": (_case_scratch_past_copyback_source, "dead"),
    "meta": (_case_meta, "dead"),
    "edges-dead-generation": (_case_edges_dead_generation, "dead"),
    "elogs-dead-generation": (_case_elogs_dead_generation, "dead"),
    "edges-half-built-generation": (_case_edges_half_built_generation, "dead"),
    "edges-committed-generation": (_case_edges_committed_generation, "lost"),
    "edges-live": (_case_edges_live, "live"),
    "elogs-live": (_case_elogs_live, "live"),
    "xpline-straddling-dead-and-live": (_case_xpline_straddling_dead_and_live, "live"),
}


def plant_poison(g, off, n):
    """Poison exactly the cache lines of ``[off, off + n)`` (``poison()``
    widens to whole XPLines, which would reach into neighbor regions)."""
    g.pool.device._poisoned.update(range(off // LINE, (off + n - 1) // LINE + 1))


class TestCrashScrubVerdicts:
    @pytest.mark.parametrize("case", POISON_CASES)
    def test_crash_scrub_verdict(self, case):
        from repro.core.recovery import _scrub_poison

        build, verdict = POISON_CASES[case]
        g, (off, n) = build()
        g.pool.device.drain_all()
        plant_poison(g, off, n)
        before = g.pool.device.buf.copy()
        if verdict == "dead":
            _scrub_poison(g)
            assert not g.pool.device.poisoned_ranges()
            assert not g.pool.device.buf[off : off + n].any()  # zeroed
        else:
            with pytest.raises(RecoveryError, match="beyond repair"):
                _scrub_poison(g)
            # refused before anything was rewritten — live bytes sharing
            # a poisoned line with dead ones are never zeroed
            np.testing.assert_array_equal(g.pool.device.buf, before)
