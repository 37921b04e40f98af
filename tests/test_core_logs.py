"""Unit tests for the per-section edge logs and per-thread undo logs."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.core.edge_log import ENTRY_BYTES, EdgeLogs, group_chains, merge_point
from repro.core.encoding import encode_edge
from repro.core.undo_log import (
    STATE_ACTIVE,
    STATE_COPYBACK,
    STATE_DONE,
    STATE_IDLE,
    UndoLog,
)
from repro.errors import PMemError, SimulatedCrash
from repro.pmem import OPTANE_EADR, CrashInjector, PMemPool
from .harness import model
from .harness.readpath_ref import back_pointer_walk


@pytest.fixture
def pool():
    return PMemPool(4 << 20)


class TestEdgeLogs:
    def test_append_and_read(self, pool):
        logs = EdgeLogs(pool, n_sections=4, entries_per_section=16)
        g0 = logs.append(1, src=5, dst_enc=int(encode_edge(9)), back_gidx=-1)
        g1 = logs.append(1, src=5, dst_enc=int(encode_edge(11)), back_gidx=g0)
        assert logs.counts[1] == 2
        src, dst, back = logs.read_entry(g1)
        assert src == 5 and dst == int(encode_edge(11)) and back == g0
        assert logs.read_entry(g0)[2] == -1

    def test_chain_walk_newest_first(self, pool):
        """Following back-pointers from the head reads a vertex's entries
        newest first; grouping the appended rows yields the same chain."""
        logs = EdgeLogs(pool, 2, 16)
        g = -1
        for d in (1, 2, 3):
            g = logs.append(0, 7, int(encode_edge(d)), g)
        oldest_first = [int(encode_edge(d)) for d in (1, 2, 3)]
        assert [e[2] for e in back_pointer_walk(logs, g)] == oldest_first
        gidx, rows = logs.stream(0, 2)
        mine, _, _ = group_chains(gidx, rows, np.array([7]), chains_of({7: g}, [3]))
        assert rows[mine, 1].tolist() == oldest_first

    def test_fill_fraction_and_overflow(self, pool):
        logs = EdgeLogs(pool, 2, 4)
        for d in range(4):
            logs.append(0, 1, int(encode_edge(d)), -1)
        assert logs.counts[0] == logs.capacity
        with pytest.raises(PMemError):
            logs.append(0, 1, int(encode_edge(99)), -1)

    def test_merge_point_is_the_first_count_at_ninety_percent(self, pool):
        """For every capacity, the merge is due at the smallest count >= 1
        whose fill fraction reaches 0.90 — the float rule it replaced."""
        for cap in range(1, 4097):
            c = merge_point(cap)
            assert c / cap >= 0.90 and (c == 1 or (c - 1) / cap < 0.90), cap
        assert [merge_point(cap) for cap in (8, 10, 170)] == [8, 9, 153]
        assert EdgeLogs(pool, 2, 10).merge_at == 9  # 120 B logs merge below full

    def test_clear_section(self, pool):
        logs = EdgeLogs(pool, 2, 8)
        logs.append(0, 1, int(encode_edge(5)), -1)
        logs.clear_section(0)
        assert logs.counts[0] == 0 and logs.live_counts[0] == 0
        assert logs.stream(0, 1)[0].size == 0

    def test_invalidate_keeps_siblings(self, pool):
        logs = EdgeLogs(pool, 2, 8)
        ga = logs.append(0, 1, int(encode_edge(5)), -1)
        gb = logs.append(0, 2, int(encode_edge(6)), -1)
        logs.invalidate_entries([ga])
        assert logs.live_counts[0] == 1
        # sibling entry still readable, and still its vertex's whole chain
        assert logs.read_entry(gb)[0] == 2
        rows = logs.stream(0, 1)
        mine, counts, _ = group_chains(*rows, np.array([2]), chains_of({2: gb}, [1]))
        assert rows[0][mine].tolist() == [gb] and counts.tolist() == [1]
        with pytest.raises(PMemError, match="vertex 1 reached an invalidated entry"):
            group_chains(*rows, np.array([1, 2]), chains_of({1: ga, 2: gb}, [1, 1]))

    def test_rebuild_counts_after_crash(self, pool):
        logs = EdgeLogs(pool, 4, 8)
        for d in range(5):
            logs.append(2, 1, int(encode_edge(d)), -1)
        logs.append(3, 2, int(encode_edge(7)), -1)
        pool.crash()  # appends are persisted, DRAM counters survive anyway
        fresh = EdgeLogs(pool, 4, 8, create=False)
        fresh.rebuild_counts()
        np.testing.assert_array_equal(fresh.counts, [0, 0, 5, 1])
        np.testing.assert_array_equal(fresh.live_counts, [0, 0, 5, 1])

    def test_rebuild_counts_skips_invalidated_interior(self, pool):
        logs = EdgeLogs(pool, 1, 8)
        g0 = logs.append(0, 1, int(encode_edge(1)), -1)
        logs.append(0, 2, int(encode_edge(2)), -1)
        logs.invalidate_entries([g0])
        fresh = EdgeLogs(pool, 1, 8, create=False)
        fresh.rebuild_counts()
        assert fresh.counts[0] == 2  # append frontier after the last entry
        assert fresh.live_counts[0] == 1

    def test_entry_is_12_bytes(self):
        assert ENTRY_BYTES == 12


class TestUndoLog:
    def test_lifecycle(self, pool):
        ul = UndoLog(pool, 0, 2048)
        region = pool.alloc_array("data", np.uint8, 4096)
        ul.snapshot_window(100, 200, region.offset, 400)
        h = ul.read_header()
        assert h.state == STATE_ACTIVE and (h.win_lo, h.win_hi) == (100, 200)
        ul.mark_done(100, 200)
        assert ul.read_header().state == STATE_DONE
        ul.finish()
        assert ul.read_header().state == STATE_IDLE

    def test_restore_without_backup_is_noop(self):
        """ACTIVE with valid 0: a power failure between the two commit
        stores, on caches that persist them (eADR), leaves the state
        store without the valid one — and nothing to restore."""
        inj = CrashInjector()
        pool = PMemPool(4 << 20, profile=OPTANE_EADR, injector=inj)
        ul = UndoLog(pool, 0, 2048)
        region = pool.alloc_array("data", np.uint8, 4096)
        inj.arm(7, "store")  # payload, 4 intent words, state; the valid store never lands
        with pytest.raises(SimulatedCrash):
            ul.snapshot_window(0, 10, region.offset, 40)
        h = UndoLog(pool, 0, 2048, create=False).read_header()
        assert (h.state, h.valid) == (STATE_ACTIVE, 0)
        assert not ul.restore_if_valid()

    def test_snapshot_window_fused(self, pool):
        ul = UndoLog(pool, 0, 2048)
        region = pool.alloc_array("data", np.uint8, 4096, initial=3)
        fences_before = pool.stats.fences
        ul.snapshot_window(0, 128, region.offset, 512)
        assert pool.stats.fences - fences_before == 2  # the economy claim
        h = ul.read_header()
        assert h.state == STATE_ACTIVE and h.valid == 1 and h.length == 512
        pool.device.store(region.offset, np.zeros(512, np.uint8))
        pool.device.persist(region.offset, 512)
        assert ul.restore_if_valid()
        assert (region.view[:512] == 3).all()
        assert ul.read_header().valid == 0

    def test_oversize_backup_asserts(self, pool):
        ul = UndoLog(pool, 0, 256)
        with pytest.raises(AssertionError):
            ul.snapshot_window(0, 128, 0, 512)

    def test_copyback_state(self, pool):
        ul = UndoLog(pool, 0, 2048)
        ul.begin_copyback(0, 4096, 12345, 16384)
        h = ul.read_header()
        assert h.state == STATE_COPYBACK
        assert h.dst_off == 12345 and h.length == 16384

    def test_header_survives_crash(self, pool):
        ul = UndoLog(pool, 3, 2048)
        region = pool.alloc_array("data", np.uint8, 4096)
        ul.snapshot_window(64, 128, region.offset, 256)
        pool.crash()
        ul2 = UndoLog(pool, 3, 2048, create=False)
        h = ul2.read_header()
        assert h.state == STATE_ACTIVE and (h.win_lo, h.win_hi) == (64, 128)

    def test_per_thread_isolation(self, pool):
        a = UndoLog(pool, 0, 1024)
        b = UndoLog(pool, 1, 1024)
        region = pool.alloc_array("data", np.uint8, 4096)
        a.snapshot_window(0, 10, region.offset, 40)
        assert b.read_header().state == STATE_IDLE


class TestCompactionTombstoneAccounting:
    """Tombstone-merge sweeps vs the log/recovery accounting contracts.

    The audit behind the temporal expiry path: a compaction sweep
    removes *matched* tombstone+live pairs only, so

    * array entries shrink by exactly 2 per dropped pair and tombstone
      count by exactly 1 (the ``compact()`` stats ledger);
    * unmatched tombstones (deletes with no live copy) survive the
      sweep, which keeps the recovery scan's
      ``live = entries - 2 * tombstones`` derivation exact even for a
      fully-expired vertex run whose live degree is negative;
    * the per-section edge logs end the sweep drained (``el == -1`` for
      every vertex) with DRAM cursors that ``rebuild_counts`` reproduces
      from the persistent entries alone.
    """

    def graph(self):
        return DGAP(DGAPConfig(
            init_vertices=8, init_edges=256, segment_slots=64, elog_size=96
        ))

    def expired_run(self):
        """Vertex 3's run fully expires (every copy deleted), then two
        unmatched tombstones land on top; vertex 1 keeps live edges."""
        g = self.graph()
        for d in (0, 1, 2, 0, 4, 5):
            g.insert_edge(3, d)
        for d in (1, 2):
            g.insert_edge(1, d)
        for d in (0, 1, 2, 0, 4, 5):
            g.delete_edge(3, d)
        g.delete_edge(3, 6)  # unmatched: no live copy of (3, 6)
        g.delete_edge(3, 6)
        return g

    def test_stats_ledger_balances(self):
        g = self.expired_run()
        density_before = g.tombstone_density()
        stats = g.compact()
        assert stats["entries_before"] - stats["entries_after"] == \
            2 * stats["pairs_dropped"]
        assert stats["tombstones_before"] - stats["tombstones_after"] == \
            stats["pairs_dropped"]
        assert stats["pairs_dropped"] == 6
        assert stats["tombstones_after"] == 2  # the unmatched pair of deletes
        # non-increase is the contract; the surviving unmatched
        # tombstones keep this tiny graph pinned at 0.5
        assert g.tombstone_density() <= density_before
        assert g.n_compactions == 1
        assert g.tombstone_pairs_compacted == 6

    def test_fully_expired_run_keeps_scan_derivation_exact(self):
        g = self.expired_run()
        g.compact()
        va = g.va
        # the run is only the unmatched tombstones now
        assert int(va.degree[3]) == int(va.array_degree[3]) == 2
        assert int(va.live_degree[3]) == -2
        # recovery's derivation: live = entries - 2 * tombstones
        assert int(va.live_degree[3]) == int(va.degree[3]) - 2 * 2
        assert g.out_neighbors(3).size == 0
        np.testing.assert_array_equal(sorted(g.out_neighbors(1)), [1, 2])
        g.check_invariants()

    def test_logs_drained_and_cursors_rebuildable(self):
        g = self.graph()
        rng = np.random.default_rng(8)
        edges = rng.integers(0, 8, size=(150, 2), dtype=np.int64)
        g.insert_edges(edges)
        for s, d in edges[::3]:
            g.delete_edge(int(s), int(d))
        g.compact()
        assert (g.va.el[: g.num_vertices] == -1).all()  # every chain merged by the sweep
        counts = g.logs.counts.copy()
        live = g.logs.live_counts.copy()
        g.logs.rebuild_counts()
        np.testing.assert_array_equal(g.logs.counts, counts)
        np.testing.assert_array_equal(g.logs.live_counts, live)

    def test_recovery_after_compaction_rebuilds_same_state(self):
        g = self.expired_run()
        g.insert_edges(np.array([[5, 1], [5, 2], [5, 1]], dtype=np.int64))
        g.delete_edge(5, 1)
        g.compact()
        before = model.of(g)
        deg = g.va.degrees().copy()
        live = g.va.live_degrees().copy()
        g.pool.crash()
        g2 = DGAP.open(g.pool, g.config)
        assert model.of(g2) == before
        np.testing.assert_array_equal(g2.va.degrees(), deg)
        np.testing.assert_array_equal(g2.va.live_degrees(), live)
        assert g2.n_compactions == 0  # counters are runtime, not persistent
        g2.check_invariants()


def chains_of(heads: dict, lengths) -> SimpleNamespace:
    """A vertex array (``degree``, ``array_degree``, ``el``) whose vertex
    ``v`` has no array part and a chain of ``lengths[i]`` entries headed
    at ``heads[v]`` (``v = sorted(heads)[i]``)."""
    nv = max(heads) + 1
    degree = np.zeros(nv, dtype=np.int64)
    degree[sorted(heads)] = lengths
    el = np.full(nv, -1, dtype=np.int64)
    el[list(heads)] = list(heads.values())
    return SimpleNamespace(degree=degree, array_degree=np.zeros(nv, dtype=np.int64), el=el)


class TestChainArrayPaths:
    """The log readers: the sequential stream, its unaccounted twin, and
    the chain grouping over either."""

    def test_walk_chain_arrays_matches_walk_chain(self, pool):
        """One vertex's chain read as arrays (its section's rows grouped)
        is the back-pointer walk from its head, entry for entry."""
        logs = EdgeLogs(pool, 2, 16)
        g = -1
        for d in (4, 5, 6, 7):
            g = logs.append(1, 9, int(encode_edge(d)), g)
        gidx, rows = logs.peek([1])
        mine, counts, _ = group_chains(gidx, rows, np.array([9]), chains_of({9: g}, [4]))
        srcs = rows[mine, 0].astype(np.int64) - 1
        got = list(zip(gidx[mine].tolist(), srcs.tolist(), rows[mine, 1].tolist()))
        assert got == back_pointer_walk(logs, g)
        assert counts.tolist() == [4] and srcs.tolist() == [9, 9, 9, 9]

    def test_stream_groupby_matches_per_head_walks(self, pool):
        """Append order within a section, grouped by source, *is* each chain,
        oldest first — for an id range and for scattered ids alike."""
        logs = EdgeLogs(pool, 4, 16)
        heads = {}
        for d in range(5):  # interleave the appends of three co-located vertices
            for v in (0, 4, 8)[: 1 + d % 3]:
                heads[v] = logs.append(0, v, int(encode_edge(d)), heads.get(v, -1))
        heads[3] = logs.append(3, 3, int(encode_edge(7)), -1)
        gidx, rows = logs.stream(0, 4)
        assert (np.diff(gidx) > 0).all()
        walks = {v: back_pointer_walk(logs, h) for v, h in heads.items()}
        for vids in (sorted(heads), [0, 4], [3, 4]):
            held = {v: heads[v] for v in vids if v in heads}
            va = chains_of(held, [len(walks[v]) for v in sorted(held)])
            mine, counts, _ = group_chains(gidx, rows, np.array(vids), va)
            at = np.cumsum(counts) - counts
            for v, o, n in zip(vids, at.tolist(), counts.tolist()):
                sel = mine[o : o + n]
                assert gidx[sel].tolist() == [w[0] for w in walks.get(v, [])]
                assert rows[sel, 1].tolist() == [w[2] for w in walks.get(v, [])]
        # the unaccounted read of the same prefixes is the same rows
        before = pool.device.stats.snapshot()
        peeked = logs.peek([0, 3])
        assert pool.device.stats.delta_since(before).seq_read_bytes == 0
        np.testing.assert_array_equal(peeked[0], gidx)
        np.testing.assert_array_equal(peeked[1], rows)

    def test_a_chain_past_32_entries_groups_whole(self, pool):
        logs = EdgeLogs(pool, 8, 64)
        g = -1
        for d in range(50):
            g = logs.append(0, 1, int(encode_edge(d)), g)
        gidx, rows = logs.peek([0])
        mine, counts, _ = group_chains(gidx, rows, np.array([1]), chains_of({1: g}, [50]))
        assert counts.tolist() == [50]
        assert rows[mine, 1].tolist() == [int(encode_edge(d)) for d in range(50)]

    def test_stream_empty_and_out_of_window_sections(self, pool):
        logs = EdgeLogs(pool, 4, 8)
        before = pool.device.stats.snapshot()
        gidx, rows = logs.stream(0, 4)
        assert gidx.size == 0 and rows.shape == (0, 3)
        assert pool.device.stats.delta_since(before).seq_read_bytes == 0
        logs.append(2, 5, int(encode_edge(1)), -1)
        assert logs.stream(0, 2)[0].size == 0  # section 2 is outside [0, 2)
        assert logs.stream(2, 3)[0].tolist() == [logs.gidx(2, 0)]

    def test_stream_rows_match_read_entry_and_charge_prefix_bytes(self, pool):
        logs = EdgeLogs(pool, 4, 16)
        # sections 0, 1 adjacent (one coalesced load), 3 alone; 2 empty
        gs = [logs.append(s, i, int(encode_edge(i + 1)), -1)
              for i, s in enumerate((0, 0, 1, 3, 3, 3))]
        logs.invalidate_entries([gs[1]])  # invalidated entries are still streamed
        before = pool.device.stats.snapshot()
        gidx, rows = logs.stream(0, 4)
        d = pool.device.stats.delta_since(before)
        assert gidx.tolist() == sorted(gs)
        for row, g in zip(rows, gidx.tolist()):
            src, dst_enc, back = logs.read_entry(g)
            assert (int(row[0]) - 1, int(row[1]), int(row[2]) - 2) == (src, dst_enc, back)
        # run {0, 1}: all of section 0's log + section 1's prefix; run {3}: its prefix
        assert d.seq_read_bytes == (16 + 1) * ENTRY_BYTES + 3 * ENTRY_BYTES
        assert d.rnd_reads == 0
