"""Edge logs are read once, sequentially (``EdgeLogs.stream``).

A merge gathers pending entries by streaming the window's section logs
and grouping by source; crash recovery streams the whole log region once
and replays from that image.  Pinned here:

* the streamed group-by *is* every back-pointer chain, oldest first — on
  small geometries with tombstones and boundary sections holding
  invalidated siblings — and a damaged chain still raises;
* accounting: no random read anywhere on either path, every log byte
  charged exactly once, recovery cost independent of the pending volume;
* poison and transient read faults still surface from the stream.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.core.edge_log import ENTRY_BYTES, EdgeLogs
from repro.core.encoding import encode_edge
from repro.core.rebalance import Rebalancer
from repro.errors import GraphError, MediaError, PMemError
from repro.pmem.faults import FaultPolicy
from .harness.readpath_ref import back_pointer_walk, scalar_readpath

SMALL = dict(init_vertices=16, init_edges=256, elog_size=96, segment_slots=64)

# (src, dst, delete?) on a small vertex universe: 8-entry logs merge often
# and windows extended to whole runs end in partially covered sections.
op_streams = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15), st.booleans()),
    min_size=1,
    max_size=300,
)


def apply_ops(g: DGAP, ops, batch: int) -> None:
    present = set()
    pending = []

    def flush():
        if pending:
            g.insert_edges(np.asarray(pending, dtype=np.int64), batch_size=batch)
            pending.clear()

    for src, dst, delete in ops:
        if delete and (src, dst) in present:
            flush()
            g.delete_edge(src, dst)
            present.discard((src, dst))
        else:
            pending.append((src, dst))
            present.add((src, dst))
            if batch == 1:
                flush()
    flush()


def streamed_log_bytes(logs, s_lo: int, s_hi: int) -> int:
    """Independent restatement of the load sizes: one load per run of
    adjacent non-empty sections, up to the run's last cursor."""
    total, run_start, prev = 0, None, None
    for s in range(s_lo, s_hi + 1):
        nonempty = s < s_hi and logs.counts[s] > 0
        if nonempty and run_start is None:
            run_start = s
        if not nonempty and run_start is not None:
            total += ((prev - run_start) * logs.entries_per_section + int(logs.counts[prev])) * ENTRY_BYTES
            run_start = None
        if nonempty:
            prev = s
    return total


def skewed_edges(n_edges: int) -> np.ndarray:
    rng = np.random.default_rng(5)
    return np.stack(
        [rng.zipf(1.5, n_edges) % 16, rng.integers(0, 64, n_edges)], axis=1
    ).astype(np.int64)


def grown_graph(n_edges: int = 264, **cfg) -> DGAP:
    """Skewed ingest stopped while chains are pending: 264 edges leave
    3/4/3/7 entries in the adjacent logs 0-3 (16 sections after one
    resize), 864 leave 5/5/1/7 in the scattered logs 9, 11, 13, 14."""
    g = DGAP(DGAPConfig(**{**SMALL, **cfg}))
    g.insert_edges(skewed_edges(n_edges), batch_size=8)
    assert g.logs.live_counts.sum() > 0
    return g


def neighbors(g: DGAP) -> dict:
    return {v: list(map(int, g.out_neighbors(v))) for v in range(g.num_vertices)}


class TestStreamedGroupByIsTheChain:
    @given(op_streams, st.sampled_from([1, 7, 64]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_every_gather_matches_the_back_pointer_walk(self, ops, batch):
        g = DGAP(DGAPConfig(**SMALL))
        gather = Rebalancer._gather
        seen = {"gathers": 0}

        def checked(self, lo, hi, i0, j):
            va, logs = self.host.va, self.host.logs
            walked = []
            for v in range(i0, j):
                chain = back_pointer_walk(logs, int(va.el[v]))
                assert all(src == v for _, src, _ in chain)
                walked.append(([c[0] for c in chain], [c[2] for c in chain]))
            res = gather(self, lo, hi, i0, j)
            off = 0
            for k, (gi, encs) in enumerate(walked):
                ad = int(va.array_degree[i0 + k])
                assert res.runs[k][ad:].tolist() == encs
                assert res.chain_gidxs[off : off + len(gi)].tolist() == gi
                off += len(gi)
            assert off == res.chain_gidxs.size
            seen["gathers"] += 1
            return res

        with mock.patch.object(Rebalancer, "_gather", checked):
            apply_ops(g, ops, batch)
            g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)
        assert seen["gathers"] >= 1
        g.check_invariants()

    def test_boundary_sections_keep_invalidated_siblings_out_of_later_gathers(self):
        """A partially covered section keeps its log; the merged vertices'
        entries in it are invalidated and must not resurface."""
        g = grown_graph(864)
        before = neighbors(g)
        # section 10's window extends to slots [585, 735): section 9 is
        # only partially covered, so vertex 4's five entries in its log
        # are invalidated in place and the cursor stays put
        assert g.rebalancer._extend(640, 704)[:2] == (585, 735)
        assert g.logs.counts[9] == 5 and g.logs.live_counts[9] == 5
        g.rebalancer.rebalance_window(10, 11, 0)
        assert g.logs.counts[9] == 5 and g.logs.live_counts[9] == 0
        assert g.va.el[4] == -1
        while g.logs.live_counts[9] == 0:  # fill vertex 4's gaps, then its log
            g.insert_edge(4, 63)
            before[4].append(63)
        assert g.logs.counts[9] == 6 and g.va.el[4] == g.logs.gidx(9, 5)
        res = g.rebalancer._gather(0, g.ea.capacity, 0, g.va.num_vertices)
        dead = np.arange(g.logs.gidx(9, 0), g.logs.gidx(9, 5))
        assert np.isin(dead, res.log_rows[0]).all()  # streamed ...
        assert not np.isin(dead, res.chain_gidxs).any()  # ... but never merged
        assert g.logs.gidx(9, 5) in res.chain_gidxs
        g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)
        g.check_invariants()
        assert neighbors(g) == before

    @pytest.mark.parametrize("readpath", [nullcontext, scalar_readpath],
                             ids=["vectorized", "scalar"])
    def test_damaged_chains_still_raise(self, readpath):
        with readpath():
            self._damaged_chains_raise()

    def _damaged_chains_raise(self):
        def fresh():
            g = grown_graph()
            v = int(np.argmax(g.va.degree[:16] - g.va.array_degree[:16]))
            assert g.va.degree[v] - g.va.array_degree[v] >= 2
            return g, v, (0, g.ea.capacity, 0, g.va.num_vertices)

        g, v, whole = fresh()  # an invalidated hop: the chain comes up short
        g.logs.invalidate_entries([int(g.va.el[v])])
        with pytest.raises(PMemError, match=f"vertex {v} reached an invalidated entry"):
            g.rebalancer._gather(*whole)

        g, v, whole = fresh()  # an entry the vertex array never counted
        sec = g.ea.section_of(int(g.va.start[v]) - 1)
        g.logs.append(sec, v, int(encode_edge(1)), int(g.va.el[v]))
        with pytest.raises(GraphError, match=f"vertex {v} is corrupt"):
            g.rebalancer._gather(*whole)

        g, v, whole = fresh()  # right count, wrong head
        older = back_pointer_walk(g.logs, int(g.va.el[v]))[-2][0]
        g.va.set_el(v, older)
        with pytest.raises(GraphError, match=f"vertex {v} is corrupt"):
            g.rebalancer._gather(*whole)


class TestAccounting:
    def test_gather_reads_window_and_log_prefixes_sequentially(self):
        for g in (grown_graph(264), grown_graph(864)):
            S = g.ea.segment_slots
            pending = int(g.logs.live_counts.sum())
            for lo_seg, hi_seg in ((0, 1), (1, 3), (9, 15), (0, g.ea.n_sections)):
                lo, hi, i0, j = g.rebalancer._extend(lo_seg * S, hi_seg * S)
                before = g.pool.stats.snapshot()
                g.rebalancer._gather(lo, hi, i0, j)
                d = g.pool.stats.delta_since(before)
                assert d.rnd_reads == 0
                assert d.seq_read_bytes == (hi - lo) * 4 + streamed_log_bytes(
                    g.logs, lo // S, -(-hi // S)
                )
            assert pending == int(g.logs.live_counts.sum())  # gathers only read
        # scattered logs 9, 11, 13, 14: three loads, the last spanning 13's tail
        assert streamed_log_bytes(g.logs, 0, 16) == (5 + 5 + 8 + 7) * ENTRY_BYTES

    def test_whole_merge_issues_no_random_read(self):
        g = grown_graph()
        before = g.pool.stats.snapshot()
        g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)
        d = g.pool.stats.delta_since(before)
        assert d.rnd_reads == 0
        assert g.logs.live_counts.sum() == 0
        g.check_invariants()

    def test_recovery_reads_each_region_once_and_nothing_at_random(self):
        g = grown_graph()
        g.pool.crash()
        before = g.pool.stats.snapshot()
        g2 = DGAP.open(g.pool, g.config)
        d = g.pool.stats.delta_since(before)
        assert d.rnd_reads == 0
        assert d.seq_read_bytes == g2.ea.capacity * 4 + g2.logs.region.nbytes
        g2.check_invariants()

    def test_recovery_cost_follows_geometry_not_pending_entries(self):
        costs, pendings = [], []
        for n_edges in (208, 808):
            g = grown_graph(n_edges, init_edges=2048)
            assert g.n_resizes == 0
            pendings.append(int(g.logs.live_counts.sum()))
            g.pool.crash()
            before = g.pool.stats.snapshot()
            DGAP.open(g.pool, g.config)
            costs.append(g.pool.stats.delta_since(before).modeled_ns)
        assert pendings[0] != pendings[1]
        # same terms in the same order; the deltas are differences of totals
        assert costs[0] == pytest.approx(costs[1], rel=1e-9)

    def test_normal_restart_reloads_metadata_without_rescanning(self):
        g = grown_graph()
        want = (g.ea.seg_occ.copy(), g.logs.counts.copy(), g.logs.live_counts.copy())
        g.shutdown()
        before = g.pool.stats.snapshot()
        g2 = DGAP.open(g.pool, g.config)
        d = g.pool.stats.delta_since(before)
        nv, n_sec = g2.va.num_vertices, g2.ea.n_sections
        assert d.seq_read_bytes == (5 * nv + 3 * n_sec) * 8  # the meta.* arrays only
        assert d.rnd_reads == 0
        for a, b in zip(want, (g2.ea.seg_occ, g2.logs.counts, g2.logs.live_counts)):
            np.testing.assert_array_equal(a, b)
        g2.check_invariants()
        g2.insert_edges(np.asarray([(3, 9), (3, 10), (0, 1)], dtype=np.int64))
        g2.rebalancer.rebalance_window(0, n_sec, g2.ea.tree.height)
        g2.check_invariants()


class TestFaultsSurfaceFromTheStream:
    def test_poisoned_live_log_line_raises_from_stream_and_merge(self):
        g = grown_graph()
        s = int(np.argmax(g.logs.counts))
        g.pool.device.poison(g.logs.region.byte_offset(g.logs._base(s)))
        with pytest.raises(MediaError):
            g.logs.stream(s, s + 1)
        with pytest.raises(MediaError):
            g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)

    def test_unappended_log_tail_is_not_read(self):
        g = grown_graph(elog_size=2048)  # 170-entry logs, a few entries used
        s = int(np.flatnonzero(g.logs.counts)[-1])  # last section of its run
        assert g.logs.counts[s] * ENTRY_BYTES < 512
        g.pool.device.poison(g.logs.region.byte_offset(g.logs._base(s)) + 1024)
        gidx, _ = g.logs.stream(0, g.ea.n_sections)
        assert gidx.size == g.logs.counts.sum()

    def test_transient_faults_in_recovery_stream_are_retried_or_escalated(self):
        pol = FaultPolicy(transient_read_rate=0.05, read_retries=4, seed=2)
        g = DGAP(DGAPConfig(**SMALL), faults=pol)
        edges = skewed_edges(264)
        with g.pool.device.suspend_runtime_faults():
            g.insert_edges(edges, batch_size=8)
            want = neighbors(g)
        g.pool.crash()
        before = g.pool.stats.snapshot()
        g2 = DGAP.open(g.pool, g.config)
        d = g.pool.stats.delta_since(before)
        assert d.transient_faults > 0 and d.read_retries >= d.transient_faults
        with g.pool.device.suspend_runtime_faults():
            assert neighbors(g2) == want

        hard = FaultPolicy(transient_read_rate=1.0, read_retries=2, seed=2)
        h = DGAP(DGAPConfig(**SMALL), faults=hard)
        with h.pool.device.suspend_runtime_faults():
            h.insert_edges(edges, batch_size=8)
        h.pool.crash()
        with pytest.raises(MediaError, match="transient fault persisted"):
            DGAP.open(h.pool, h.config)


class TestProfileRecoveryCheck:
    """``bench profile recovery --check`` gates the read pattern."""

    def trace_recovery(self):
        from repro.obs import Tracer, tracing

        g = grown_graph()
        g.pool.crash()
        tracer = Tracer(g.pool.stats)
        with tracing(tracer):
            DGAP.open(g.pool, g.config)
        return tracer

    def test_passes_on_the_streamed_recovery(self):
        from repro.obs import check_recovery_reads

        assert check_recovery_reads(self.trace_recovery()) == []

    def test_flags_a_second_log_stream_and_reads_in_replay(self):
        from repro.obs import check_recovery_reads
        from repro.core import recovery

        replay = recovery._replay_logs

        def rereading(host, image, *rest):
            host.logs.stream(0, host.logs.n_sections)
            return replay(host, image, *rest)

        with mock.patch.object(recovery, "_replay_logs", rereading):
            failures = check_recovery_reads(self.trace_recovery())
        assert len(failures) == 1 and "replay_logs read the device" in failures[0]

        rebuild = EdgeLogs.rebuild_counts

        def twice(logs):
            rebuild(logs)
            return rebuild(logs)

        with mock.patch.object(EdgeLogs, "rebuild_counts", twice):
            failures = check_recovery_reads(self.trace_recovery())
        assert len(failures) == 1 and "expected one sequential pass" in failures[0]
