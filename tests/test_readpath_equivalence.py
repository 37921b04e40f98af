"""Scalar-reference vs vectorized read-path equivalence.

The bulk pmem read layer (``load_batch``) rewrote the rebalance
gather/plan passes and the recovery scan/replay/cursor-rebuild as
whole-window NumPy operations over sequential streams;
``tests/harness/readpath_ref.py`` keeps the original per-slot/per-entry
loops as a reference, and its ``scalar_readpath()`` swaps them in while
the reference twin is built.  The contract is exact equivalence: same
results, same persistent bytes, and the same device accounting
(counters *and* modeled time, bit for bit).  These tests pin that
contract on randomized workloads, including tombstoned edges,
invalidated log entries, and torn (partially persisted) entries.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.core.edge_log import EdgeLogs
from repro.core.encoding import encode_edge
from repro.errors import PMemError
from repro.pmem import PMemPool
from .harness import readpath_ref
from .harness.readpath_ref import back_pointer_walk, scalar_readpath

common = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# (src, dst, delete?) op streams on a small vertex universe — small enough
# to hammer merges and rebalances, big enough to grow real chains.
op_streams = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15), st.booleans()),
    min_size=1,
    max_size=250,
)


CFG = DGAPConfig(
    init_vertices=16,
    init_edges=256,
    elog_size=96,  # 8 entries/section: frequent merges
    segment_slots=64,
)


#: the reference twin's read path, then the store's own
READPATHS = (scalar_readpath, contextlib.nullcontext)


def _build(ops) -> DGAP:
    g = DGAP(CFG)
    inserted = set()
    for src, dst, delete in ops:
        if delete and (src, dst) in inserted:
            g.delete_edge(src, dst)
            inserted.discard((src, dst))
        else:
            g.insert_edge(src, dst)
            inserted.add((src, dst))
    return g


def _assert_devices_equal(ga: DGAP, gb: DGAP) -> None:
    da, db = ga.pool.device, gb.pool.device
    assert np.array_equal(da.buf, db.buf)
    assert np.array_equal(da.media, db.media)
    sa, sb = vars(da.stats), vars(db.stats)
    assert sa == sb, {k: (sa[k], sb[k]) for k in sa if sa[k] != sb[k]}


def _assert_graphs_equal(ga: DGAP, gb: DGAP) -> None:
    _assert_devices_equal(ga, gb)
    va, vb = ga.va, gb.va
    nv = va.num_vertices
    assert nv == vb.num_vertices
    for name in ("degree", "live_degree", "array_degree", "start", "el"):
        np.testing.assert_array_equal(
            getattr(va, name)[:nv], getattr(vb, name)[:nv], err_msg=name
        )


class TestTwinWorkloads:
    """Whole-workload twins: every merge/rebalance lands identically."""

    @given(op_streams)
    @common
    def test_ingest_equivalence(self, ops):
        with scalar_readpath():
            gs = _build(ops)
        _assert_graphs_equal(gs, _build(ops))

    @given(op_streams)
    @common
    def test_crash_recovery_equivalence(self, ops):
        with scalar_readpath():
            gs = _build(ops)
            gs.pool.crash()
            rs = DGAP.open(gs.pool, gs.config)
        gv = _build(ops)
        gv.pool.crash()
        rv = DGAP.open(gv.pool, gv.config)
        _assert_graphs_equal(rs, rv)
        assert rs.num_edges == rv.num_edges

    @given(op_streams)
    @common
    def test_forced_rebalance_equivalence(self, ops):
        with scalar_readpath():
            gs = _build(ops)
            gs.rebalancer.rebalance_window(0, gs.ea.n_sections, gs.ea.tree.height)
        gv = _build(ops)
        gv.rebalancer.rebalance_window(0, gv.ea.n_sections, gv.ea.tree.height)
        _assert_graphs_equal(gs, gv)


class TestGatherPlanEquivalence:
    """The rebalance passes themselves, on the same graph instance."""

    @given(op_streams)
    @common
    def test_gather_matches_scalar(self, ops):
        g = _build(ops)
        lo, hi = 0, g.ea.capacity
        i0, j = 0, g.va.num_vertices
        res_v = g.rebalancer._gather(lo, hi, i0, j)
        res_s = readpath_ref.gather(g.rebalancer, lo, hi, i0, j)
        assert res_v.total == res_s.total
        np.testing.assert_array_equal(res_v.sizes, res_s.sizes)
        np.testing.assert_array_equal(res_v.values[: res_v.sizes.sum()],
                                      res_s.values[: res_s.sizes.sum()])
        np.testing.assert_array_equal(np.asarray(res_v.chain_gidxs),
                                      np.asarray(res_s.chain_gidxs))
        for rv, rs in zip(res_v.runs, res_s.runs):
            np.testing.assert_array_equal(rv, rs)

    @given(op_streams)
    @common
    def test_gather_accounting_matches_scalar(self, ops):
        deltas = []
        for readpath in READPATHS:
            with readpath():
                g = _build(ops)
                before = g.pool.device.stats.snapshot()
                g.rebalancer._gather(0, g.ea.capacity, 0, g.va.num_vertices)
                deltas.append(vars(g.pool.device.stats.delta_since(before)))
        assert deltas[0] == deltas[1]

    @given(op_streams)
    @common
    def test_plan_matches_scalar(self, ops):
        g = _build(ops)
        res = g.rebalancer._gather(0, g.ea.capacity, 0, g.va.num_vertices)
        image_v, starts_v = g.rebalancer._plan(res)
        image_s, starts_s = readpath_ref.plan(g.rebalancer, res)
        np.testing.assert_array_equal(np.asarray(image_v), np.asarray(image_s))
        np.testing.assert_array_equal(np.asarray(starts_v), np.asarray(starts_s))


class TestRecoveryEquivalenceWithFaults:
    """Cursor rebuild on logs with invalidated and torn entries."""

    @given(
        st.lists(  # (section, src, n_appends)
            st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(1, 10)),
            min_size=0,
            max_size=8,
        ),
        st.data(),
    )
    @common
    def test_rebuild_counts_equivalence(self, chains, data):
        pool = PMemPool(4 << 20)
        logs = EdgeLogs(pool, n_sections=4, entries_per_section=16)
        appended = []
        for section, src, n in chains:
            gidx = -1
            for k in range(n):
                if logs.counts[section] >= logs.capacity:
                    break
                gidx = logs.append(section, src, int(encode_edge(k)), gidx)
                appended.append(gidx)
        # invalidate a random subset (zero dst_enc, like post-merge cleanup)
        if appended:
            victims = data.draw(st.lists(st.sampled_from(appended), unique=True))
            logs.invalidate_entries(victims)
            # tear a random *interior* entry fully open: zero another field
            # too (a torn append persists any subset of its three fields)
            torn = data.draw(st.sampled_from(appended))
            s, slot = logs.locate(torn)
            logs.region.write(logs._base(s) + slot * 3 + 2, 0, payload=0)

        logs_v = EdgeLogs(pool, 4, 16, create=False)
        logs_v.rebuild_counts()
        logs_s = EdgeLogs(pool, 4, 16, create=False)
        readpath_ref.rebuild_counts(logs_s)
        np.testing.assert_array_equal(logs_v.counts, logs_s.counts)
        np.testing.assert_array_equal(logs_v.live_counts, logs_s.live_counts)

    def test_rebuild_counts_accounting_matches(self):
        pools = []
        for readpath in READPATHS:
            pool = PMemPool(1 << 20)
            logs = EdgeLogs(pool, 4, 16)
            g = -1
            for d in range(5):
                g = logs.append(2, 7, int(encode_edge(d)), g)
            before = pool.device.stats.snapshot()
            with readpath():
                logs.rebuild_counts()
            pools.append(vars(pool.device.stats.delta_since(before)))
        assert pools[0] == pools[1]

    @given(op_streams)
    @common
    def test_recovery_scan_and_replay_match_scalar(self, ops):
        from repro.core import recovery as rec

        outs = []
        for readpath in READPATHS:
            with readpath():
                g = _build(ops)
                g.pool.crash()
                g.logs.rebuild_counts()
                outs.append(rec._scan_edge_array(g))
        for a, b in zip(*outs):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


class TestChainErrors:
    """Every chain reader — gather (either arm), snapshot, invariant
    check — rejects an invalidated chain hop identically."""

    def test_walk_and_resolve_agree_on_invalidated(self):
        self._invalidated_hop_raises()
        with scalar_readpath():
            self._invalidated_hop_raises()

    def _invalidated_hop_raises(self):
        g = _build([])
        d = 0
        while g.va.degree[3] - g.va.array_degree[3] < 2:  # grow a 2-entry chain
            g.insert_edge(3, d % 16)
            d += 1
        oldest = back_pointer_walk(g.logs, int(g.va.el[3]))[0][0]
        g.logs.invalidate_entries([oldest])
        with pytest.raises(PMemError, match="vertex 3 reached an invalidated entry"):
            g.rebalancer._gather(0, g.ea.capacity, 0, g.va.num_vertices)
        with g.consistent_view() as snap:
            with pytest.raises(PMemError, match="vertex 3 reached an invalidated entry"):
                snap.out_neighbors(3)
        with pytest.raises(PMemError, match="vertex 3 reached an invalidated entry"):
            g.check_invariants()


class TestScratchBuffer:
    def test_grow_only_reuse(self):
        from repro.nputil import ScratchBuffer

        sb = ScratchBuffer()
        a = sb.take("x", 100, np.int64)
        assert a.size == 100
        b = sb.take("x", 50, np.int64)
        assert b.base is a.base or b.base is a  # same backing buffer reused
        c = sb.take("x", 10_000, np.int64)
        assert c.size == 10_000  # grew

    def test_zero_fill_and_dtype_keys(self):
        from repro.nputil import ScratchBuffer

        sb = ScratchBuffer()
        a = sb.take("k", 64, np.int32)
        a[:] = 7
        z = sb.take("k", 64, np.int32, zero=True)
        assert not z.any()
        other = sb.take("k", 64, np.int64)
        assert other.dtype == np.int64  # distinct per-dtype buffers

    def test_multi_arange_reference(self):
        from repro.nputil import multi_arange

        starts = np.asarray([5, 0, 100])
        counts = np.asarray([3, 0, 2])
        np.testing.assert_array_equal(multi_arange(starts, counts), [5, 6, 7, 100, 101])
        assert multi_arange(np.empty(0, np.int64), np.empty(0, np.int64)).size == 0
