"""Unit tests for the batched mutation pipeline's building blocks.

Covers the three layers beneath ``DGAP.insert_edges``:

* :class:`~repro.core.batch.EdgeBatch` construction/validation/grouping;
* the device's batched persistence ops (``store_batch`` / ``flush_span``
  / ``sfence_batch`` / ``persist_batch``), whose contract is *counter
  equivalence*: identical integer :class:`PMemStats` and media bytes to
  the scalar ``store``/``clwb``/``sfence`` loop they replace;
* :class:`~repro.core.edge_log.EdgeLogs` commit-group appends.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.batch import EdgeBatch, extend_adjacency
from repro.core.edge_log import EdgeLogs
from repro.core.encoding import MAX_VERTEX, TOMB_BIT, encode_edge, worth
from repro.errors import GraphError, PMemError, SimulatedCrash, VertexRangeError
from repro.pmem import CACHE_LINE, DRAM, OPTANE_ADR, OPTANE_EADR, PMemDevice, PMemPool
from repro.pmem import device as dev_mod
from repro.pmem.alloc import Region
from repro.pmem.crash import CrashInjector
from repro.pmem.faults import FaultPolicy
from repro.pmem.latency import INPLACE_WINDOW
from repro.pmem.stats import INT_COUNTER_FIELDS

def int_stats(dev):
    return {k: getattr(dev.stats, k) for k in INT_COUNTER_FIELDS}


class TestEdgeBatch:
    def test_coerce_ndarray(self):
        arr = np.array([[1, 2], [3, 4], [1, 5]], dtype=np.int64)
        b = EdgeBatch.coerce(arr)
        assert len(b) == 3
        np.testing.assert_array_equal(b.src, [1, 3, 1])
        np.testing.assert_array_equal(b.dst, [2, 4, 5])
        assert not b.tombstone.any()

    def test_coerce_pairs_and_passthrough(self):
        b = EdgeBatch.coerce([(0, 1), (2, 3)])
        assert list(b) == [(0, 1), (2, 3)]
        assert EdgeBatch.coerce(b) is b

    def test_coerce_empty(self):
        assert len(EdgeBatch.coerce(np.empty((0, 2), dtype=np.int64))) == 0
        assert len(EdgeBatch.coerce([])) == 0

    def test_coerce_bad_shape(self):
        with pytest.raises(GraphError):
            EdgeBatch.coerce(np.zeros((3, 3), dtype=np.int64))

    def test_length_mismatch(self):
        with pytest.raises(GraphError):
            EdgeBatch(np.array([1, 2]), np.array([3]))

    def test_validation_bounds(self):
        with pytest.raises(VertexRangeError):
            EdgeBatch(np.array([-1]), np.array([0]))
        with pytest.raises(VertexRangeError):
            EdgeBatch(np.array([0]), np.array([MAX_VERTEX + 1]))
        EdgeBatch(np.array([0]), np.array([MAX_VERTEX]))  # boundary OK

    def test_single_and_max_vertex(self):
        b = EdgeBatch(np.array([7]), np.array([9]), np.array([True]))
        assert len(b) == 1 and b.tombstone[0]
        assert b.max_vertex() == 9
        assert EdgeBatch.empty().max_vertex() == -1

    def test_chunks(self):
        b = EdgeBatch(np.arange(10), np.arange(10))
        parts = list(b.chunks(4))
        assert [len(p) for p in parts] == [4, 4, 2]
        np.testing.assert_array_equal(
            np.concatenate([p.src for p in parts]), b.src
        )
        with pytest.raises(GraphError):
            list(b.chunks(0))

    def test_encoded_matches_scalar_encoding(self):
        b = EdgeBatch(
            np.array([0, 1, 2]), np.array([5, 6, 7]), np.array([False, True, False])
        )
        enc = encode_edge(b.dst, b.tombstone)
        assert enc[0] == encode_edge(5)
        assert enc[1] == encode_edge(6, tombstone=True)
        assert enc[1] & TOMB_BIT
        np.testing.assert_array_equal(worth(enc), [1, -1, 1])

    def test_extend_adjacency_preserves_per_src_order(self):
        adj = [[] for _ in range(4)]
        srcs = np.array([2, 0, 2, 1, 0, 2])
        dsts = np.array([9, 8, 7, 6, 5, 4])
        extend_adjacency(adj, srcs, dsts)
        assert adj == [[8, 5], [6], [9, 7, 4], []]

    # -- routing hooks (shard_keys / select), used by ShardRouter.split --

    def test_shard_keys_match_partition_function(self):
        from repro.sharding.partition import shard_of

        b = EdgeBatch(np.array([0, 1, 7, 8, 1024]), np.array([1, 2, 3, 4, 5]))
        for n in (1, 2, 3, 4):
            np.testing.assert_array_equal(
                b.shard_keys(n), shard_of(b.src, n)
            )
        with pytest.raises(GraphError):
            b.shard_keys(0)

    def test_route_empty_batch(self):
        from repro.sharding import ShardRouter

        assert ShardRouter(4).split(EdgeBatch.empty()) == []
        assert ShardRouter(1).split(EdgeBatch.empty()) == []

    def test_route_all_tombstone_batch(self):
        from repro.sharding import ShardRouter

        b = EdgeBatch(
            np.array([0, 1, 2, 3]),
            np.array([9, 9, 9, 9]),
            np.ones(4, dtype=bool),
        )
        parts = ShardRouter(2).split(b)
        assert sum(len(sub) for _, sub in parts) == 4
        for _, sub in parts:
            assert sub.tombstone.all()
            assert worth(encode_edge(sub.dst, sub.tombstone)).sum() == -len(sub)

    def test_route_single_vertex_hot_batch(self):
        # every edge shares one source: exactly one shard gets the whole
        # batch, and its local source is the same dense id throughout
        from repro.sharding import ShardRouter
        from repro.sharding.partition import shard_of, to_local

        src = 12
        b = EdgeBatch(np.full(32, src), np.arange(32))
        parts = ShardRouter(4).split(b)
        assert len(parts) == 1
        r, sub = parts[0]
        assert r == shard_of(src, 4)
        assert len(sub) == 32
        assert (sub.src == to_local(src, 4)).all()
        np.testing.assert_array_equal(sub.dst, b.dst)  # dsts stay global

    def test_select_preserves_tombstone_flags_and_copies(self):
        b = EdgeBatch(
            np.array([4, 5, 6, 7]),
            np.array([1, 2, 3, 4]),
            np.array([False, True, False, True]),
        )
        sub = b.select(np.array([1, 3]))
        np.testing.assert_array_equal(sub.tombstone, [True, True])
        np.testing.assert_array_equal(sub.src, [5, 7])
        sub.src[:] = 0  # a copy: mutating the sub-batch leaves b intact
        np.testing.assert_array_equal(b.src, [4, 5, 6, 7])

    def test_route_preserves_per_shard_stream_order(self):
        from repro.sharding import ShardRouter
        from repro.sharding.partition import shard_of, to_local

        rng = np.random.default_rng(3)
        srcs = rng.integers(0, 100, size=200)
        b = EdgeBatch(srcs, np.arange(200))
        for r, sub in ShardRouter(3).split(b):
            mask = shard_of(srcs, 3) == r
            np.testing.assert_array_equal(sub.src, to_local(srcs[mask], 3))
            np.testing.assert_array_equal(sub.dst, np.arange(200)[mask])


def _run_pattern(profile, fn_scalar, fn_batched):
    """Run the same op stream scalar vs batched; compare full device state."""
    a = PMemDevice(1 << 20, profile=profile)
    b = PMemDevice(1 << 20, profile=profile)
    fn_scalar(a)
    fn_batched(b)
    assert int_stats(a) == int_stats(b)
    assert abs(a.stats.modeled_ns - b.stats.modeled_ns) <= 1e-6 * max(
        1.0, a.stats.modeled_ns
    )
    np.testing.assert_array_equal(a.media, b.media)
    np.testing.assert_array_equal(a.buf, b.buf)
    assert a._dirty == b._dirty

    # The recent-flush maps may differ in already-expired entries (the
    # scalar path prunes lazily); only entries still inside the in-place
    # window can affect future classification.
    def effective(dev):
        lo = dev._flush_op + 1 - INPLACE_WINDOW
        return {ln: op for ln, op in dev._recent_flushes.items() if op >= lo}

    assert effective(a) == effective(b)
    assert a._flush_op == b._flush_op
    assert a._last_flush_line == b._last_flush_line
    assert a._last_media_xpline == b._last_media_xpline


PATTERNS = {
    # contiguous ascending units -> sequential flush stream
    "contiguous": np.arange(64, dtype=np.int64) * 12 + 256,
    # scattered offsets -> random-dominated
    "scattered": (np.arange(64, dtype=np.int64) * 977 + 64) % (1 << 18),
    # repeated same line -> in-place storm
    "inplace": np.tile(np.int64(512), 32),
    # strided across XPLines
    "strided": np.arange(32, dtype=np.int64) * 320,
    # a single unit
    "single": np.array([4096], dtype=np.int64),
    # units straddling cache-line boundaries
    "straddle": np.arange(16, dtype=np.int64) * 200 + CACHE_LINE - 4,
}


class TestDeviceBatchEquivalence:
    @pytest.mark.parametrize("profile", [OPTANE_ADR, OPTANE_EADR, DRAM])
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_persist_batch_counter_equivalent(self, profile, pattern):
        offs = PATTERNS[pattern]
        rng = np.random.default_rng(7)
        data = rng.integers(0, 2**31, size=(offs.size, 3), dtype=np.int32)

        def scalar(dev):
            rows = data.view(np.uint8).reshape(offs.size, -1)
            for i in range(offs.size):
                dev.store(int(offs[i]), rows[i], payload=4)
                dev.clwb(int(offs[i]), 12)
                dev.sfence()

        _run_pattern(
            profile, scalar, lambda dev: dev.persist_batch(offs, data, payload_per_unit=4)
        )

    def test_store_batch_without_flush(self):
        offs = PATTERNS["scattered"]
        data = np.arange(offs.size * 2, dtype=np.int32).reshape(offs.size, 2)

        def scalar(dev):
            rows = data.view(np.uint8).reshape(offs.size, -1)
            for i in range(offs.size):
                dev.store(int(offs[i]), rows[i])

        _run_pattern(OPTANE_ADR, scalar, lambda dev: dev.store_batch(offs, data))

    def test_flush_span_after_prewarmed_recent_flushes(self):
        # flushes issued *before* the batch can still classify the batch's
        # first `INPLACE_WINDOW` flushes as in-place.
        offs = np.array([0, 64, 128, 0, 64], dtype=np.int64)
        warm = np.array([0, 64], dtype=np.int64)

        def scalar(dev):
            for w in warm:
                dev.store(int(w), b"x" * 8)
                dev.clwb(int(w), 8)
            # interleaved per-unit store+flush — the stream flush_span models
            # (a repeated offset is re-stored, so its line is dirty again)
            for o in offs:
                dev.store(int(o), b"y" * 8)
                dev.clwb(int(o), 8)

        def batched(dev):
            for w in warm:
                dev.store(int(w), b"x" * 8)
                dev.clwb(int(w), 8)
            dev.store_batch(offs, np.frombuffer(b"y" * 8 * offs.size, dtype=np.uint8))
            dev.flush_span(offs, 8)

        _run_pattern(OPTANE_ADR, scalar, batched)
        # and the in-place path actually fired
        d = PMemDevice(1 << 20)
        batched(d)
        assert d.stats.inplace_flushes > 0

    def test_sfence_batch(self):
        def scalar(dev):
            for _ in range(17):
                dev.sfence()

        _run_pattern(OPTANE_ADR, scalar, lambda dev: dev.sfence_batch(17))

    def test_empty_batches_are_noops(self):
        dev = PMemDevice(1 << 16)
        before = int_stats(dev)
        z = np.empty(0, dtype=np.int64)
        dev.store_batch(z, np.empty(0, dtype=np.int32))
        dev.flush_span(z, 12)
        dev.sfence_batch(0)
        dev.persist_batch(z, np.empty(0, dtype=np.int32))
        assert int_stats(dev) == before

    def test_indivisible_data_rejected(self):
        dev = PMemDevice(1 << 16)
        with pytest.raises(PMemError):
            dev.store_batch(np.array([0, 64]), np.zeros(9, dtype=np.uint8))

    def test_out_of_range_rejected(self):
        dev = PMemDevice(1 << 12)
        with pytest.raises(PMemError):
            dev.store_batch(
                np.array([0, dev.size], dtype=np.int64), np.zeros(8, dtype=np.uint8)
            )


# ---------------------------------------------------------------------------
# one commit group (Region.write_batch) against its literal replay
# ---------------------------------------------------------------------------

def _group_lines(region, idxs, per_unit):
    """Distinct cache lines the group's units cover, ascending."""
    nbytes = per_unit * region.itemsize
    return sorted({
        ln
        for i in idxs
        for ln in range(
            region.byte_offset(i) // CACHE_LINE,
            (region.byte_offset(i) + nbytes - 1) // CACHE_LINE + 1,
        )
    })


def _replay_group(region, idxs, vals, payload):
    """The literal commit group: a store per unit, a clwb per distinct
    line in ascending order, one fence."""
    dev = region.device
    rows = vals.reshape(len(idxs), -1)
    for i, row in zip(idxs, rows):
        dev.store(region.byte_offset(i), row.tobytes(), payload=payload)
    for ln in _group_lines(region, idxs, rows.shape[1]):
        dev.clwb(ln * CACHE_LINE, CACHE_LINE)
    dev.sfence()


def _traced(dev, fn):
    """Run ``fn`` with a TRACE_HOOK that sums each event kind's count and bytes."""
    seen: dict = {}

    def hook(kind, count, nbytes):
        c, b = seen.get(kind, (0, 0))
        seen[kind] = (c + count, b + nbytes)

    dev_mod.TRACE_HOOK = hook
    try:
        fn()
    except SimulatedCrash:
        seen["raised"] = (1, 0)
    finally:
        dev_mod.TRACE_HOOK = None
    return seen


def _device_state(dev):
    lo = dev._flush_op + 1 - INPLACE_WINDOW  # older entries classify nothing
    return dict(
        stats=int_stats(dev),
        buf=dev.buf.tobytes(),
        media=dev.media.tobytes(),
        dirty=sorted(dev._dirty),
        pending=sorted(dev._pending.items()),
        poisoned=sorted(dev._poisoned),
        recent={ln: op for ln, op in dev._recent_flushes.items() if op >= lo},
        flush_op=dev._flush_op,
        last=(dev._last_flush_line, dev._last_media_xpline),
        injector=dict(dev.injector.counts),
    )


_UNITS = 256  # units of the largest kind the test region holds
_unit_sets = st.one_of(
    st.builds(  # contiguous: one run of adjacent units
        lambda a, n: list(range(a, min(a + n, _UNITS))),
        st.integers(0, _UNITS - 1), st.integers(1, 48),
    ),
    st.lists(st.integers(0, _UNITS - 1), min_size=1, max_size=48, unique=True),  # scattered
)


def _uncovered(idxs, per_unit, count):
    """The first region element no unit of the group covers, from the
    group's first unit on: another writer's word, which may share a
    cache line with the group."""
    covered = {i + j for i in idxs for j in range(per_unit)}
    return next(e for e in [*range(idxs[0], count), *range(count)] if e not in covered)


_PROFILES = {"adr": OPTANE_ADR, "eadr": OPTANE_EADR, "volatile": DRAM}


class TestCommitGroupReplay:
    """``Region.write_batch`` — the batched write path's commit group —
    leaves every counter, both images, the dirty / pending / poison sets,
    the flush-stream state and the TRACE_HOOK totals exactly where its
    literal replay leaves them, after an optional earlier group (its last
    flushes inside ``INPLACE_WINDOW`` of this one), over lines an earlier
    scalar store left dirty, beside another writer's unflushed store that
    may share a line with it (DESIGN.md §5), on the ADR, eADR and volatile
    profiles, over a poisoned line, under persist-reorder, and when an
    armed injector fires inside it."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        per_unit=st.sampled_from([1, 3]),  # 4 B slots, 12 B log entries
        units=_unit_sets,
        shift=st.integers(0, 2),
        prev=st.integers(0, 8),
        payload=st.sampled_from([None, 0, 4]),
        fault=st.sampled_from(["none", "poison", "reorder", "crash"]),
        crash_at=st.tuples(st.sampled_from(["store", "flush", "fence"]), st.integers(1, 64)),
        dirty=st.sampled_from(["none", "inside", "beside"]),
        profile=st.sampled_from(sorted(_PROFILES)),
    )
    @example(per_unit=1, units=[3, 9, 40], shift=0, prev=0, payload=4,
             fault="none", crash_at=("store", 1), dirty="inside", profile="adr")
    @example(per_unit=3, units=[5, 6, 90], shift=1, prev=2, payload=4,
             fault="none", crash_at=("store", 1), dirty="beside", profile="adr")
    @example(per_unit=3, units=[1, 40, 2, 80], shift=0, prev=1, payload=4,
             fault="crash", crash_at=("flush", 2), dirty="beside", profile="eadr")
    @example(per_unit=1, units=list(range(10, 30)), shift=0, prev=3, payload=None,
             fault="none", crash_at=("store", 1), dirty="inside", profile="volatile")
    @example(per_unit=3, units=[5, 6, 90], shift=1, prev=2, payload=4,
             fault="reorder", crash_at=("store", 1), dirty="beside", profile="adr")
    @example(per_unit=1, units=list(range(0, 40)), shift=0, prev=0, payload=4,
             fault="none", crash_at=("store", 1), dirty="none", profile="adr")
    @example(per_unit=3, units=[5, 90, 17, 200, 3], shift=0, prev=3, payload=4,
             fault="none", crash_at=("store", 1), dirty="none", profile="adr")
    @example(per_unit=1, units=[7, 200, 8, 64, 65], shift=1, prev=8, payload=0,
             fault="poison", crash_at=("store", 1), dirty="none", profile="adr")
    @example(per_unit=3, units=list(range(10, 30)), shift=0, prev=2, payload=None,
             fault="reorder", crash_at=("store", 1), dirty="none", profile="adr")
    @example(per_unit=3, units=[1, 40, 2, 80], shift=0, prev=1, payload=4,
             fault="crash", crash_at=("flush", 2), dirty="none", profile="adr")
    @example(per_unit=1, units=list(range(50)), shift=0, prev=0, payload=4,
             fault="crash", crash_at=("store", 30), dirty="none", profile="adr")
    @example(per_unit=1, units=[3, 9], shift=2, prev=4, payload=4,
             fault="crash", crash_at=("fence", 1), dirty="none", profile="adr")
    def test_write_batch_equals_its_literal_replay(
        self, per_unit, units, shift, prev, payload, fault, crash_at, dirty, profile
    ):
        idxs = [u * per_unit + shift % per_unit for u in units]
        rng = np.random.default_rng(len(units) * 7 + shift)
        shape = (len(idxs),) if per_unit == 1 else (len(idxs), per_unit)
        vals = rng.integers(1, 1 << 30, size=shape).astype(np.int32)
        early = rng.integers(1, 1 << 30, size=(prev,) + shape[1:]).astype(np.int32)
        faults = FaultPolicy(persist_reorder=True, seed=3) if fault == "reorder" else None
        states, hooks = [], []
        for batched in (True, False):
            dev = PMemDevice(1 << 16, profile=_PROFILES[profile], faults=faults)
            region = Region(dev, 1024, np.int32, _UNITS * 3 + 2, "r")

            def group(ix, vs):
                if batched:
                    region.write_batch(ix, vs, payload_per_unit=payload)
                else:
                    _replay_group(region, ix, vs, payload)

            if prev:  # an earlier group over the same lines, just flushed
                group(idxs[:prev], early[: len(idxs[:prev])])
            if dirty != "none":  # a scalar store, left unflushed
                at = idxs[-1] if dirty == "inside" else _uncovered(idxs, per_unit, region.count)
                region.write(at, 0x5A5A)
            if fault == "poison":
                dev.poison(region.byte_offset(idxs[-1]))
            if fault == "crash":
                kind, k = crash_at
                n = {"store": len(idxs), "fence": 1,
                     "flush": len(_group_lines(region, idxs, per_unit))}[kind]
                dev.injector.arm(min(k, n), kind)
            hooks.append(_traced(dev, lambda: group(idxs, vals)))
            states.append(_device_state(dev))
        batched, replay = states
        assert hooks[0] == hooks[1]
        assert batched == replay
        if fault == "crash":
            assert "raised" in hooks[0]


    @pytest.mark.parametrize("setting", ["default", "armed", "reorder"])
    def test_group_is_one_pass_unless_an_armed_injector_needs_the_literal_sequence(
        self, setting, monkeypatch
    ):
        """By default and under persist-reorder a group runs as one device
        pass; under an armed injector it runs ``store_batch`` /
        ``flush_span`` / ``sfence``, each once."""
        faults = FaultPolicy(persist_reorder=True, seed=3) if setting == "reorder" else None
        dev = PMemDevice(1 << 16, faults=faults)
        region = Region(dev, 1024, np.int32, 64, "r")
        if setting == "armed":
            dev.injector.arm(10**6)  # armed, never reached
        calls = dict.fromkeys(("store_batch", "flush_span", "sfence", "_store_units",
                               "_flush_lines"), 0)
        for name in calls:
            def counted(*args, _fn=getattr(PMemDevice, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(PMemDevice, name, counted)
        region.write_batch([1, 9, 30], np.array([5, 6, 7], dtype=np.int32))
        literal = int(setting == "armed")  # which loops per unit
        assert calls == {"store_batch": literal, "flush_span": literal, "sfence": 1,
                         "_store_units": 1 - literal, "_flush_lines": 1 - literal}


class TestRecentFlushBound:
    def test_recent_flushes_stay_bounded_scalar(self):
        dev = PMemDevice(8 << 20)
        cap = dev.recent_flush_capacity
        for i in range(4 * cap):
            off = i * CACHE_LINE
            dev.store(off, b"z" * 8)
            dev.clwb(off, 8)
        assert len(dev._recent_flushes) <= cap

    def test_recent_flushes_stay_bounded_batched(self):
        dev = PMemDevice(8 << 20)
        offs = np.arange(4 * dev.recent_flush_capacity, dtype=np.int64) * CACHE_LINE
        dev.persist_batch(offs, np.zeros((offs.size, 2), dtype=np.int32))
        assert len(dev._recent_flushes) <= dev.recent_flush_capacity

    def test_eviction_never_changes_classification(self):
        # Revisit a line *after* more than INPLACE_WINDOW other flushes:
        # must be random whether or not its entry was evicted.
        dev = PMemDevice(8 << 20)
        w = INPLACE_WINDOW
        lines = list(range(1, 3 * w)) + [0]
        dev.store(0, b"a" * 8)
        dev.clwb(0, 8)
        for ln in lines:
            dev.store(ln * CACHE_LINE, b"b" * 8)
            dev.clwb(ln * CACHE_LINE, 8)
        assert dev.stats.inplace_flushes == 0


class TestTickMany:
    def test_counts_match_scalar(self):
        a, b = CrashInjector(), CrashInjector()
        for _ in range(5):
            a.tick("store")
        b.tick_many("store", 5)
        assert a.counts == b.counts

    def test_armed_plan_fires_at_exact_index(self):
        inj = CrashInjector()
        inj.arm(3, "flush")
        inj.tick_many("store", 10)  # non-matching kind: no fire
        with pytest.raises(SimulatedCrash) as ei:
            inj.tick_many("flush", 5)
        assert inj.counts["flush"] == 3  # events past the crash never happen
        assert ei.value.op == "flush"

    def test_plan_beyond_run_decrements(self):
        inj = CrashInjector()
        inj.arm(10, "store")
        inj.tick_many("store", 4)
        assert inj.remaining == 6
        assert inj.plan.countdown == 10  # the plan itself is never mutated
        assert inj.counts["store"] == 4

    def test_armed_device_falls_back_to_scalar_loop(self):
        dev = PMemDevice(1 << 16)
        dev.injector.arm(5, "store")
        offs = np.arange(8, dtype=np.int64) * 64
        with pytest.raises(SimulatedCrash):
            dev.persist_batch(offs, np.zeros((8, 2), dtype=np.int32))
        # exactly 4 stores landed before the planned 5th
        assert dev.stats.stores == 4


class TestEdgeLogBatchedAppends:
    @pytest.fixture
    def pool(self):
        return PMemPool(4 << 20)

    def _scalar_logs(self, pool_size=4 << 20, **kw):
        return EdgeLogs(PMemPool(pool_size), **kw)

    def test_append_scatter_interleaved_equivalent(self, pool):
        kw = dict(n_sections=4, entries_per_section=32)
        a = self._scalar_logs(**kw)
        b = EdgeLogs(pool, **kw)
        # entries alternating between sections, as a batch's stream order does
        secs = np.array([0, 3, 0, 1, 3, 0], dtype=np.int64)
        srcs = np.array([5, 9, 5, 7, 9, 6], dtype=np.int64)
        encs = np.array([int(encode_edge(d)) for d in (1, 2, 3, 4, 5, 6)])
        backs = np.array([-1, -1, 0, -1, 33, -1], dtype=np.int64)
        ga = [
            a.append(int(s), int(v), int(e), int(bk))
            for s, v, e, bk in zip(secs, srcs, encs, backs)
        ]
        # caller-assigned gidxs: each section's cursor run, in stream order
        slot = np.zeros(4, dtype=np.int64)
        gidxs = np.empty(6, dtype=np.int64)
        for i, s in enumerate(secs):
            gidxs[i] = s * kw["entries_per_section"] + slot[s]
            slot[s] += 1
        base = int_stats(b.pool.device)
        gb = b.append_scatter(gidxs, srcs, encs, backs)
        assert ga == gb.tolist()
        # one commit group: the scalar loop's stores and bytes, but one
        # flush per distinct line (3 sections -> 3 lines here) and one fence
        sa, sb = int_stats(a.pool.device), int_stats(b.pool.device)
        for k in ("stores", "stored_bytes", "payload_bytes"):
            assert sa[k] == sb[k]
        assert sb["fences"] - base["fences"] == 1
        assert sb["flushes"] - base["flushes"] == 3
        assert b.pool.device.dirty_lines == 0
        np.testing.assert_array_equal(a.pool.device.media, b.pool.device.media)
        np.testing.assert_array_equal(a.region.view, b.region.view)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.live_counts, b.live_counts)
        np.testing.assert_array_equal(a.peak_counts, b.peak_counts)

    def test_append_scatter_overflow(self, pool):
        logs = EdgeLogs(pool, n_sections=2, entries_per_section=4)
        logs.append(0, 1, int(encode_edge(1)), -1)
        logs.append(0, 1, int(encode_edge(2)), -1)
        # 3 more entries would push section 0 past its 4-entry capacity
        gidxs = np.arange(3, dtype=np.int64)
        z = np.zeros(3, dtype=np.int64)
        with pytest.raises(PMemError):
            logs.append_scatter(gidxs, z, z + 1, z - 1)
