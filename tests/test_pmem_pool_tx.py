"""Unit tests for pools, regions, allocators and PMDK-style transactions."""

import dataclasses

import numpy as np
import pytest

from repro.errors import OutOfPMemError, PMemError, PoolLayoutError, TransactionError
from repro.pmem import (
    DRAM,
    OPTANE_ADR,
    CrashInjector,
    PMemPool,
    Region,
    TransactionManager,
)
from repro.errors import SimulatedCrash


@pytest.fixture
def pool():
    return PMemPool(1 << 20)


class TestPool:
    def test_alloc_array_roundtrip(self, pool):
        r = pool.alloc_array("a", np.int64, 100, initial=0)
        r.write_slice(0, np.arange(100), persist=True)
        np.testing.assert_array_equal(pool.get_array("a").view, np.arange(100))

    def test_duplicate_root_rejected(self, pool):
        pool.alloc_array("a", np.int32, 4)
        with pytest.raises(PoolLayoutError):
            pool.alloc_array("a", np.int32, 4)

    def test_missing_root_rejected(self, pool):
        with pytest.raises(PoolLayoutError):
            pool.get_array("nope")

    def test_root_slots_survive_crash(self, pool):
        pool.write_root(3, 0xDEADBEEF)
        pool.crash()
        assert pool.read_root(3) == 0xDEADBEEF

    def test_root_slot_bounds(self, pool):
        with pytest.raises(PoolLayoutError):
            pool.read_root(64)
        with pytest.raises(PoolLayoutError):
            pool.write_root(-1, 0)

    def test_exhaustion(self):
        small = PMemPool(64 * 1024)
        with pytest.raises(OutOfPMemError):
            small.alloc_array("big", np.int64, 1 << 20)

    def test_alloc_survives_crash(self, pool):
        """The bump cursor is persistent: post-crash allocs don't overlap."""
        a = pool.alloc_array("a", np.int8, 1000, initial=7)
        pool.crash()
        b = pool.alloc_array("b", np.int8, 1000, initial=9)
        assert b.offset >= a.offset + 1000
        assert int(a.view[0]) == 7

    def test_rename_and_drop(self, pool):
        """A freed name is forgotten and free to register again, on the
        bytes it gave back (``free_array`` is the one way to retire a
        region: a shutdown's ``meta.*``, an outgrown mirror, a dead
        generation)."""
        a = pool.alloc_array("a", np.int32, 4)
        pool.free_array("a")
        assert not pool.has_array("a")
        with pytest.raises(PoolLayoutError):
            pool.get_array("a")
        assert pool.alloc_array("a", np.int32, 4).offset == a.offset


class TestRegion:
    def test_bounds_checked(self, pool):
        r = pool.alloc_array("r", np.int32, 10)
        with pytest.raises(PMemError):
            r.write(10, 1)
        with pytest.raises(PMemError):
            r.read_slice(8, 3)

    def test_scalar_write_read(self, pool):
        r = pool.alloc_array("r", np.int32, 10, initial=0)
        r.write(3, -77, persist=True)
        assert r.view[3] == -77

    def test_view_is_readonly(self, pool):
        r = pool.alloc_array("r", np.int32, 10, initial=0)
        with pytest.raises(ValueError):
            r.view[0] = 1

    def test_nt_write_slice_durable(self, pool):
        r = pool.alloc_array("r", np.int32, 100, initial=0)
        r.nt_write_slice(10, np.full(50, 6, dtype=np.int32))
        pool.device.sfence()
        pool.crash()
        assert (pool.get_array("r").view[10:60] == 6).all()

    def test_payload_accounting(self, pool):
        before = pool.stats.payload_bytes
        r = pool.alloc_array("r", np.int32, 10, initial=0)
        base = pool.stats.payload_bytes
        r.write(0, 1, payload=4)
        assert pool.stats.payload_bytes - base == 4


class TestFreeList:
    """The allocator's free list (``PMemPool.free_array`` / ``grow_array``):
    what a generation switch retires, the next one reuses."""

    def test_alloc_free_reuse(self, pool):
        a = pool.alloc_array("a", np.uint8, 256)
        b = pool.alloc_array("b", np.uint8, 256)
        pool.free_array("a")
        assert not pool.has_array("a") and pool.region_of(a.offset) is None
        cursor = pool.allocator.cursor
        c = pool.alloc_array("c", np.uint8, 256)
        assert c.offset == a.offset != b.offset
        assert pool.allocator.cursor == cursor  # reused, not bumped

    def test_reuse_pays_the_metadata_word_a_bump_pays(self, pool):
        pool.alloc_array("a", np.uint8, 256)
        pool.alloc_array("pin", np.uint8, 64)  # keeps "a" off the tail
        costs = []
        for name in ("bump", "reuse"):
            before = pool.stats.snapshot()
            pool.alloc_array(name, np.uint8, 256)
            costs.append(dataclasses.asdict(pool.stats.delta_since(before)))
            if name == "bump":
                pool.free_array("a")
        assert costs[0] == costs[1] and costs[0]["fences"] == 1
        assert pool.get_array("reuse").offset < pool.get_array("pin").offset

    def test_first_fit_splits_and_neighbours_coalesce(self, pool):
        offs = [pool.alloc_array(n, np.uint8, 256).offset for n in "abcd"]
        pool.free_array("a")
        pool.free_array("c")
        assert pool.allocator._free == [(offs[0], 256), (offs[2], 256)]
        pool.free_array("b")  # bridges its neighbours
        assert pool.allocator._free == [(offs[0], 768)]
        assert pool.alloc_array("e", np.uint8, 512).offset == offs[0]
        assert pool.allocator._free == [(offs[0] + 512, 256)]  # the split's rest
        big = pool.alloc_array("f", np.uint8, 1024)  # fits no free block: bumps
        assert big.offset == offs[3] + 256

    def test_tail_allocation_regrows_in_place(self, pool):
        pool.alloc_array("head", np.uint8, 256)
        t = pool.alloc_array("tail", np.uint8, 64 * 1024)
        grown = pool.grow_array("tail", 128 * 1024)
        assert grown.offset == t.offset and grown.count == 128 * 1024
        assert pool.allocator.cursor == t.offset + 128 * 1024
        assert pool.allocator._free == []
        # not the tail: the outgrown block is freed, the array moves
        moved = pool.grow_array("head", 512)
        assert moved.offset == grown.offset + grown.count
        assert pool.allocator._free == [(4096, 256)]

    def test_the_cursor_is_a_high_water_mark_and_a_free_tail_is_bumped_from(self, pool):
        a = pool.alloc_array("a", np.uint8, 256)
        b = pool.alloc_array("b", np.uint8, 256)
        top = pool.allocator.cursor
        pool.free_array("a")
        pool.free_array("b")  # the tail, through its free neighbour
        assert pool.allocator.cursor == top and pool.allocator._free == [(a.offset, 512)]
        # which block is live when the footprint is read does not move it
        assert pool.alloc_array("c", np.uint8, 256).offset == a.offset
        assert pool.allocator.cursor == top and pool.allocator._free == [(b.offset, 256)]
        pool.free_array("c")
        big = pool.alloc_array("big", np.uint8, 1024)  # fits no block: bumps from the free tail
        assert big.offset == a.offset and pool.allocator.cursor == a.offset + 1024
        assert pool.allocator._free == []


class TestTransactions:
    def test_commit_applies(self, pool):
        mgr = TransactionManager(pool)
        r = pool.alloc_array("d", np.int64, 8, initial=0)
        with mgr.tx() as t:
            t.add_region(r, 0, 2)
            r.write(0, 10, persist=True)
            r.write(1, 20, persist=True)
        assert list(r.view[:2]) == [10, 20]

    def test_abort_on_exception_rolls_back(self, pool):
        mgr = TransactionManager(pool)
        r = pool.alloc_array("d", np.int64, 8, initial=5)
        with pytest.raises(RuntimeError):
            with mgr.tx() as t:
                t.add_region(r, 0, 4)
                r.write_slice(0, [1, 2, 3, 4], persist=True)
                raise RuntimeError("boom")
        assert list(r.view[:4]) == [5, 5, 5, 5]

    def test_crash_mid_tx_rolls_back_on_recover(self, pool):
        inj = CrashInjector()
        pool.device.injector = inj
        mgr = TransactionManager(pool)
        r = pool.alloc_array("d", np.int64, 8, initial=1)

        inj.arm(1000000)  # placeholder; will re-arm below
        inj.disarm()
        try:
            with mgr.tx() as t:
                t.add_region(r, 0, 4)
                r.write(0, 99, persist=True)
                inj.arm(1, "store")
                r.write(1, 99, persist=True)  # crashes at the store
        except SimulatedCrash:
            pass
        assert mgr.recover() is True
        assert list(r.view[:4]) == [1, 1, 1, 1]

    def test_recover_idempotent(self, pool):
        mgr = TransactionManager(pool)
        assert mgr.recover() is False
        assert mgr.recover() is False

    def test_committed_tx_survives_crash(self, pool):
        mgr = TransactionManager(pool)
        r = pool.alloc_array("d", np.int64, 8, initial=0)
        with mgr.tx() as t:
            t.add_region(r, 0, 1)
            r.write(0, 42, persist=True)
        pool.crash()
        assert mgr.recover() is False
        assert pool.get_array("d").view[0] == 42

    def test_add_outside_tx_rejected(self, pool):
        mgr = TransactionManager(pool)
        t = mgr.tx()
        mgr._active = None
        with pytest.raises(TransactionError):
            t.add(0, 8)

    def test_nested_tx_rejected(self, pool):
        mgr = TransactionManager(pool)
        with mgr.tx():
            with pytest.raises(TransactionError):
                mgr.tx()

    def test_journal_overflow(self, pool):
        mgr = TransactionManager(pool, capacity=128)
        r = pool.alloc_array("d", np.int64, 64, initial=0)
        with pytest.raises(TransactionError):
            with mgr.tx() as t:
                t.add_region(r, 0, 64)

    def test_tx_is_much_more_expensive_than_raw(self):
        """Fig. 1(b): transactions add substantial overhead on PM."""
        raw = PMemPool(1 << 20, profile=OPTANE_ADR)
        r1 = raw.alloc_array("d", np.int64, 512, initial=0)
        base = raw.stats.modeled_ns
        for i in range(256):
            r1.write(i, i, persist=True)
        raw_ns = raw.stats.modeled_ns - base

        txp = PMemPool(1 << 20, profile=OPTANE_ADR)
        mgr = TransactionManager(txp)
        r2 = txp.alloc_array("d", np.int64, 512, initial=0)
        base = txp.stats.modeled_ns
        for i in range(256):
            with mgr.tx() as t:
                t.add_region(r2, i, 1)
                r2.write(i, i, persist=True)
        tx_ns = txp.stats.modeled_ns - base
        assert tx_ns > 2.5 * raw_ns
