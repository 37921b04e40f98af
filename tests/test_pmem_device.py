"""Unit tests for the simulated persistent-memory device."""

import numpy as np
import pytest

from repro.errors import PMemError, SimulatedCrash
from repro.pmem import (
    CACHE_LINE,
    DRAM,
    OPTANE_ADR,
    OPTANE_EADR,
    XPLINE,
    CrashInjector,
    PMemDevice,
)
from repro.pmem.stats import PMemStats


@pytest.fixture
def dev():
    return PMemDevice(64 * 1024, profile=OPTANE_ADR)


class TestStoreLoad:
    def test_store_then_read(self, dev):
        dev.store(128, b"hello world")
        assert bytes(dev.read(128, 11)) == b"hello world"

    def test_store_numpy(self, dev):
        arr = np.arange(16, dtype=np.int32)
        dev.store(256, arr)
        out = dev.read(256, 64).view(np.int32)
        np.testing.assert_array_equal(out, arr)

    def test_read_view_is_readonly(self, dev):
        dev.store(0, b"abc")
        view = dev.read(0, 3)
        with pytest.raises(ValueError):
            view[0] = 1

    def test_out_of_range_store_rejected(self, dev):
        with pytest.raises(PMemError):
            dev.store(dev.size - 2, b"toolong")

    def test_negative_offset_rejected(self, dev):
        with pytest.raises(PMemError):
            dev.store(-8, b"x")

    def test_size_rounds_to_xpline(self):
        d = PMemDevice(1000)
        assert d.size % XPLINE == 0
        assert d.size >= 1000

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PMemDevice(0)


class TestPersistence:
    def test_unflushed_store_is_not_persisted(self, dev):
        dev.store(0, b"x" * 8)
        assert not dev.is_persisted(0, 8)

    def test_persist_marks_clean(self, dev):
        dev.store(0, b"x" * 8)
        dev.persist(0, 8)
        assert dev.is_persisted(0, 8)

    def test_crash_reverts_unflushed(self, dev):
        dev.store(0, b"AAAA")
        dev.persist(0, 4)
        dev.store(64, b"BBBB")  # different line, never flushed
        dev.crash()
        assert bytes(dev.read(0, 4)) == b"AAAA"
        assert bytes(dev.read(64, 4)) == b"\x00" * 4

    def test_crash_reverts_to_last_flushed_value(self, dev):
        dev.store(0, b"old!")
        dev.persist(0, 4)
        dev.store(0, b"new!")  # overwrite, unflushed
        dev.crash()
        assert bytes(dev.read(0, 4)) == b"old!"

    def test_partial_line_flush_covers_whole_line(self, dev):
        # flushing any byte of a line persists the whole 64B line
        dev.store(0, b"A" * CACHE_LINE)
        dev.clwb(10, 1)
        dev.sfence()
        dev.crash()
        assert bytes(dev.read(0, CACHE_LINE)) == b"A" * CACHE_LINE

    def test_multi_line_store_partial_flush(self, dev):
        dev.store(0, b"C" * (3 * CACHE_LINE))
        dev.persist(0, CACHE_LINE)  # only first line
        dev.crash()
        assert bytes(dev.read(0, CACHE_LINE)) == b"C" * CACHE_LINE
        assert bytes(dev.read(CACHE_LINE, CACHE_LINE)) == b"\x00" * CACHE_LINE

    def test_drain_all_persists_everything(self, dev):
        dev.store(0, b"x" * 300)
        dev.store(1024, b"y" * 10)
        dev.drain_all()
        assert dev.dirty_lines == 0
        dev.crash()
        assert bytes(dev.read(0, 3)) == b"xxx"
        assert bytes(dev.read(1024, 2)) == b"yy"

    def test_eadr_crash_keeps_unflushed(self):
        dev = PMemDevice(4096, profile=OPTANE_EADR)
        dev.store(0, b"KEEP")
        dev.crash()
        assert bytes(dev.read(0, 4)) == b"KEEP"

    def test_dram_crash_loses_everything(self):
        dev = PMemDevice(4096, profile=DRAM)
        dev.store(0, b"GONE")
        dev.persist(0, 4)
        dev.crash()
        assert bytes(dev.read(0, 4)) == b"\x00" * 4

    def test_dram_never_persisted(self):
        dev = PMemDevice(4096, profile=DRAM)
        dev.store(0, b"x")
        dev.persist(0, 1)
        assert not dev.is_persisted(0, 1)


class TestNtStore:
    def test_ntstore_is_immediately_durable(self, dev):
        dev.ntstore(0, b"NT" * 100)
        dev.crash()
        assert bytes(dev.read(0, 4)) == b"NTNT"

    def test_ntstore_cleans_dirty_lines(self, dev):
        dev.store(0, b"a" * 128)
        assert dev.dirty_lines == 2
        dev.ntstore(0, b"b" * 128)
        assert dev.dirty_lines == 0
        dev.crash()
        assert bytes(dev.read(0, 1)) == b"b"

    def test_ntstore_counts_media_bytes(self, dev):
        before = dev.stats.media_bytes
        dev.ntstore(0, b"z" * 1024)
        assert dev.stats.media_bytes - before == 1024


class TestStatsAndCosts:
    def test_store_counters(self, dev):
        dev.store(0, b"x" * 100, payload=4)
        assert dev.stats.stores == 1
        assert dev.stats.stored_bytes == 100
        assert dev.stats.payload_bytes == 4

    @pytest.mark.parametrize("off", [0, 7, 100])
    def test_zero_length_store_is_a_noop(self, dev, off):
        before = dev.stats.snapshot()
        events = dev.injector.total_events
        dev.store(off, b"")
        dev.store(off, np.empty(0, dtype=np.int32))
        assert dev.stats.delta_since(before) == PMemStats()  # no store, no ns
        assert dev.dirty_lines == 0
        assert dev.injector.total_events == events  # not a crash point either
        with pytest.raises(PMemError):
            dev.store(dev.size + 1, b"")  # the range is still checked

    def test_write_amplification(self, dev):
        dev.store(0, b"x" * 28, payload=4)  # 7 bytes stored per payload byte
        assert dev.stats.write_amplification() == pytest.approx(7.0)

    def test_sequential_flushes_cheaper_than_random(self):
        seq = PMemDevice(1 << 20, profile=OPTANE_ADR)
        for i in range(64):
            seq.store(i * CACHE_LINE, b"x" * CACHE_LINE)
            seq.clwb(i * CACHE_LINE, CACHE_LINE)
        seq.sfence()

        rnd = PMemDevice(1 << 20, profile=OPTANE_ADR)
        # stride of 5 XPLines -> every flush misses the write buffer
        for i in range(64):
            off = (i * 5 * XPLINE + 7 * CACHE_LINE) % (1 << 20 - 1) // CACHE_LINE * CACHE_LINE
            rnd.store(off, b"x" * CACHE_LINE)
            rnd.clwb(off, CACHE_LINE)
        rnd.sfence()
        assert rnd.stats.modeled_ns > 1.5 * seq.stats.modeled_ns

    def test_inplace_flush_is_much_slower_than_seq(self):
        """Fig. 1(c): in-place persistent updates ~7x slower than sequential."""
        n = 256
        seq = PMemDevice(1 << 20, profile=OPTANE_ADR)
        for i in range(n):
            seq.store(i * CACHE_LINE, b"s" * 8)
            seq.persist(i * CACHE_LINE, 8)

        inp = PMemDevice(1 << 20, profile=OPTANE_ADR)
        for _ in range(n):
            inp.store(0, b"i" * 8)
            inp.persist(0, 8)

        ratio = inp.stats.modeled_ns / seq.stats.modeled_ns
        assert 3.0 < ratio < 15.0
        assert inp.stats.inplace_flushes > n * 0.9

    def test_media_write_combining_within_xpline(self, dev):
        # 4 consecutive line flushes in one XPLine -> one 256B media write
        before = dev.stats.media_bytes
        for i in range(4):
            dev.store(i * CACHE_LINE, b"x" * CACHE_LINE)
            dev.clwb(i * CACHE_LINE, CACHE_LINE)
        dev.sfence()
        assert dev.stats.media_bytes - before == XPLINE

    def test_clean_line_flush_is_cheap_and_not_counted_dirty(self, dev):
        dev.store(0, b"x" * CACHE_LINE)
        dev.persist(0, CACHE_LINE)
        flushed = dev.stats.flushed_lines
        dev.clwb(0, CACHE_LINE)  # already clean
        assert dev.stats.flushed_lines == flushed

    def test_bulk_flush_counts_dirty_only(self, dev):
        dev.store(0, b"x" * (32 * CACHE_LINE))
        dev.clwb(0, 64 * CACHE_LINE)  # bulk path (>=16 lines), half clean
        assert dev.stats.flushed_lines == 32

    def test_stats_delta(self, dev):
        dev.store(0, b"x" * 8)
        before = dev.stats.snapshot()
        dev.store(64, b"y" * 8)
        d = dev.stats.delta_since(before)
        assert d.stores == 1
        assert d.stored_bytes == 8

    def test_fence_counted(self, dev):
        dev.sfence()
        dev.sfence()
        assert dev.stats.fences == 2

    def test_accounted_reads_accrue_time(self, dev):
        t0 = dev.stats.modeled_ns
        dev.account_seq_read(1 << 20)
        t1 = dev.stats.modeled_ns
        dev.account_rnd_read(1000)
        t2 = dev.stats.modeled_ns
        assert t1 > t0 and t2 > t1
        assert dev.stats.seq_read_bytes == 1 << 20
        assert dev.stats.rnd_reads == 1000


class TestCrashInjection:
    def test_crash_at_nth_flush(self):
        inj = CrashInjector()
        dev = PMemDevice(4096, injector=inj)
        inj.arm(2, "flush")
        dev.store(0, b"A" * 8)
        dev.persist(0, 8)  # flush #1 ok
        dev.store(64, b"B" * 8)
        with pytest.raises(SimulatedCrash):
            dev.persist(64, 8)  # flush #2 fires
        # the crash reverted the unflushed line
        assert bytes(dev.read(0, 1)) == b"A"
        assert bytes(dev.read(64, 1)) == b"\x00"

    def test_crash_at_nth_store(self):
        inj = CrashInjector()
        dev = PMemDevice(4096, injector=inj)
        inj.arm(3, "store")
        dev.store(0, b"1")
        dev.store(1, b"2")
        with pytest.raises(SimulatedCrash):
            dev.store(2, b"3")
        assert bytes(dev.read(2, 1)) == b"\x00"

    def test_injector_fires_once(self):
        inj = CrashInjector()
        dev = PMemDevice(4096, injector=inj)
        inj.arm(1, "store")
        with pytest.raises(SimulatedCrash):
            dev.store(0, b"x")
        dev.store(0, b"x")  # no longer armed

    def test_any_event_plan(self):
        inj = CrashInjector()
        dev = PMemDevice(4096, injector=inj)
        inj.arm(2)  # any event
        dev.store(0, b"x")
        with pytest.raises(SimulatedCrash):
            dev.sfence()

    def test_disarm(self):
        inj = CrashInjector()
        dev = PMemDevice(4096, injector=inj)
        inj.arm(1, "fence")
        inj.disarm()
        dev.sfence()

    def test_bad_plans_rejected(self):
        inj = CrashInjector()
        with pytest.raises(ValueError):
            inj.arm(0)
        with pytest.raises(ValueError):
            inj.arm(1, "nonsense")

    def test_crash_reports_both_indices(self):
        """The exception carries the per-kind index AND the canonical
        total event index, so a sweep can re-arm on either coordinate."""
        inj = CrashInjector()
        dev = PMemDevice(4096, injector=inj)
        inj.arm(1, "fence")
        dev.store(0, b"a")  # total event #1
        dev.store(8, b"b")  # total event #2
        dev.clwb(0)         # total event #3
        with pytest.raises(SimulatedCrash) as ei:
            dev.sfence()    # fence #1, total event #4
        crash = ei.value
        assert crash.op == "fence"
        assert crash.op_index == 1
        assert crash.total_index == 4
        text = str(crash)
        assert "fence" in text and "#1" in text and "#4" in text
        assert "op='fence'" in repr(crash)

    def test_plan_object_not_mutated_by_injector(self):
        """Arming copies the plan; the countdown lives in the injector,
        so one plan object can drive many sweep iterations."""
        from repro.pmem.crash import CrashPlan

        plan = CrashPlan(countdown=2, event="store")
        a = CrashInjector(plan)
        b = CrashInjector(plan)
        dev = PMemDevice(4096, injector=a)
        dev.store(0, b"x")
        assert a.remaining == 1
        assert plan.countdown == 2  # caller's plan untouched
        assert b.remaining == 2     # sibling injector unaffected
        with pytest.raises(SimulatedCrash):
            dev.store(8, b"y")
        assert plan.countdown == 2


class TestBulkReads:
    """The bulk read layer: load_batch / gather_span / copyback_stream."""

    def test_load_batch_returns_bytes_and_accounts(self, dev):
        dev.store(128, b"hello world")
        twin = PMemDevice(64 * 1024, profile=OPTANE_ADR)
        twin.store(128, b"hello world")
        out = dev.load_batch(128, 11)
        assert bytes(out) == b"hello world"
        twin.read(128, 11)
        twin.account_seq_read(11)
        assert vars(dev.stats) == vars(twin.stats)

    def test_load_batch_view_is_readonly(self, dev):
        view = dev.load_batch(0, 8)
        with pytest.raises(ValueError):
            view[0] = 1

    def test_gather_span_values_and_accounting(self, dev):
        arr = np.arange(256, dtype=np.int32)
        dev.store(0, arr)
        twin = PMemDevice(64 * 1024, profile=OPTANE_ADR)
        twin.store(0, arr)
        offs = np.asarray([4, 64, 400, 12], dtype=np.int64)
        rows = dev.gather_span(offs, 8)
        assert rows.shape == (4, 8)
        for r, off in zip(rows, offs):
            np.testing.assert_array_equal(r, dev.buf[off : off + 8])
        twin.account_rnd_read(4, 8)
        assert vars(dev.stats) == vars(twin.stats)

    def test_gather_span_empty_and_bounds(self, dev):
        assert dev.gather_span(np.empty(0, dtype=np.int64), 8).shape == (0, 8)
        with pytest.raises(PMemError):
            dev.gather_span(np.asarray([dev.size - 4]), 8)
        with pytest.raises(PMemError):
            dev.gather_span(np.asarray([0]), 0)

    def test_gather_span_poisoned_line_raises(self):
        from repro.errors import MediaError

        dev = PMemDevice(64 * 1024, profile=OPTANE_ADR)
        dev.poison(XPLINE, 1)
        with pytest.raises(MediaError):
            dev.gather_span(np.asarray([XPLINE, 0]), 8)
        assert dev.stats.media_errors == 1
        # offsets on healthy lines still gather fine
        assert dev.gather_span(np.asarray([0, CACHE_LINE]), 8).shape == (2, 8)

    @pytest.mark.parametrize(
        "src,dst,nbytes,chunk",
        [
            (0, 32768, 8192, 2048),    # aligned, exact chunks
            (3, 32771, 8192, 2048),    # misaligned lines
            (0, 32768, 9001, 2048),    # trailing partial chunk
            (0, 32768, 700, 2048),     # smaller than one chunk
        ],
    )
    def test_copyback_stream_matches_scalar_loop(self, src, dst, nbytes, chunk):
        def fill(d):
            rng = np.random.default_rng(7)
            d.ntstore(0, rng.integers(0, 256, 16384, dtype=np.uint8))
            d.sfence()

        fast = PMemDevice(64 * 1024, profile=OPTANE_ADR)
        ref = PMemDevice(64 * 1024, profile=OPTANE_ADR)
        fill(fast)
        fill(ref)
        fast.copyback_stream(src, dst, nbytes, chunk)
        pos = 0
        while pos < nbytes:  # the literal scalar stream
            n = min(chunk, nbytes - pos)
            ref.store(dst + pos, ref.buf[src + pos : src + pos + n].copy(), payload=0)
            ref.clwb(dst + pos, n)
            pos += n
        np.testing.assert_array_equal(fast.buf, ref.buf)
        np.testing.assert_array_equal(fast.media, ref.media)
        assert fast._dirty == ref._dirty
        sa, sb = vars(fast.stats), vars(ref.stats)
        ns_a, ns_b = sa.pop("modeled_ns"), sb.pop("modeled_ns")
        assert sa == sb
        assert ns_a == pytest.approx(ns_b)

    def test_copyback_stream_falls_back_under_armed_injector(self):
        inj = CrashInjector()
        dev = PMemDevice(64 * 1024, injector=inj)
        dev.ntstore(0, b"x" * 8192)
        dev.sfence()
        inj.arm(3, "flush")
        with pytest.raises(SimulatedCrash):
            dev.copyback_stream(0, 32768, 8192, 2048)
