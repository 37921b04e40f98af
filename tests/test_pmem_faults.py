"""Device-level fault model tests: torn stores, persist reorder, poison.

The clean ADR crash model (whole lines either persist or revert) is the
default and must be byte-identical to the pre-fault-model behavior;
each richer mode is opt-in via :class:`repro.pmem.faults.FaultPolicy`
and is pinned down here at the :class:`~repro.pmem.device.PMemDevice`
level.  End-to-end behavior (recovery under these policies) lives in
``test_crash_sweep.py`` and ``test_crash_recovery.py``.
"""

import numpy as np
import pytest

from repro.errors import MediaError, RecoveryError
from repro.pmem import PMemPool
from repro.pmem.constants import ATOMIC_WRITE, CACHE_LINE, XPLINE
from repro.pmem.device import PMemDevice
from repro.pmem.faults import (
    ADVERSARIAL,
    DEFAULT_POLICY,
    PERSIST_REORDER,
    TORN_STORES,
    FaultPolicy,
)
from repro.pmem.latency import OPTANE_EADR


def mkdev(policy=DEFAULT_POLICY, size=1 << 16, **kw):
    return PMemDevice(size, faults=policy, **kw)


class TestFaultPolicy:
    def test_defaults_inactive(self):
        assert not DEFAULT_POLICY.active
        assert TORN_STORES.active and PERSIST_REORDER.active and ADVERSARIAL.active

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(poison_on_crash=1.5)

    def test_rng_deterministic_per_ordinal(self):
        p = FaultPolicy(seed=42)
        a = p.rng_for_crash(3).integers(0, 1 << 30)
        b = p.rng_for_crash(3).integers(0, 1 << 30)
        c = p.rng_for_crash(4).integers(0, 1 << 30)
        assert a == b
        assert a != c


class TestTornStores:
    def test_default_policy_reverts_whole_lines(self):
        dev = mkdev()
        dev.store(0, b"\xaa" * CACHE_LINE)
        dev.crash()
        assert not dev.read(0, CACHE_LINE).any()

    def test_torn_crash_persists_8b_chunks(self):
        """Across seeds, a dirty line's chunks land independently, and
        every persisted piece is 8-byte aligned — never a partial chunk."""
        outcomes = set()
        for seed in range(12):
            dev = mkdev(TORN_STORES.with_seed(seed))
            dev.store(0, b"\xaa" * CACHE_LINE)
            dev.crash()
            media = bytes(dev.media[:CACHE_LINE])
            for c in range(CACHE_LINE // ATOMIC_WRITE):
                chunk = media[c * ATOMIC_WRITE : (c + 1) * ATOMIC_WRITE]
                assert chunk in (b"\x00" * ATOMIC_WRITE, b"\xaa" * ATOMIC_WRITE)
            outcomes.add(media)
        assert len(outcomes) > 1  # the coin actually varies

    def test_torn_crash_converges_buf_and_media(self):
        """After the crash the cache view equals the media view (power
        loss leaves no volatile state)."""
        dev = mkdev(TORN_STORES.with_seed(3))
        dev.store(64, bytes(range(64)))
        dev.crash()
        np.testing.assert_array_equal(dev.buf[64:128], dev.media[64:128])

    def test_flushed_lines_never_torn(self):
        dev = mkdev(TORN_STORES)
        dev.store(0, b"\xbb" * CACHE_LINE)
        dev.persist(0, CACHE_LINE)
        dev.crash()
        assert bytes(dev.read(0, CACHE_LINE)) == b"\xbb" * CACHE_LINE

    def test_torn_lines_counted(self):
        torn = 0
        for seed in range(8):
            dev = mkdev(TORN_STORES.with_seed(seed))
            dev.store(0, b"\xcc" * CACHE_LINE)
            dev.crash()
            torn += dev.stats.torn_lines
        assert torn > 0


class TestPersistReorder:
    def test_fenced_flush_always_durable(self):
        dev = mkdev(PERSIST_REORDER)
        dev.store(0, b"\x11" * 8)
        dev.persist(0, 8)  # clwb + sfence
        dev.crash()
        assert bytes(dev.read(0, 8)) == b"\x11" * 8

    def test_unfenced_flush_may_drop(self):
        """clwb without sfence orders nothing: across seeds the line
        sometimes persists and sometimes drops."""
        results = set()
        for seed in range(12):
            dev = mkdev(PERSIST_REORDER.with_seed(seed))
            dev.store(0, b"\x22" * 8)
            dev.clwb(0)
            dev.crash()
            results.add(bytes(dev.read(0, 8)))
        assert results == {b"\x00" * 8, b"\x22" * 8}

    def test_pending_line_persists_flush_time_content(self):
        """A store after the flush does not ride along with the flush."""
        for seed in range(12):
            dev = mkdev(PERSIST_REORDER.with_seed(seed))
            dev.store(0, b"\x33" * 8)
            dev.clwb(0)
            dev.store(0, b"\x44" * 8)  # re-dirties the line
            dev.crash()
            got = bytes(dev.read(0, 8))
            assert got in (b"\x00" * 8, b"\x33" * 8)  # never the unflushed 0x44

    def test_media_unchanged_until_fence(self):
        dev = mkdev(PERSIST_REORDER)
        dev.store(0, b"\x55" * 8)
        dev.clwb(0)
        assert not dev.media[:8].any()  # still pending
        dev.sfence()
        assert bytes(dev.media[:8]) == b"\x55" * 8

    def test_dropped_pending_counted(self):
        dropped = 0
        for seed in range(8):
            dev = mkdev(PERSIST_REORDER.with_seed(seed))
            for line in range(4):
                dev.store(line * CACHE_LINE, b"\x66" * 8)
                dev.clwb(line * CACHE_LINE)
            dev.crash()
            dropped += dev.stats.dropped_pending_lines
        assert dropped > 0

    def test_is_persisted_tracks_pending(self):
        dev = mkdev(PERSIST_REORDER)
        dev.store(0, b"\x77" * 8)
        dev.clwb(0)
        assert not dev.is_persisted(0, 8)
        dev.sfence()
        assert dev.is_persisted(0, 8)


class TestPolicyExemptions:
    def test_eadr_ignores_fault_policy(self):
        """Persistent caches flush everything at power loss — torn and
        reorder faults are ADR phenomena and must not apply."""
        dev = PMemDevice(1 << 16, profile=OPTANE_EADR, faults=ADVERSARIAL)
        dev.store(0, b"\x88" * CACHE_LINE)
        dev.crash()
        assert bytes(dev.read(0, CACHE_LINE)) == b"\x88" * CACHE_LINE

    def test_crash_ordinal_advances(self):
        dev = mkdev(TORN_STORES)
        assert dev.crash_ordinal == 0
        dev.crash()
        dev.crash()
        assert dev.crash_ordinal == 2
        assert dev.stats.crashes == 2


class TestPoison:
    def test_poisoned_read_raises_with_offset(self):
        dev = mkdev()
        dev.poison(XPLINE, 1)
        with pytest.raises(MediaError) as ei:
            dev.read(XPLINE + 5, 4)
        assert ei.value.off >= XPLINE
        assert dev.stats.media_errors == 1
        # reads elsewhere still fine
        dev.read(0, XPLINE)

    def test_poison_covers_whole_xpline(self):
        dev = mkdev()
        dev.poison(XPLINE + 10, 1)
        assert dev.check_poison(XPLINE, XPLINE)
        with pytest.raises(MediaError):
            dev.read(XPLINE + XPLINE - 1, 1)
        assert not dev.check_poison(0, XPLINE)
        assert dev.stats.poisoned_xplines == 1

    def test_rewrite_clears_poison(self):
        dev = mkdev()
        dev.poison(0, 1)
        dev.ntstore(0, np.zeros(XPLINE, dtype=np.uint8), payload=0)
        dev.sfence()
        assert not dev.check_poison(0, XPLINE)
        dev.read(0, XPLINE)  # no raise

    def test_flush_writeback_clears_poison(self):
        dev = mkdev()
        dev.poison(0, 1)
        dev.store(0, b"\x99" * XPLINE)
        dev.persist(0, XPLINE)
        assert not dev.check_poison(0, XPLINE)

    def test_poisoned_ranges_merges_neighbors(self):
        dev = mkdev()
        dev.poison(0, 2 * XPLINE)  # two adjacent XPLines
        dev.poison(4 * XPLINE, 1)
        assert dev.poisoned_ranges() == [(0, 2 * XPLINE), (4 * XPLINE, XPLINE)]

    def test_clear_poison(self):
        """Only a rewrite clears poison, and only on the lines it rewrites."""
        dev = mkdev()
        dev.poison(0, 1)
        dev.store(0, b"\x99" * CACHE_LINE)
        dev.persist(0, CACHE_LINE)
        assert dev.poisoned_ranges() == [(CACHE_LINE, XPLINE - CACHE_LINE)]

    def test_poison_on_crash_probability_one(self):
        dev = mkdev(FaultPolicy(poison_on_crash=1.0))
        dev.store(0, b"\xee" * 8)  # dirty at crash -> lost -> poisoned
        dev.crash()
        assert dev.check_poison(0, 1)
        with pytest.raises(MediaError):
            dev.read(0, 8)


class TestRecoveryScrub:
    """Crash recovery repairs poison in dead state, reports it in live state."""

    def make_graph(self):
        from repro import DGAP, DGAPConfig

        g = DGAP(DGAPConfig(init_vertices=16, init_edges=256, segment_slots=64))
        for d in range(60):
            g.insert_edge(d % 16, (d * 3) % 16)
        return g

    def test_poison_in_meta_is_repaired(self):
        g = self.make_graph()
        g.shutdown()  # allocates meta.* arrays
        g.pool.crash()
        off, _, _ = g.pool._directory["meta.start"]
        g.pool.device.poison(off, 1)
        from repro import DGAP

        g2 = DGAP.open(g.pool, g.config)  # crash path ignores meta.*
        assert g2.num_edges == 60

    def test_poison_in_dead_generation_is_repaired(self):
        from repro import DGAP, DGAPConfig

        g = DGAP(DGAPConfig(init_vertices=16, init_edges=128, segment_slots=64))
        for d in range(100):
            g.insert_edge(d % 16, d % 16)
        off, _, _ = g.pool._directory["edges.g0"]
        g.rebalancer.resize()  # generation 0 is retired: freed at the flip
        assert g.ea.gen == 1 and g.pool.region_of(off) is None
        g.pool.crash()
        g.pool.device.poison(off, 1)
        g2 = DGAP.open(g.pool, g.config)
        assert g2.num_edges == 100
        assert not g.pool.device.check_poison(off, 1)

    def test_poison_in_live_edges_is_reported(self):
        from repro import DGAP

        g = self.make_graph()
        g.pool.crash()
        off, _, _ = g.pool._directory[f"edges.g{g.ea.gen}"]
        g.pool.device.poison(off, 1)
        with pytest.raises(RecoveryError, match="edges.g"):
            DGAP.open(g.pool, g.config)

    def test_poison_in_pool_metadata_is_reported(self):
        from repro import DGAP

        g = self.make_graph()
        g.pool.crash()
        g.pool.device.poison(64, 1)  # root slots: not a named region
        with pytest.raises(RecoveryError, match="pool metadata"):
            DGAP.open(g.pool, g.config)
