"""Runtime (non-crash) media fault injection at the device level.

Crash-time faults are pinned in ``test_pmem_faults.py``; this file
covers the *runtime* regime PR 7 adds — spontaneous read-time poison,
transient read faults with bounded retry, the patrol ``scrub_scan``,
and fault suspension — plus the bulk-vs-scalar parity property: the
bulk read entry points (``load_batch``, ``gather_span``) must raise
exactly the :class:`~repro.errors.MediaError` (same byte range) a
per-unit scalar replay would, with identical pre-raise accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MediaError
from repro.pmem.constants import CACHE_LINE, XPLINE
from repro.pmem.device import PMemDevice
from repro.pmem.faults import DEFAULT_POLICY, RUNTIME_HAZARD, FaultPolicy

SIZE = 1 << 14

#: Fault-side counters that must agree between bulk and scalar replays
#: at the moment a MediaError is raised (pre-raise accounting).
_FAULT_COUNTERS = (
    "media_errors", "transient_faults", "read_retries",
    "runtime_poison_events", "poisoned_xplines",
)


def mkdev(policy=DEFAULT_POLICY, size=SIZE):
    dev = PMemDevice(size, faults=policy)
    # Give reads something non-zero to return.
    dev.ntstore(0, (np.arange(size) % 251).astype(np.uint8), payload=0)
    dev.sfence()
    return dev


class TestPolicyValidation:
    def test_runtime_rates_are_probabilities(self):
        with pytest.raises(ValueError):
            FaultPolicy(read_poison_rate=1.5)
        with pytest.raises(ValueError):
            FaultPolicy(transient_read_rate=-0.1)

    def test_retry_knobs_validated(self):
        with pytest.raises(ValueError):
            FaultPolicy(read_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(retry_backoff_ns=-1.0)

    def test_runtime_active_property(self):
        assert not DEFAULT_POLICY.runtime_active
        assert RUNTIME_HAZARD.runtime_active
        assert FaultPolicy(read_poison_rate=0.1).runtime_active
        assert FaultPolicy(transient_read_rate=0.1).runtime_active
        # Crash-time modes alone do not make the runtime side active.
        assert not FaultPolicy(torn_stores=True).runtime_active

    def test_runtime_rng_deterministic(self):
        p = FaultPolicy(seed=7, read_poison_rate=0.5)
        a = p.rng_runtime().random(8)
        b = p.rng_runtime().random(8)
        np.testing.assert_array_equal(a, b)
        c = p.with_seed(8).rng_runtime().random(8)
        assert not np.array_equal(a, c)


class TestDefaultOff:
    def test_default_policy_draws_nothing(self):
        """With runtime faults off the read path is byte- and
        counter-identical to the pre-PR behavior: no RNG stream exists,
        no fault counters move, no retry backoff is charged."""
        dev = mkdev()
        assert dev._rt_rng is None
        before = dev.stats.snapshot()
        for off in range(0, SIZE, CACHE_LINE):
            dev.read(off, CACHE_LINE)
        dev.load_batch(0, SIZE)
        dev.gather_span(np.arange(0, SIZE, 256, dtype=np.int64), 64)
        d = dev.stats.delta_since(before)
        for k in _FAULT_COUNTERS:
            assert getattr(d, k) == 0


class TestSpontaneousDecay:
    def test_certain_decay_raises_and_poisons(self):
        dev = mkdev(FaultPolicy(read_poison_rate=1.0))
        with pytest.raises(MediaError) as ei:
            dev.read(128, CACHE_LINE)
        err = ei.value
        assert err.off == 128 and err.length == CACHE_LINE
        assert dev.check_poison(128, CACHE_LINE)
        assert dev.stats.runtime_poison_events == 1
        assert dev.stats.media_errors == 1

    def test_poison_persists_after_escalation(self):
        dev = mkdev(FaultPolicy(read_poison_rate=1.0))
        with pytest.raises(MediaError):
            dev.read(0, 4)
        # Even with the hazard suspended, the line is now hard-poisoned.
        with dev.suspend_runtime_faults():
            with pytest.raises(MediaError):
                dev.read(0, 4)

    def test_same_seed_same_faults(self):
        def first_fault(dev):
            for off in range(0, SIZE, CACHE_LINE):
                try:
                    dev.read(off, CACHE_LINE)
                except MediaError as e:
                    return e.off
            return None

        pol = FaultPolicy(read_poison_rate=0.01, seed=5)
        a = first_fault(mkdev(pol))
        b = first_fault(mkdev(pol))
        assert a == b is not None


class TestTransientFaults:
    def test_persistent_transient_escalates_after_retries(self):
        pol = FaultPolicy(transient_read_rate=1.0, read_retries=4,
                          retry_backoff_ns=100.0)
        dev = mkdev(pol)
        t0 = dev.stats.modeled_ns
        with pytest.raises(MediaError):
            dev.read(0, 4)
        st = dev.stats
        assert st.transient_faults == 1
        assert st.read_retries == 4
        # the faulting read charges nothing but its retries' backoff
        assert st.modeled_ns - t0 == pytest.approx(st.read_retries * pol.retry_backoff_ns)
        # Escalation confirmed the fault as hard poison.
        assert st.runtime_poison_events == 1
        assert dev.check_poison(0, CACHE_LINE)

    def test_zero_retries_escalates_immediately(self):
        dev = mkdev(FaultPolicy(transient_read_rate=1.0, read_retries=0))
        with pytest.raises(MediaError):
            dev.read(0, 4)
        assert dev.stats.read_retries == 0

    def test_transients_mostly_recover(self):
        """At a moderate rate with generous retries, faults recover
        transparently: the caller sees data, not errors."""
        dev = mkdev(FaultPolicy(transient_read_rate=0.3, read_retries=16,
                                seed=3))
        for off in range(0, SIZE, CACHE_LINE):
            view = dev.read(off, CACHE_LINE)
            assert view[0] == off % 251
        st = dev.stats
        assert st.transient_faults > 0
        assert st.read_retries >= st.transient_faults
        assert st.media_errors == 0


class TestSuspension:
    def test_suspension_disables_draws(self):
        dev = mkdev(FaultPolicy(read_poison_rate=1.0))
        with dev.suspend_runtime_faults():
            dev.read(0, CACHE_LINE)  # no raise
        with pytest.raises(MediaError):
            dev.read(CACHE_LINE, CACHE_LINE)

    def test_suspension_is_reentrant(self):
        dev = mkdev(FaultPolicy(read_poison_rate=1.0))
        with dev.suspend_runtime_faults():
            with dev.suspend_runtime_faults():
                dev.read(0, CACHE_LINE)
            dev.read(0, CACHE_LINE)  # still suspended after inner exit
        with pytest.raises(MediaError):
            dev.read(0, CACHE_LINE)


class TestScrubScan:
    def test_finds_decay_without_raising(self):
        dev = mkdev(FaultPolicy(read_poison_rate=1.0))
        found = dev.scrub_scan(0, 1024)
        # Poison is XPLine-granular: the first failing line of each
        # XPLine poisons the whole 256 B block, so one find per XPLine.
        assert len(found) == 1024 // XPLINE
        assert all(n == CACHE_LINE for _, n in found)
        assert dev.check_poison(0, 1024)
        assert dev.stats.runtime_poison_events == len(found)
        assert dev.stats.media_errors == 0  # detection, not consumption

    def test_charges_scrub_bucket(self):
        dev = mkdev(FaultPolicy(read_poison_rate=0.0))
        t0 = dev.stats.modeled_ns
        assert dev.scrub_scan(0, 4096) == []
        assert dev.stats.modeled_ns - t0 == pytest.approx(dev.profile.seq_read_ns(4096))
        assert dev.stats.seq_read_bytes == 4096

    def test_suspended_scan_finds_nothing(self):
        dev = mkdev(FaultPolicy(read_poison_rate=1.0))
        with dev.suspend_runtime_faults():
            assert dev.scrub_scan(0, 1024) == []
        assert not dev.check_poison(0, 1024)

    def test_already_poisoned_lines_not_recounted(self):
        dev = mkdev(FaultPolicy(read_poison_rate=1.0))
        dev.poison(0, XPLINE)
        n0 = dev.stats.runtime_poison_events
        found = dev.scrub_scan(0, 2 * XPLINE)
        # Only the second XPLine is newly poisoned (one find: its first
        # failing line poisons the whole block, skipping the rest).
        assert {off for off, _ in found} == {XPLINE}
        assert dev.stats.runtime_poison_events - n0 == len(found)


# ----------------------------------------------------------------------
# satellite: bulk vs scalar MediaError parity (property test)
# ----------------------------------------------------------------------
def _counters(dev):
    return tuple(getattr(dev.stats, k) for k in _FAULT_COUNTERS)


def _outcome(fn):
    """Run ``fn``; return ('ok', bytes) or ('err', off, length)."""
    try:
        out = fn()
    except MediaError as e:
        return ("err", e.off, e.length)
    return ("ok", np.asarray(out).tobytes())


_policies = st.sampled_from([
    FaultPolicy(),
    FaultPolicy(read_poison_rate=0.05, seed=1),
    FaultPolicy(transient_read_rate=0.2, read_retries=2, seed=2),
    FaultPolicy(read_poison_rate=0.03, transient_read_rate=0.15,
                read_retries=1, seed=3),
])


class TestBulkScalarParity:
    @given(
        policy=_policies,
        poison_lines=st.sets(st.integers(0, SIZE // XPLINE - 1), max_size=3),
        off=st.integers(0, SIZE - 1),
        n=st.integers(1, 2048),
    )
    @settings(max_examples=60, deadline=None)
    def test_load_batch_matches_per_line_reads(self, policy, poison_lines, off, n):
        n = min(n, SIZE - off)
        bulk, scal = mkdev(policy), mkdev(policy)
        for dev in (bulk, scal):
            for xp in poison_lines:
                dev.poison(xp * XPLINE, 1)
        b4b, b4s = _counters(bulk), _counters(scal)

        def scalar():
            end = off + n
            chunks = []
            for a in range(off - off % CACHE_LINE, end, CACHE_LINE):
                lo, hi = max(a, off), min(a + CACHE_LINE, end)
                chunks.append(np.array(scal.read(lo, hi - lo)))
            scal.account_seq_read(n)
            return np.concatenate(chunks)

        ob = _outcome(lambda: bulk.load_batch(off, n))
        os_ = _outcome(scalar)
        assert ob[0] == os_[0]
        if ob[0] == "err":
            assert ob[1:] == os_[1:]  # identical byte range
        # Identical pre-raise (or post-success) fault accounting.
        db = tuple(a - b for a, b in zip(_counters(bulk), b4b))
        ds = tuple(a - b for a, b in zip(_counters(scal), b4s))
        assert db == ds
        assert bulk.poisoned_ranges() == scal.poisoned_ranges()

    @given(
        policy=_policies,
        poison_lines=st.sets(st.integers(0, SIZE // XPLINE - 1), max_size=3),
        offs=st.lists(st.integers(0, (SIZE - 64) // 4), min_size=1,
                      max_size=24).map(lambda xs: [x * 4 for x in xs]),
        unit=st.sampled_from([4, 12, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_gather_span_matches_per_unit_reads(self, policy, poison_lines, offs, unit):
        bulk, scal = mkdev(policy), mkdev(policy)
        for dev in (bulk, scal):
            for xp in poison_lines:
                dev.poison(xp * XPLINE, 1)
        arr = np.asarray(offs, dtype=np.int64)
        b4b, b4s = _counters(bulk), _counters(scal)

        def scalar():
            rows = [np.array(scal.read(o, unit)) for o in offs]
            scal.account_rnd_read(len(offs), unit)
            return np.stack(rows)

        ob = _outcome(lambda: bulk.gather_span(arr, unit))
        os_ = _outcome(scalar)
        assert ob[0] == os_[0]
        if ob[0] == "err":
            assert ob[1:] == os_[1:]
        db = tuple(a - b for a, b in zip(_counters(bulk), b4b))
        ds = tuple(a - b for a, b in zip(_counters(scal), b4s))
        assert db == ds
        assert bulk.poisoned_ranges() == scal.poisoned_ranges()
