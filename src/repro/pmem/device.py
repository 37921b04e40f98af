"""Simulated byte-addressable persistent memory device.

The device keeps two images of its contents:

* ``buf`` — what the CPU sees (stores land here immediately, like data
  sitting in the volatile cache hierarchy);
* ``media`` — what survives a power failure.

A *store* marks the covered 64-byte cache lines dirty.  ``clwb`` copies
dirty lines from ``buf`` to ``media`` (``clflushopt`` would evict the
line as well, at the same cost here, so it has no twin); ``sfence``
orders them (and is where the fence cost is charged).  On
:meth:`crash`, every still-dirty line reverts to its media content —
precisely the ADR failure semantics the DGAP paper programs against
(§2.1.3).  With an eADR profile (``persistent_caches=True``) dirty lines
are inside the power-fail domain and survive instead.  With a volatile
(plain DRAM) profile a crash clears everything.

Every operation accrues modeled nanoseconds from the device's
:class:`~repro.pmem.latency.LatencyModel` and updates the
:class:`~repro.pmem.stats.PMemStats` counters, including:

* sequential/random/in-place flush classification (Fig. 1c);
* XPLine (256 B) write combining for media-byte accounting;
* caller-declared payload bytes for write-amplification (Fig. 1a).

Reads of persistent data by analysis kernels are *accounted* in bulk
(:meth:`account_seq_read` / :meth:`account_rnd_read`) rather than traced
per byte — tracing every load in Python would be prohibitively slow and
adds no fidelity, because read cost depends only on the access pattern,
which the graph views know exactly.
"""

from __future__ import annotations

import mmap
from contextlib import contextmanager
from typing import Optional, Union

import numpy as np

from ..errors import MediaError, PMemError, SimulatedCrash
from ..nputil import distinct
from .constants import CACHE_LINE, CHUNKS_PER_LINE, LINES_PER_XPLINE, XPLINE
from .crash import CrashInjector
from .faults import DEFAULT_POLICY, FaultPolicy
from .latency import INPLACE_WINDOW, LatencyModel, OPTANE_ADR
from .stats import PMemStats

Buffer = Union[bytes, bytearray, memoryview, np.ndarray]

#: Optional observability hook set by :mod:`repro.obs` while a tracer
#: with ``device_ops=True`` is installed: called as
#: ``TRACE_HOOK(kind, count, nbytes)`` after an op's accounting lands.
#: Module-level and ``None`` by default so untraced runs pay exactly one
#: global load per op; this module must never import ``repro.obs``.
TRACE_HOOK = None

#: Flush spans at or above this many lines take the vectorized
#: sequential-stream path instead of per-line classification.
_BULK_FLUSH_LINES = 16

#: ``_recent_flushes`` (line -> flush-op index) is pruned whenever it
#: exceeds ``_RECENT_FLUSH_SLACK * INPLACE_WINDOW`` entries; only entries
#: within ``INPLACE_WINDOW`` ops can ever classify a flush as in-place,
#: so eviction never changes accounting.
_RECENT_FLUSH_SLACK = 4

#: One cache line as an opaque item: a line-indexed view of an image.
_LINE = np.dtype((np.void, CACHE_LINE))


def _demand_zero(size: int) -> np.ndarray:
    """A zeroed ``uint8`` image whose pages cost DRAM only once written.

    An anonymous private mapping, as a DAX-mapped pool file is on the
    real platform: capacity is virtual, and untouched pages read as
    zero without being resident.  ``np.zeros`` cannot promise that — an
    allocation below glibc's (adaptive) mmap threshold comes from the
    heap and is memset whole.  The mapping lives as long as the array.
    """
    m = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(m, dtype=np.uint8)


class PMemDevice:
    """One simulated DIMM region (or a DRAM region with a volatile profile)."""

    def __init__(
        self,
        size: int,
        profile: LatencyModel = OPTANE_ADR,
        name: str = "pmem0",
        injector: Optional[CrashInjector] = None,
        faults: Optional[FaultPolicy] = None,
    ):
        if size <= 0:
            raise ValueError("device size must be positive")
        # Round capacity up to a whole XPLine.
        size = (size + XPLINE - 1) // XPLINE * XPLINE
        self.size = size
        self.name = name
        self.profile = profile
        self.injector = injector or CrashInjector()
        self.faults = faults or DEFAULT_POLICY
        self.stats = PMemStats()

        self.buf = _demand_zero(size)
        self.media = _demand_zero(size)
        self._dirty: set[int] = set()

        # Persist-reorder state: line -> content captured at flush time,
        # written to media only at the next fence (or probabilistically
        # at a crash).  Populated only when the fault policy enables
        # persist_reorder on an ADR-style (non-volatile, non-eADR)
        # profile; otherwise flushes hit media immediately as before.
        self._reorder = (
            self.faults.persist_reorder
            and not profile.volatile
            and not profile.persistent_caches
        )
        self._pending: dict[int, bytes] = {}

        # Poisoned (uncorrectable) media lines; reads fault until the
        # line is rewritten on media.  Tracked per cache line, planted
        # per XPLine (the DCPMM ECC granularity).
        self._poisoned: set[int] = set()

        # Runtime read-fault hazard (opt-in): one deterministic RNG
        # stream, drawn one uniform per covered cache line in read order,
        # so a bulk read and its per-unit scalar replay see identical
        # faults.  ``None`` under any policy without runtime rates —
        # default-policy read paths take exactly the historical branches.
        self._rt_rng = self.faults.rng_runtime() if self.faults.runtime_active else None
        self._rt_suspend = 0

        #: how many crashes this device has suffered (fault-rng stream id)
        self.crash_ordinal = 0

        # Flush-stream classification state.
        self._last_flush_line = -(10**9)
        self._last_media_xpline = -(10**9)
        self._flush_op = 0
        self._recent_flushes: dict[int, int] = {}  # line -> flush op index

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_range(self, off: int, n: int) -> None:
        if off < 0 or n < 0 or off + n > self.size:
            raise PMemError(f"access [{off}, {off + n}) outside device of size {self.size}")

    def _charge(self, ns: float) -> None:
        self.stats.modeled_ns += ns

    def _tick(self, event: str) -> None:
        """Feed the crash injector; on a planned crash, lose volatile state first."""
        try:
            self.injector.tick(event)
        except SimulatedCrash:
            self.crash()
            raise

    @property
    def recent_flush_capacity(self) -> int:
        """Hard bound on ``_recent_flushes`` entries (eviction window)."""
        return _RECENT_FLUSH_SLACK * INPLACE_WINDOW

    def _note_recent_flush(self, line: int) -> None:
        self._recent_flushes[line] = self._flush_op
        if len(self._recent_flushes) > self.recent_flush_capacity:
            cutoff = self._flush_op - INPLACE_WINDOW
            # over a snapshot: concurrent writers (thread_safe) share the device
            self._recent_flushes = {
                ln: op for ln, op in list(self._recent_flushes.items()) if op >= cutoff
            }
            # Entries older than the window can never classify a future
            # flush as in-place; if pruning by age ever leaves more than
            # the capacity (impossible while ops are monotone, but keep
            # the bound unconditional), drop the oldest outright.
            if len(self._recent_flushes) > self.recent_flush_capacity:
                keep = sorted(self._recent_flushes.items(), key=lambda kv: kv[1])
                self._recent_flushes = dict(keep[-self.recent_flush_capacity :])

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------
    def store(self, off: int, data: Buffer, payload: Optional[int] = None) -> None:
        """CPU store of ``data`` at ``off``; lands in cache (volatile until flushed).

        ``payload`` declares how many of the bytes are useful payload for
        write-amplification accounting; defaults to all of them.
        """
        arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
        if arr.dtype != np.uint8:
            arr = arr.view(np.uint8)
        arr = arr.reshape(-1)
        n = arr.size
        self._check_range(off, n)
        if n == 0:
            return  # nothing stored: no event, no dirty line, no charge
        self._tick("store")

        self.buf[off : off + n] = arr
        first, last = off // CACHE_LINE, (off + n - 1) // CACHE_LINE
        if last == first:
            self._dirty.add(first)
        else:
            self._dirty.update(range(first, last + 1))

        st = self.stats
        st.stores += 1
        st.stored_bytes += n
        st.payload_bytes += n if payload is None else payload
        self._charge((last - first + 1) * self.profile.store_per_line_ns)
        if TRACE_HOOK is not None:
            TRACE_HOOK("store", 1, n)

    def ntstore(self, off: int, data: Buffer, payload: Optional[int] = None) -> None:
        """Non-temporal streaming store: write-combines straight to media.

        Used for the large sequential writes (initial loads, log resets,
        CSR construction) where real code uses ``MOVNT``; on ADR the WPQ
        is power-fail protected, so the data is durable on acceptance
        (the customary trailing ``sfence`` only orders it).
        """
        arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
        if arr.dtype != np.uint8:
            arr = arr.view(np.uint8)
        arr = arr.reshape(-1)
        n = arr.size
        self._check_range(off, n)
        self._tick("ntstore")

        self.buf[off : off + n] = arr
        if not self.profile.volatile:
            self.media[off : off + n] = arr
        # ntstore bypasses the cache: covered lines are clean w.r.t. media.
        first, last = off // CACHE_LINE, (off + n - 1) // CACHE_LINE
        if self._dirty:
            self._dirty.difference_update(range(first, last + 1))
        if self._pending:
            # A newer media write supersedes flush-time snapshots.
            for line in range(first, last + 1):
                if line in self._pending:
                    a = line * CACHE_LINE
                    self._pending[line] = bytes(self.buf[a : a + CACHE_LINE])
        if self._poisoned:
            # Rewriting media repairs poison — but only for lines whose
            # full 64 bytes were rewritten (the ECC block is whole again).
            full_first = (off + CACHE_LINE - 1) // CACHE_LINE
            full_last = (off + n) // CACHE_LINE - 1
            if full_last >= full_first:
                self._poisoned.difference_update(range(full_first, full_last + 1))

        st = self.stats
        st.ntstores += 1
        st.ntstored_bytes += n
        st.stored_bytes += n
        st.payload_bytes += n if payload is None else payload
        st.media_bytes += (last // (XPLINE // CACHE_LINE) - first // (XPLINE // CACHE_LINE) + 1) * XPLINE
        self._charge(self.profile.seq_write_ns(n))
        if TRACE_HOOK is not None:
            TRACE_HOOK("ntstore", 1, n)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, off: int, n: int) -> np.ndarray:
        """Read-only view of current contents (no cost accounted — see module docs).

        Raises :class:`~repro.errors.MediaError` when the range covers a
        poisoned line (uncorrectable media error, see :meth:`poison`).
        Note that cached ``Region.view`` objects bypass this check — the
        poison model is enforced at explicit device reads and by the
        recovery scrub (DESIGN.md §6).
        """
        self._check_range(off, n)
        rt = self._rt_rng is not None and self._rt_suspend == 0
        if (self._poisoned or rt) and n > 0:
            ctx = f"reading [{off}, {off + n})"
            first, last = off // CACHE_LINE, (off + n - 1) // CACHE_LINE
            for line in range(first, last + 1):
                if line in self._poisoned:
                    self.stats.media_errors += 1
                    a = line * CACHE_LINE
                    raise MediaError(
                        f"uncorrectable media error {ctx}: "
                        f"poisoned line at offset {a}",
                        off=a,
                        length=CACHE_LINE,
                    )
                if rt:
                    self._rt_check_line(line, ctx)
        view = self.buf[off : off + n]
        view.flags.writeable = False
        return view

    def load_batch(self, off: int, n: int) -> np.ndarray:
        """Bulk sequential load of ``[off, off+n)`` — the read mirror of
        :meth:`ntstore`.

        Equivalent to ``read(off, n)`` followed by
        ``account_seq_read(n)``: same poison enforcement, same
        counters, the same single modeled-ns term.  Returns a read-only
        view of the CPU-visible contents.  Reads never feed the crash
        injector (they have no persistence side effects), so batching
        them is always safe under an armed crash plan.
        """
        view = self.read(off, n)
        self.account_seq_read(n)
        if TRACE_HOOK is not None:
            TRACE_HOOK("load", 1, n)
        return view

    def gather_span(self, offs: np.ndarray, unit: int) -> np.ndarray:
        """Gather ``n`` equal-size units at scattered offsets — the read
        mirror of :meth:`flush_span`.

        Counter- and modeled-ns-equivalent to ``for off in offs:
        read(off, unit)`` plus one ``account_rnd_read(len(offs), unit)``:
        ``n`` independent random-line reads of ``unit`` bytes each.
        Poison is enforced per covered cache line, in unit order,
        before any cost is charged — exactly where the scalar replay
        would fault.  Returns an ``(n, unit)`` uint8 copy of the
        current contents.
        """
        offs = np.asarray(offs, dtype=np.int64)
        n = int(offs.size)
        if unit <= 0:
            raise PMemError("gather_span: unit must be positive")
        if n == 0:
            return np.empty((0, unit), dtype=np.uint8)
        self._check_range(int(offs.min()), 1)
        self._check_range(int(offs.max()), unit)
        rt = self._rt_rng is not None and self._rt_suspend == 0
        if self._poisoned or rt:
            ctx = f"gathering {n} x {unit} B"
            for line in self._unit_line_seq(offs, unit).tolist():
                if line in self._poisoned:
                    self.stats.media_errors += 1
                    a = line * CACHE_LINE
                    raise MediaError(
                        f"uncorrectable media error {ctx}: "
                        f"poisoned line at offset {a}",
                        off=a,
                        length=CACHE_LINE,
                    )
                if rt:
                    self._rt_check_line(line, ctx)
        idx = offs[:, None] + np.arange(unit, dtype=np.int64)[None, :]
        out = self.buf[idx]
        self.account_rnd_read(n, unit)
        if TRACE_HOOK is not None:
            TRACE_HOOK("gather", n, n * unit)
        return out

    def account_seq_read(self, nbytes: int) -> None:
        """Charge a sequential streaming read of ``nbytes``."""
        self.stats.seq_read_bytes += nbytes
        self._charge(self.profile.seq_read_ns(nbytes))

    def account_rnd_read(self, naccesses: int, bytes_each: int = CACHE_LINE) -> None:
        """Charge ``naccesses`` independent random reads of ``bytes_each`` bytes."""
        self.stats.rnd_reads += naccesses
        self._charge(self.profile.rnd_read_ns(naccesses, bytes_each))

    def account_rnd_write(self, naccesses: int, bytes_each: int = CACHE_LINE) -> None:
        """Charge ``naccesses`` random-line writes (modeling hook: counts
        cost and media traffic without changing contents — used by the
        baseline systems for DRAM/PM structures whose *functional* state
        is kept in Python)."""
        prof = self.profile
        lines = max(1, (bytes_each + CACHE_LINE - 1) // CACHE_LINE)
        if prof.volatile:
            ns = naccesses * lines * prof.read_rnd_per_line_ns  # DRAM write ~ read latency
        else:
            ns = naccesses * lines * (prof.store_per_line_ns + prof.flush_rnd_per_line_ns)
            self.stats.media_bytes += naccesses * XPLINE
        self.stats.stores += naccesses
        self.stats.stored_bytes += naccesses * bytes_each
        self._charge(ns)

    def account_ns(self, ns: float) -> None:
        """Charge modeled time directly (documented modeling terms only)."""
        self._charge(ns)

    def account_seq_write(self, nbytes: int) -> None:
        """Charge a streaming write of ``nbytes`` (modeling hook, no contents)."""
        self.stats.stored_bytes += nbytes
        if not self.profile.volatile:
            self.stats.media_bytes += (nbytes + XPLINE - 1) // XPLINE * XPLINE
        self._charge(self.profile.seq_write_ns(nbytes))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def clwb(self, off: int, n: int = CACHE_LINE) -> None:
        """Write back the cache lines covering ``[off, off+n)`` to media."""
        self._check_range(off, max(n, 1))
        self._tick("flush")
        first = off // CACHE_LINE
        last = (off + max(n, 1) - 1) // CACHE_LINE
        nlines = last - first + 1
        if nlines >= _BULK_FLUSH_LINES:
            self._flush_bulk(first, last)
        else:
            for line in range(first, last + 1):
                self._flush_line(line)
        if TRACE_HOOK is not None:
            TRACE_HOOK("flush", nlines, nlines * CACHE_LINE)

    def _flush_line(self, line: int) -> None:
        prof = self.profile
        st = self.stats
        self._flush_op += 1
        st.flushes += 1

        dirty = line in self._dirty
        if dirty:
            a = line * CACHE_LINE
            if self._reorder:
                # Write-back is initiated but unordered until the next
                # fence: capture the flush-time content instead of
                # touching media (accounting is unchanged — costs are
                # charged when the flush issues, as before).
                self._pending[line] = bytes(self.buf[a : a + CACHE_LINE])
            else:
                self.media[a : a + CACHE_LINE] = self.buf[a : a + CACHE_LINE]
                self._poisoned.discard(line)
            self._dirty.discard(line)
            st.flushed_lines += 1
            st.flushed_bytes += CACHE_LINE

        # Classification (charged even for clean-line flushes, which are
        # nearly free on real hardware -> small fixed cost).
        if not dirty:
            self._charge(prof.store_per_line_ns)
            return

        recent_op = self._recent_flushes.get(line)
        inplace = recent_op is not None and (self._flush_op - recent_op) <= INPLACE_WINDOW
        xpline = line * CACHE_LINE // XPLINE
        sequential = line == self._last_flush_line + 1 or xpline == self._last_media_xpline

        if inplace:
            st.inplace_flushes += 1
            st.rnd_flushes += 1
            self._charge(prof.flush_rnd_per_line_ns + prof.flush_inplace_extra_ns)
            st.media_bytes += XPLINE  # the XPBuffer entry was already evicted
        elif sequential:
            st.seq_flushes += 1
            self._charge(prof.flush_seq_per_line_ns)
            if xpline != self._last_media_xpline:
                st.media_bytes += XPLINE
        else:
            st.rnd_flushes += 1
            self._charge(prof.flush_rnd_per_line_ns)
            st.media_bytes += XPLINE

        self._last_flush_line = line
        self._last_media_xpline = xpline
        self._note_recent_flush(line)

    def _flush_bulk(self, first: int, last: int) -> None:
        """Vectorized flush of a large contiguous span as a sequential stream."""
        prof = self.profile
        st = self.stats
        a, b = first * CACHE_LINE, (last + 1) * CACHE_LINE
        span = range(first, last + 1)
        dirty_in_span = self._dirty.intersection(span) if len(self._dirty) < len(span) * 4 else {
            ln for ln in span if ln in self._dirty
        }
        ndirty = len(dirty_in_span)
        if self._reorder:
            for ln in dirty_in_span:
                la = ln * CACHE_LINE
                self._pending[ln] = bytes(self.buf[la : la + CACHE_LINE])
        else:
            self.media[a:b] = self.buf[a:b]
            if self._poisoned:
                self._poisoned.difference_update(span)
        self._dirty.difference_update(dirty_in_span)

        self._flush_op += len(span)
        st.flushes += len(span)
        st.flushed_lines += ndirty
        st.flushed_bytes += ndirty * CACHE_LINE
        st.seq_flushes += ndirty
        xp_first, xp_last = a // XPLINE, (b - 1) // XPLINE
        st.media_bytes += (xp_last - xp_first + 1) * XPLINE
        self._charge(ndirty * prof.flush_seq_per_line_ns + (len(span) - ndirty) * prof.store_per_line_ns)
        self._last_flush_line = last
        self._last_media_xpline = xp_last

    def _drain_pending(self) -> None:
        """Commit all flush-time snapshots to media (the fence took effect)."""
        if not self._pending:
            return
        for line, content in self._pending.items():
            a = line * CACHE_LINE
            self.media[a : a + CACHE_LINE] = np.frombuffer(content, dtype=np.uint8)
            self._poisoned.discard(line)
        self._pending.clear()

    def sfence(self) -> None:
        """Order preceding flushes/ntstores; charge the drain cost."""
        self._tick("fence")
        self.stats.fences += 1
        self._charge(self.profile.fence_ns)
        self._drain_pending()
        if TRACE_HOOK is not None:
            TRACE_HOOK("fence", 1, 0)

    def persist(self, off: int, n: int = CACHE_LINE) -> None:
        """Convenience ``clwb + sfence`` (PMDK's ``pmem_persist``)."""
        self.clwb(off, n)
        self.sfence()

    # ------------------------------------------------------------------
    # batched persistence (vectorized replay of per-unit scalar ops)
    # ------------------------------------------------------------------
    def _crash_sensitive(self) -> bool:
        """True while an armed injector could fire inside a batched op.

        Batched entry points then fall back to the literal scalar loop so
        a planned crash lands at exactly the right store/flush/fence with
        exactly the right partial state.
        """
        return self.injector.plan is not None and not self.injector.fired

    @staticmethod
    def _unit_rows(data: np.ndarray, n: int) -> np.ndarray:
        """``data`` as an ``(n, unit_bytes)`` uint8 row view."""
        flat = np.ascontiguousarray(data)
        return flat.reshape(n, -1).view(np.uint8)

    @staticmethod
    def _unit_line_seq(offs: np.ndarray, unit: int) -> np.ndarray:
        """Concatenated per-unit cache-line ranges, in unit order.

        This is the exact line sequence ``clwb(off_i, unit)`` replayed
        per unit would flush.
        """
        first = offs // CACHE_LINE
        if not (offs - first * CACHE_LINE > CACHE_LINE - unit).any():
            return first  # no unit crosses a line boundary
        lpu = (offs + (unit - 1)) // CACHE_LINE - first + 1
        total = int(lpu.sum())
        seq = np.repeat(first, lpu)
        # within-unit line index: 0..lpu_i-1 appended to each first line
        ends = np.cumsum(lpu)
        seq += np.arange(total, dtype=np.int64) - np.repeat(ends - lpu, lpu)
        return seq

    def store_batch(
        self, offs: np.ndarray, data: np.ndarray, payload_per_unit: Optional[int] = None
    ) -> np.ndarray:
        """``n`` CPU stores of equal-size units at (possibly scattered) offsets.

        Counter-equivalent to ``for off, row in zip(offs, rows):
        store(off, row, payload_per_unit)`` — same stats, same dirty
        lines, same modeled time — but vectorized.  ``data`` is any
        array with ``n`` equal-size rows (``data.nbytes // n`` bytes
        each).  Returns the distinct cache lines the units cover,
        ascending: the line set a commit group flushes next.
        """
        offs, data, unit = self._units(offs, data, "store_batch")
        n = int(offs.size)
        if n == 0:
            return offs
        self._check_range(int(offs.min()), 1)
        self._check_range(int(offs.max()), unit)
        seq = self._unit_line_seq(offs, unit)
        lines = distinct(seq)
        if self._crash_sensitive():
            rows = self._unit_rows(data, n)
            for i in range(n):
                self.store(int(offs[i]), rows[i], payload=payload_per_unit)
            return lines
        self._store_units(offs, data, unit, int(seq.size), payload_per_unit)
        self._dirty.update(lines.tolist())
        return lines

    @staticmethod
    def _units(offs, data, op: str):
        """``(offs, data, unit)``: int64 offsets, contiguous data, bytes per unit."""
        offs, data = np.asarray(offs, dtype=np.int64), np.ascontiguousarray(data)
        n = int(offs.size)
        if n and data.nbytes % n:
            raise PMemError(f"{op}: data size not divisible into equal units")
        return offs, data, data.nbytes // n if n else 0

    def _store_units(self, offs, data, unit: int, nseq: int, payload_per_unit) -> None:
        """A batch's stores past its checks, ``nseq`` lines charged; not the dirty set."""
        n = int(offs.size)
        self.injector.tick_many("store", n)
        if offs.size > 1 and int(offs[0]) + (n - 1) * unit == int(offs[-1]) and bool(
            np.all(np.diff(offs) == unit)
        ):
            a = int(offs[0])
            self.buf[a : a + n * unit] = self._unit_rows(data, n).reshape(-1)
        elif data.dtype.itemsize == 4 and unit % 4 == 0 and not (offs & 3).any():
            idx = offs >> 2 if unit == 4 else (offs >> 2)[:, None] + np.arange(unit // 4)
            self.buf.view(np.uint32)[idx] = data.reshape(idx.shape).view(np.uint32)
        else:
            rows = self._unit_rows(data, n)
            for i in range(n):
                a = int(offs[i])
                self.buf[a : a + unit] = rows[i]

        st = self.stats
        st.stores += n
        st.stored_bytes += n * unit
        st.payload_bytes += n * (unit if payload_per_unit is None else payload_per_unit)
        self._charge(nseq * self.profile.store_per_line_ns)
        if TRACE_HOOK is not None:
            TRACE_HOOK("store", n, n * unit)

    def flush_span(self, offs: np.ndarray, unit: int) -> None:
        """Replay ``clwb(off_i, unit)`` per unit over the whole span at once.

        Classification (sequential / random / in-place), XPLine media
        accounting and flush-stream state end up identical to the scalar
        replay.  Contract: each unit's lines are dirty when its flush
        runs — true whenever each flush follows the store of the same
        unit, as :meth:`persist_batch` guarantees.  A strictly ascending
        line sequence (a commit group's distinct lines) flushes each line
        once: no pair inside it can be in-place, so only its first
        ``INPLACE_WINDOW`` flushes are probed, against pre-span flushes.
        """
        offs = np.asarray(offs, dtype=np.int64)
        n = int(offs.size)
        if n == 0:
            return
        self._check_range(int(offs.min()), 1)
        self._check_range(int(offs.max()), unit)
        if self._crash_sensitive():
            for i in range(n):
                self.clwb(int(offs[i]), unit)
            return
        self.injector.tick_many("flush", n)
        seq = self._unit_line_seq(offs, unit)
        ascending = seq.size == 1 or bool((seq[1:] > seq[:-1]).all())
        self._flush_lines(seq, ascending)

    def _flush_lines(self, seq: np.ndarray, ascending: bool) -> None:
        """Flush the lines ``seq`` past the checks and ticks: write-back, and
        the classification, media and flush-stream state of every span."""
        prof, st = self.profile, self.stats
        m = int(seq.size)
        window = INPLACE_WINDOW

        # Physical write-back: the last flush of every line follows its
        # last store, so final media content = final cache content.
        lines = seq if ascending else distinct(seq)
        if self._reorder:
            bl = self.buf.reshape(-1, CACHE_LINE)
            for ln in lines.tolist():
                self._pending[ln] = bytes(bl[ln])
        else:
            # one opaque 64-byte item per line moves ~3x faster than rows
            self.media.view(_LINE)[lines] = self.buf.view(_LINE)[lines]
            if self._poisoned:
                self._poisoned.difference_update(lines.tolist())
        if self._dirty:
            self._dirty.difference_update(lines.tolist())

        # In-place: the same line flushed at most `window` flush ops earlier
        # — before the span (only its first `window` flushes can pair with
        # _recent_flushes) or inside it (never, when the span ascends).
        base_op, seen = self._flush_op, self._recent_flushes
        ip = {i for i, ln in enumerate(seq[:window].tolist())
              if base_op + i + 1 - seen.get(ln, -window) <= window} if seen else set()
        if not ascending:
            hit = np.zeros(m, dtype=bool)
            for k in range(1, min(window, m - 1) + 1):
                hit[k:] |= seq[k:] == seq[:-k]
            ip.update(np.flatnonzero(hit).tolist())
        ip = sorted(ip)
        # Sequential: a flush follows the previous one's line or shares its
        # XPLine; unless it shares one (and is not in-place) it writes one.
        xp = seq // LINES_PER_XPLINE
        same, follows = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
        same[0] = int(xp[0]) == self._last_media_xpline
        np.equal(xp[1:], xp[:-1], out=same[1:])
        follows[0] = int(seq[0]) == self._last_flush_line + 1
        np.equal(seq[1:], seq[:-1] + 1, out=follows[1:])
        follows |= same
        n_ip, n_sq, n_shared = len(ip), int(np.count_nonzero(follows)), int(np.count_nonzero(same))
        if ip:
            n_sq -= int(np.count_nonzero(follows[ip]))
            n_shared -= int(np.count_nonzero(same[ip]))
        n_rd, n_media = m - n_ip - n_sq, m - n_shared

        st.flushes += m
        st.flushed_lines += m
        st.flushed_bytes += m * CACHE_LINE
        st.inplace_flushes += n_ip
        st.rnd_flushes += n_ip + n_rd
        st.seq_flushes += n_sq
        st.media_bytes += n_media * XPLINE
        self._charge(
            n_ip * (prof.flush_rnd_per_line_ns + prof.flush_inplace_extra_ns)
            + n_sq * prof.flush_seq_per_line_ns
            + n_rd * prof.flush_rnd_per_line_ns
        )

        self._flush_op = base_op + m
        self._last_flush_line = int(seq[-1])
        self._last_media_xpline = int(xp[-1])
        # Rebuild the recent-flush map: pre-span entries still inside the
        # window (only possible if the span was shorter than it) plus the
        # span's own last `window` flushes.
        tail = min(window, m)
        if m <= window and self._recent_flushes:
            cutoff = self._flush_op - window
            recent = {ln: op for ln, op in self._recent_flushes.items() if op >= cutoff}
        else:
            recent = {}
        for op, ln in enumerate(seq[m - tail :].tolist(), base_op + m - tail + 1):
            recent[ln] = op
        self._recent_flushes = recent
        if TRACE_HOOK is not None:
            TRACE_HOOK("flush", m, m * CACHE_LINE)

    def commit_group(
        self, offs: np.ndarray, data: np.ndarray, payload_per_unit: Optional[int]
    ) -> None:
        """One commit group in one pass: the counters, images, sets and
        modeled ns of ``store_batch``, a ``flush_span`` of the distinct
        lines the units cover, ascending, and one ``sfence``.  The line
        set is found once (not the per-unit replay order); the lines
        never enter the dirty set, and leave it only if an earlier store
        left them there (DESIGN.md §5).  An armed injector runs the
        literal sequence."""
        offs, data, unit = self._units(offs, data, "commit_group")
        if offs.size == 0:
            return
        if self._crash_sensitive():
            lines = self.store_batch(offs, data, payload_per_unit)
            self.flush_span(lines * CACHE_LINE, CACHE_LINE)
            self.sfence()
            return
        first = offs // CACHE_LINE
        last = (offs + (unit - 1)) // CACHE_LINE
        crossing = int((last - first).sum())
        if crossing:  # any order: a unit of at most a line covers first and last
            first = (np.concatenate((first, last)) if unit <= CACHE_LINE
                     else self._unit_line_seq(offs, unit))
        lines = distinct(first)
        lo, hi = int(lines[0]), int(lines[-1]) + 1
        self._check_range(lo * CACHE_LINE, (hi - lo) * CACHE_LINE)
        self._store_units(offs, data, unit, offs.size + crossing, payload_per_unit)
        self.injector.tick_many("flush", int(lines.size))
        self._flush_lines(lines, True)
        self.sfence()

    def copyback_stream(self, src_off: int, dst_off: int, nbytes: int, chunk: int) -> None:
        """Chunked on-device copy: replay of ``store(dst+i*chunk, buf[src+i*chunk:…]);
        clwb(…)`` per chunk, without the trailing fence (the COPYBACK
        redistribution stream of large rebalances).

        Counter-equivalent to the scalar loop — every chunk's lines are
        dirty and sequential at its flush, so each flush takes the bulk
        sequential path — with the whole span copied in two NumPy moves.
        Falls back to the literal loop under an armed crash injector
        (mid-stream crashes must land at exact chunk boundaries) or the
        persist-reorder simulation (per-line pending capture).
        """
        if nbytes <= 0:
            return
        self._check_range(src_off, nbytes)
        self._check_range(dst_off, nbytes)
        full = nbytes // chunk
        rem = nbytes - full * chunk
        if (
            self._crash_sensitive()
            or self._reorder
            or full == 0
            or chunk < _BULK_FLUSH_LINES * CACHE_LINE
        ):
            pos = 0
            while pos < nbytes:
                n = min(chunk, nbytes - pos)
                data = self.buf[src_off + pos : src_off + pos + n].copy()
                self.store(dst_off + pos, data, payload=0)
                self.clwb(dst_off + pos, n)
                pos += n
            return

        prof, st = self.profile, self.stats
        a, b = dst_off, dst_off + full * chunk
        # stores: one per chunk, landing in the cache image
        self.injector.tick_many("store", full)
        if src_off < b and a < src_off + full * chunk:
            self.buf[a:b] = self.buf[src_off : src_off + full * chunk].copy()
        else:
            self.buf[a:b] = self.buf[src_off : src_off + full * chunk]
        starts = dst_off + np.arange(full, dtype=np.int64) * chunk
        first = starts // CACHE_LINE
        last = (starts + chunk - 1) // CACHE_LINE
        nl = last - first + 1
        m = int(nl.sum())  # boundary lines shared by two chunks count twice
        st.stores += full
        st.stored_bytes += full * chunk
        self._charge(m * prof.store_per_line_ns)
        if TRACE_HOOK is not None:
            TRACE_HOOK("store", full, full * chunk)

        # flushes: each chunk replays the bulk sequential-stream path
        self.injector.tick_many("flush", full)
        span_first, span_last = a // CACHE_LINE, (b - 1) // CACHE_LINE
        self.media[a:b] = self.buf[a:b]
        if self._poisoned:
            self._poisoned.difference_update(range(span_first, span_last + 1))
        self._dirty.difference_update(range(span_first, span_last + 1))
        st.flushes += m
        st.flushed_lines += m
        st.flushed_bytes += m * CACHE_LINE
        st.seq_flushes += m
        xp_first = first * CACHE_LINE // XPLINE
        xp_last = last * CACHE_LINE // XPLINE
        st.media_bytes += int((xp_last - xp_first + 1).sum()) * XPLINE
        self._charge(m * prof.flush_seq_per_line_ns)
        self._flush_op += m
        self._last_flush_line = int(span_last)
        self._last_media_xpline = int(xp_last[-1])
        if TRACE_HOOK is not None:
            TRACE_HOOK("flush", m, m * CACHE_LINE)

        if rem:
            data = self.buf[src_off + full * chunk : src_off + nbytes].copy()
            self.store(dst_off + full * chunk, data, payload=0)
            self.clwb(dst_off + full * chunk, rem)

    def sfence_batch(self, n: int) -> None:
        """``n`` back-to-back fences (one per persisted unit)."""
        if n <= 0:
            return
        if self._crash_sensitive():
            for _ in range(n):
                self.sfence()
            return
        self.injector.tick_many("fence", n)
        self.stats.fences += n
        self._charge(n * self.profile.fence_ns)
        self._drain_pending()
        if TRACE_HOOK is not None:
            TRACE_HOOK("fence", n, 0)

    def persist_batch(
        self, offs: np.ndarray, data: np.ndarray, payload_per_unit: Optional[int] = None
    ) -> None:
        """Vectorized replay of ``(store; clwb; sfence)`` per unit.

        The accounting contract: identical integer counters to the
        scalar loop (and modeled ns up to float summation order), at a
        fraction of the interpreter cost.  With an armed crash injector
        the literal scalar loop runs instead, so mid-batch crashes leave
        exactly the prefix a real interleaved stream would.
        """
        offs, data, unit = self._units(offs, data, "persist_batch")
        n = int(offs.size)
        if n == 0:
            return
        if self._crash_sensitive():
            rows = self._unit_rows(data, n)
            for i in range(n):
                off = int(offs[i])
                self.store(off, rows[i], payload=payload_per_unit)
                self.clwb(off, unit)
                self.sfence()
            return
        self.store_batch(offs, data, payload_per_unit)
        self.flush_span(offs, unit)
        self.sfence_batch(n)

    # ------------------------------------------------------------------
    # failure / durability
    # ------------------------------------------------------------------
    def is_persisted(self, off: int, n: int = 1) -> bool:
        """True if no cache line covering the range is dirty (or caches are eADR)."""
        if self.profile.persistent_caches:
            return not self.profile.volatile
        if self.profile.volatile:
            return False
        first, last = off // CACHE_LINE, (off + max(n, 1) - 1) // CACHE_LINE
        return not any(
            line in self._dirty or line in self._pending
            for line in range(first, last + 1)
        )

    @property
    def dirty_lines(self) -> int:
        return len(self._dirty)

    @property
    def pending_lines(self) -> int:
        """Flushed-but-unfenced lines still in flight (volatile under ADR)."""
        return len(self._pending)

    def crash(self) -> None:
        """Emulate a power failure: lose whatever a real platform would lose.

        Under the default policy every dirty line reverts whole (ADR) or
        persists whole (eADR).  An active :class:`FaultPolicy` weakens
        this: dirty lines may persist any 8-byte-chunk subset
        (``torn_stores``), flushed-but-unfenced lines individually
        persist or drop (``persist_reorder``), and lines that lost data
        may poison their covering XPLine (``poison_on_crash``).
        """
        self.stats.crashes += 1
        ordinal = self.crash_ordinal
        self.crash_ordinal += 1
        if self.profile.volatile:
            self.buf[:] = 0
            self.media[:] = 0
        elif self.profile.persistent_caches:
            # eADR: caches (and any initiated write-backs) are inside the
            # power-fail domain and flush themselves on power fail.
            self._drain_pending()
            for line in self._dirty:
                a = line * CACHE_LINE
                self.media[a : a + CACHE_LINE] = self.buf[a : a + CACHE_LINE]
                self._poisoned.discard(line)
        else:
            self._crash_adr(ordinal)
        self._dirty.clear()
        self._pending.clear()
        self.end_session()
        if TRACE_HOOK is not None:
            TRACE_HOOK("crash", 1, 0)

    def end_session(self) -> None:
        """Forget flush recency (the in-place / sequential classification
        state): write-combining buffers outlive neither a power failure
        nor the process exit after a graceful shutdown."""
        self._recent_flushes.clear()
        self._last_flush_line = -(10**9)
        self._last_media_xpline = -(10**9)

    def _crash_adr(self, ordinal: int) -> None:
        """ADR power failure, honoring the device's fault policy."""
        policy = self.faults
        rng = policy.rng_for_crash(ordinal) if policy.active else None
        st = self.stats
        lost: list[int] = []  # lines that lost (some) in-flight data

        # Flushed-but-unfenced lines: all persist under the clean model,
        # each one individually under persist_reorder.
        for line, content in self._pending.items():
            a = line * CACHE_LINE
            if not self._reorder or rng.integers(0, 2) == 1:
                self.media[a : a + CACHE_LINE] = np.frombuffer(content, dtype=np.uint8)
                self._poisoned.discard(line)
            else:
                st.dropped_pending_lines += 1
                lost.append(line)

        # Dirty (never-flushed) lines: whole-line revert, or per-chunk
        # tearing when the policy allows torn stores.
        if policy.torn_stores and self._dirty:
            bufc = self.buf.reshape(-1, CHUNKS_PER_LINE * 8)
            for line in self._dirty:
                mask = rng.integers(0, 2, size=CHUNKS_PER_LINE).astype(bool)
                a = line * CACHE_LINE
                if mask.all():
                    self.media[a : a + CACHE_LINE] = bufc[line]
                    self._poisoned.discard(line)
                    continue
                if mask.any():
                    mb = self.media[a : a + CACHE_LINE].reshape(CHUNKS_PER_LINE, 8)
                    bb = bufc[line].reshape(CHUNKS_PER_LINE, 8)
                    mb[mask] = bb[mask]
                    st.torn_lines += 1
                lost.append(line)
        else:
            lost.extend(self._dirty)

        # The cache hierarchy is gone: the CPU view reverts to media for
        # every line that did not (fully) persist.
        for line in lost:
            a = line * CACHE_LINE
            self.buf[a : a + CACHE_LINE] = self.media[a : a + CACHE_LINE]

        # Interrupted media writes may leave uncorrectable XPLines.
        if policy.poison_on_crash > 0.0:
            for line in lost:
                if rng.random() < policy.poison_on_crash:
                    self.poison(line * CACHE_LINE, CACHE_LINE)

    # ------------------------------------------------------------------
    # media poison (uncorrectable errors)
    # ------------------------------------------------------------------
    def _rt_check_line(self, line: int, ctx: str) -> None:
        """Runtime hazard draws for one cache-line read (policy opt-in).

        Called once per covered line, in the order the equivalent scalar
        replay would read them (the caller has already established the
        line is not poisoned).  Draw protocol per line — one uniform for
        spontaneous decay, one for a transient fault, plus one per retry
        attempt — is fixed so that bulk and scalar read paths consume
        the identical RNG stream and therefore see identical faults.
        """
        pol = self.faults
        rng = self._rt_rng
        if pol.read_poison_rate > 0.0 and rng.random() < pol.read_poison_rate:
            self._rt_escalate(line, ctx, "spontaneous media decay")
        if pol.transient_read_rate > 0.0 and rng.random() < pol.transient_read_rate:
            st = self.stats
            st.transient_faults += 1
            backoff = pol.retry_backoff_ns
            for _ in range(pol.read_retries):
                st.read_retries += 1
                self._charge(backoff)
                if rng.random() >= pol.transient_read_rate:
                    return  # recovered transparently; caller never sees it
            self._rt_escalate(
                line, ctx,
                f"transient fault persisted through {pol.read_retries} retries,",
            )

    def _rt_escalate(self, line: int, ctx: str, why: str) -> None:
        """Confirm a runtime read fault as hard: poison the XPLine, raise."""
        a = line * CACHE_LINE
        self.poison(a, CACHE_LINE)
        self.stats.runtime_poison_events += 1
        self.stats.media_errors += 1
        raise MediaError(
            f"uncorrectable media error {ctx}: {why} poisoned line at offset {a}",
            off=a,
            length=CACHE_LINE,
        )

    @contextmanager
    def suspend_runtime_faults(self):
        """Disable runtime read-fault draws inside the ``with`` block.

        Used by the resilience layer so scrub/repair reads — and any
        diagnostic re-reads — neither re-fault nor perturb the hazard
        RNG stream.  Re-entrant; a no-op when runtime faults are off.
        """
        self._rt_suspend += 1
        try:
            yield
        finally:
            self._rt_suspend -= 1

    def scrub_scan(self, off: int, n: int) -> list:
        """Patrol-read a window at media granularity, surfacing decay.

        Models DCPMM address-range scrub (ARS): charges one sequential
        read over the window, draws the spontaneous-decay hazard for
        every covered cache line from the same runtime RNG stream demand
        reads use, and marks failing lines poisoned **without raising**
        — a scrubber detects damage, it does not consume the data.
        Returns the newly poisoned ``(off, nbytes)`` line ranges.
        Transient faults are not modeled here: a patrol read that fails
        transiently is simply covered again by the next pass.
        """
        self._check_range(off, n)
        self.account_seq_read(n)
        pol = self.faults
        if (
            self._rt_rng is None
            or self._rt_suspend
            or pol.read_poison_rate <= 0.0
        ):
            return []
        l0 = off // CACHE_LINE
        l1 = (off + max(n, 1) - 1) // CACHE_LINE + 1
        draws = self._rt_rng.random(l1 - l0)
        found = []
        for i in np.flatnonzero(draws < pol.read_poison_rate):
            a = (l0 + int(i)) * CACHE_LINE
            if not self.check_poison(a, CACHE_LINE):
                self.poison(a, CACHE_LINE)
                self.stats.runtime_poison_events += 1
                found.append((a, CACHE_LINE))
        return found

    def poison(self, off: int, n: int = 1) -> None:
        """Mark the XPLine(s) covering ``[off, off+n)`` as uncorrectable.

        Models DCPMM EUNCORR: subsequent :meth:`read` calls covering a
        poisoned line raise :class:`~repro.errors.MediaError` until the
        line is rewritten on media (flush of a dirty line, ntstore, or a
        drained pending write-back).
        """
        self._check_range(off, max(n, 1))
        xp_first = off // XPLINE
        xp_last = (off + max(n, 1) - 1) // XPLINE
        for xp in range(xp_first, xp_last + 1):
            base = xp * LINES_PER_XPLINE
            new = set(range(base, base + LINES_PER_XPLINE)) - self._poisoned
            if new:
                self.stats.poisoned_xplines += 1
                self._poisoned.update(new)

    def check_poison(self, off: int, n: int = 1) -> bool:
        """True when any line covering ``[off, off+n)`` is poisoned."""
        if not self._poisoned:
            return False
        first, last = off // CACHE_LINE, (off + max(n, 1) - 1) // CACHE_LINE
        return any(line in self._poisoned for line in range(first, last + 1))

    def poisoned_ranges(self) -> list:
        """Sorted ``(offset, nbytes)`` byte ranges of poisoned lines, merged."""
        if not self._poisoned:
            return []
        out = []
        start = prev = None
        for line in sorted(self._poisoned):
            if prev is not None and line == prev + 1:
                prev = line
                continue
            if start is not None:
                out.append((start * CACHE_LINE, (prev - start + 1) * CACHE_LINE))
            start = prev = line
        out.append((start * CACHE_LINE, (prev - start + 1) * CACHE_LINE))
        return out

    def drain_all(self) -> None:
        """Flush every dirty line (used by graceful shutdown paths)."""
        for line in sorted(self._dirty):
            self._flush_line(line)
        self.sfence()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PMemDevice(name={self.name!r}, size={self.size}, profile={self.profile.name}, "
            f"dirty_lines={len(self._dirty)})"
        )


__all__ = ["PMemDevice"]
