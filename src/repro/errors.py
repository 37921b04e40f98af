"""Exception hierarchy for the DGAP reproduction.

All library errors derive from :class:`ReproError` so callers can catch
one base type.  :class:`SimulatedCrash` is special: it is *not* a bug —
it is raised by the crash injector (``repro.pmem.crash``) to emulate a
power failure at a precise store/flush/fence boundary, and tests catch
it to exercise the recovery paths.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PMemError(ReproError):
    """Base class for persistent-memory substrate errors."""


class OutOfPMemError(PMemError):
    """A pool or device has no room for the requested allocation."""


class PoolLayoutError(PMemError):
    """A named root object is missing or has an unexpected shape."""


class TransactionError(PMemError):
    """Misuse of the PMDK-style transaction API (e.g. write outside tx)."""


class MediaError(PMemError):
    """An uncorrectable media error (poisoned XPLine) was read.

    Models DCPMM's EUNCORR/poison semantics: once a media block is
    damaged, loads from it fault until the block is rewritten.  Raised
    by :meth:`~repro.pmem.device.PMemDevice.read` when the range covers
    a poisoned line; carries the offending byte range so recovery can
    map it to a pool region.
    """

    def __init__(self, message: str, *, off: int = -1, length: int = 0):
        super().__init__(message)
        self.off = off
        self.length = length


class SimulatedCrash(ReproError):
    """Raised by the crash injector to emulate a power failure.

    When raised, the owning :class:`~repro.pmem.device.PMemDevice` has
    already reverted every cache line that was not yet flushed to media
    (ADR semantics, possibly torn/reordered under a fault policy),
    exactly as a real power loss would.  Catch it, then reopen the
    structures via their recovery entry points.

    ``op``/``op_index`` name the per-kind persistence event the crash
    fired on; ``total_index`` is the index into the device's combined
    event stream (stores + flushes + fences + ntstores), which is the
    canonical coordinate a crash sweep re-arms with.
    """

    def __init__(self, *, op: str = "?", op_index: int = -1, total_index: int = -1):
        super().__init__("simulated power failure")
        self.op = op
        self.op_index = op_index
        self.total_index = total_index

    def __str__(self) -> str:
        return (
            f"{self.args[0]} (at {self.op} #{self.op_index}, "
            f"total event #{self.total_index})"
        )

    def __repr__(self) -> str:
        return (
            f"SimulatedCrash(op={self.op!r}, op_index={self.op_index}, "
            f"total_index={self.total_index})"
        )


class GraphError(ReproError):
    """Base class for graph-structure errors."""


class LockDisciplineError(GraphError):
    """The §3.1.6 lock protocol was violated (caught, not raced).

    Raised eagerly by :class:`~repro.core.locks.SectionLockTable` when a
    misuse is detectable at the call site — releasing a section that is
    not held, or swapping the table (``resize``) while another thread
    still holds a section lock.  Subtler violations (a writer slipping
    into a flagged section, out-of-order window acquisition) are caught
    after the fact by the lock-discipline oracle in
    ``tests/harness/racecheck.py``.
    """


class VertexRangeError(GraphError):
    """A vertex id is outside the representable range."""


class ImmutableGraphError(GraphError):
    """An update was attempted on a static (immutable) graph store."""


class SnapshotError(GraphError):
    """Invalid use of a consistent-view snapshot (e.g. after release)."""


class RecoveryError(GraphError):
    """The persistent image could not be recovered into a valid graph."""


class ReadOnlyGraphError(GraphError):
    """A write was attempted on an instance in the READ_ONLY health state.

    The resilience layer (:mod:`repro.resilience`) demotes a live DGAP
    instance to READ_ONLY when it quarantines media damage it cannot
    repair — further writes could compound the loss, but reads over the
    undamaged remainder stay valid and keep being served.
    """
