"""Operation counters and derived metrics for a simulated device.

The counters feed three things:

* the **modeled clock** (``modeled_ns``) used by every benchmark;
* the **write-amplification** metric of Fig. 1(a)/§4.4 — the ratio of
  bytes actually written to the device over useful payload bytes;
* assertions in tests (e.g. "the edge log reduced stored bytes by ~6x").

``payload_bytes`` is declared by callers: when DGAP inserts one 4-byte
edge it declares 4 payload bytes no matter how many bytes the store and
any induced shifting actually wrote.  ``stored_bytes`` counts bytes
passed to ``store``; ``media_bytes`` counts bytes written to the Optane
media at XPLine (256 B) granularity when lines are flushed, with
write-combining for consecutive flushes into the same XPLine.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence, Tuple


@dataclass
class PMemStats:
    """Mutable counter block attached to a :class:`PMemDevice`."""

    # -- stores ----------------------------------------------------------
    stores: int = 0
    stored_bytes: int = 0
    payload_bytes: int = 0

    # -- flushes ---------------------------------------------------------
    flushes: int = 0
    flushed_lines: int = 0
    flushed_bytes: int = 0
    seq_flushes: int = 0
    rnd_flushes: int = 0
    inplace_flushes: int = 0
    media_bytes: int = 0

    # -- fences / ntstores -------------------------------------------------
    fences: int = 0
    ntstores: int = 0
    ntstored_bytes: int = 0

    # -- reads (accounted, not traced) -------------------------------------
    seq_read_bytes: int = 0
    rnd_reads: int = 0

    # -- crash / fault injection -------------------------------------------
    crashes: int = 0
    torn_lines: int = 0
    dropped_pending_lines: int = 0
    poisoned_xplines: int = 0
    media_errors: int = 0

    # -- runtime read faults (opt-in; always zero under DEFAULT_POLICY) ----
    transient_faults: int = 0
    read_retries: int = 0
    runtime_poison_events: int = 0

    # -- modeled time ------------------------------------------------------
    modeled_ns: float = 0.0

    # -- derived -----------------------------------------------------------
    @property
    def modeled_seconds(self) -> float:
        return self.modeled_ns * 1e-9

    def write_amplification(self) -> float:
        """Bytes handed to ``store`` per useful payload byte.

        This matches the paper's Fig. 1(a) definition ("the ratio of
        actual memory writes vs. the edge size"): shifting k elements to
        make room for one inserted edge writes (k+1) elements for 1
        element of payload.
        """
        if self.payload_bytes == 0:
            return 0.0
        return self.stored_bytes / self.payload_bytes

    def snapshot(self) -> "PMemStats":
        """A frozen copy, for before/after deltas."""
        return PMemStats(**self.__dict__)

    def delta_since(self, before: "PMemStats") -> "PMemStats":
        """Counters accumulated since ``before`` (a prior :meth:`snapshot`)."""
        return PMemStats(**{k: v - getattr(before, k) for k, v in self.__dict__.items()})


#: every integer counter, in declaration order (all fields but the float
#: modeled clock) — what aggregation rows, traces and twin checks iterate.
INT_COUNTER_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(PMemStats) if isinstance(f.default, int)
)


class SummedStats:
    """Several devices' :class:`PMemStats` read as one block.

    Every counter and ``modeled_ns`` is summed — device *work*, which is
    what exact span self-attribution needs (a :class:`~repro.obs.Tracer`
    takes one of these exactly like a single pool's block).  *Elapsed*
    time over devices that tick in parallel is not a sum; that reading
    lives in ``pool.clocks()``.
    """

    def __init__(self, blocks: Sequence[PMemStats]):
        self._blocks = blocks

    def snapshot(self) -> PMemStats:
        return PMemStats(
            **{f.name: sum(getattr(b, f.name) for b in self._blocks) for f in fields(PMemStats)}
        )

    def delta_since(self, before: PMemStats) -> PMemStats:
        return self.snapshot().delta_since(before)

    @property
    def modeled_ns(self) -> float:
        return sum(b.modeled_ns for b in self._blocks)


__all__ = ["PMemStats", "SummedStats", "INT_COUNTER_FIELDS"]
