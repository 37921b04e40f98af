"""Crash injection for persistence testing.

A :class:`CrashInjector` is armed on a device and fires a
:class:`~repro.errors.SimulatedCrash` at a chosen persistence event —
the N-th store, flush or fence — *before* that event takes effect.  The
device then reverts every cache line not yet flushed to media, exactly
like a power failure on an ADR platform, and the exception propagates to
the test, which reopens the structures through their recovery paths.

Deterministic countdown triggers make it possible to sweep *every*
crash point of an operation (see the rebalance crash-consistency tests),
which is the strongest form of the paper's §3.1.4/§3.1.5 claims.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..errors import SimulatedCrash

#: Event kinds the injector can observe.
EVENTS = ("store", "flush", "fence", "ntstore")


@dataclass
class CrashPlan:
    """Fire on the ``countdown``-th event of kind ``event`` (1-based).

    ``event=None`` matches any persistence event.
    """

    countdown: int
    event: Optional[str] = None

    def __post_init__(self) -> None:
        if self.countdown < 1:
            raise ValueError("countdown is 1-based and must be >= 1")
        if self.event is not None and self.event not in EVENTS:
            raise ValueError(f"unknown event {self.event!r}; choose from {EVENTS}")


class CrashInjector:
    """Counts persistence events and raises at the planned point.

    The injector never mutates a caller-supplied :class:`CrashPlan`:
    plans are copied on arming and the remaining-events countdown lives
    in the injector, so one plan object can be reused across injectors
    and sweep iterations.
    """

    def __init__(self, plan: Optional[CrashPlan] = None):
        self.plan = replace(plan) if plan is not None else None
        self._remaining = plan.countdown if plan is not None else 0
        self.counts = dict.fromkeys(EVENTS, 0)
        self.fired = False

    # -- arming ----------------------------------------------------------
    def arm(self, countdown: int, event: Optional[str] = None) -> None:
        """(Re)arm: crash at the ``countdown``-th upcoming matching event."""
        self.plan = CrashPlan(countdown, event)
        self._remaining = countdown
        self.fired = False

    def disarm(self) -> None:
        self.plan = None
        self._remaining = 0

    @property
    def remaining(self) -> int:
        """Matching events left before the planned crash (0 when unarmed)."""
        return self._remaining if self.plan is not None and not self.fired else 0

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    def _fire(self, event: str) -> None:
        self.fired = True
        raise SimulatedCrash(
            op=event, op_index=self.counts[event], total_index=self.total_events
        )

    # -- hook called by the device --------------------------------------
    def tick(self, event: str) -> None:
        """Observe one event; raise :class:`SimulatedCrash` if it is the planned one."""
        self.counts[event] += 1
        if self.plan is None or self.fired:
            return
        if self.plan.event is not None and self.plan.event != event:
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._fire(event)

    def tick_many(self, event: str, n: int) -> None:
        """Observe ``n`` back-to-back events of one kind in O(1).

        Equivalent to ``n`` calls to :meth:`tick`.  Batched device
        entry points only take this path when no crash can fire inside
        the run (unarmed, already fired, or a non-matching event kind);
        an armed matching plan falls back to per-event ticking so the
        crash lands on exactly the planned event index.
        """
        if n <= 0:
            return
        if (
            self.plan is None
            or self.fired
            or (self.plan.event is not None and self.plan.event != event)
        ):
            self.counts[event] += n
            return
        if self._remaining > n:
            self._remaining -= n
            self.counts[event] += n
            return
        # The planned event sits inside this run; events past it never
        # happen (the crash propagates), so only count up to it.
        self.counts[event] += self._remaining
        self._remaining = 0
        self._fire(event)


__all__ = ["CrashPlan", "CrashInjector", "EVENTS"]
