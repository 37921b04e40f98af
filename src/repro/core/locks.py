"""Per-section concurrency control (paper §3.1.6).

DGAP keeps one lock (plus a "rebalancing" condition flag) per PMA leaf
section, all in DRAM — locks are rebuilt from scratch after a crash.
Writers lock the section of the vertex they insert into; a rebalance
first raises the section's condition flag, then acquires every affected
section's lock in ascending order (deadlock-free), runs, and notifies.

Two uses in this reproduction:

* **real threads** — the table wraps ``threading`` primitives, used by
  the concurrency-correctness tests (the GIL serializes bytecode, not
  compound critical sections, so the locks are load-bearing);
* **virtual threads** — the suite's scheduler
  (``tests/harness/vthreads.py``) reuses the same acquisition *order* to
  model lock-wait times on its per-thread clocks.

Deadlock freedom rests on two rules, which the lock-discipline oracle
in ``tests/harness/racecheck.py`` checks on every recorded schedule:

1. every thread acquires section locks in **ascending order** and never
   blocks on a *flag* while holding any section lock (flag waiters hold
   nothing, lock waiters hold only lower-numbered sections — a wait
   cycle would need a descending edge, which cannot exist);
2. after acquiring a lock the flag is **re-checked**: a writer that
   raced past ``begin_rebalance``'s flag-set but won the lock drops it
   and retries, so a rebalance window never observes a writer inside.
   (The pre-fix code checked the flag only *before* acquiring — the
   TOCTOU the racecheck regression tests reproduce.)

``resize`` (after an edge-array generation switch) swaps the lock and
flag arrays wholesale.  It is only legal at quiescence: the caller may
hold locks itself (the resize path holds *every* section via
``begin_rebalance``), but any hold by another thread raises
:class:`~repro.errors.LockDisciplineError`.  The condition variable is
created once and survives resizes, so threads blocked in a flag wait
are always notified; threads blocked on an old table's lock are woken
by the old locks being released and retry against the new table (the
post-acquire identity check below).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple

from ..errors import LockDisciplineError


class _LazyLocks(dict):
    """Section -> ``RLock``, made on first lookup (always under the table's
    ``_cond``): a table is rebuilt at every open and generation switch."""

    def __missing__(self, section: int) -> threading.RLock:
        lock = self[section] = threading.RLock()
        return lock


class SectionLockTable:
    """|sections| re-entrant locks with rebalance condition flags.

    The protocol methods funnel every state change through ``_trace``
    (a no-op here) and every potentially blocking step through
    ``_lock_acquire`` / ``_cond_wait`` — the instrumented subclass in
    ``tests/harness/racecheck.py`` overrides those to record events and to
    yield to a deterministic scheduler, without duplicating any of the
    protocol logic below.
    """

    def __init__(self, n_sections: int):
        # Stable identities: survive resize so waiters are never orphaned.
        self._cond = threading.Condition(threading.Lock())
        self._build(n_sections)

    def _build(self, n_sections: int) -> None:
        self.n_sections = n_sections
        self._locks: Dict[int, threading.RLock] = _LazyLocks()
        #: rebalance flag as a counter — overlapping windows nest.
        self._rebalancing: List[int] = [0] * n_sections
        #: per-section (owner thread ident, reentrant hold count)
        self._holds: List[Tuple[int, int]] = [(0, 0)] * n_sections

    # -- overridable primitives (instrumentation points) -------------------
    def _trace(self, kind: str, section: int = -1, **info) -> None:
        """Protocol event hook; the instrumented table records + yields."""

    def _lock_acquire(self, lock: threading.RLock, section: int) -> None:
        lock.acquire()

    def _cond_wait(self) -> None:
        """One flag wait; called with ``_cond`` held, may wake spuriously."""
        self._cond.wait()

    # -- hold bookkeeping (always called with _cond held) -------------------
    def _note_acquire(self, section: int) -> None:
        owner, count = self._holds[section]
        self._holds[section] = (threading.get_ident(), count + 1)

    def _note_release(self, section: int) -> None:
        owner, count = self._holds[section]
        if count <= 0 or owner != threading.get_ident():
            raise LockDisciplineError(
                f"release of section {section} which this thread does not hold"
            )
        self._holds[section] = (owner if count > 1 else 0, count - 1)

    def holder(self, section: int) -> Tuple[int, int]:
        """(owner thread ident, hold count) — (0, 0) when free."""
        with self._cond:
            return self._holds[section]

    # -- write path -------------------------------------------------------
    def acquire_many(self, sections: Iterable[int]) -> List[int]:
        """Writer lock (writers and snapshot readers): ascending, flag-gated.

        Waits for every flag with no locks held, then acquires in
        ascending order.  The flags (and the table identity) are
        re-checked *after* the locks are won: if a rebalance flagged a
        section in the gap (or a resize swapped the table), everything
        is dropped and the whole wait restarts.  Holding nothing while
        flag-waiting is what keeps the protocol deadlock-free (see
        module docstring).
        """
        secs = sorted(set(int(s) for s in sections))
        while True:
            with self._cond:
                while any(self._rebalancing[s] for s in secs):
                    self._trace("flag-wait", next(s for s in secs if self._rebalancing[s]))
                    self._cond_wait()
                locks = [self._locks[s] for s in secs]
            for s, lock in zip(secs, locks):
                self._trace("lock-request", s)
                self._lock_acquire(lock, s)
            with self._cond:
                if all(self._locks[s] is lk for s, lk in zip(secs, locks)) and not any(
                    self._rebalancing[s] for s in secs
                ):
                    for s in secs:
                        self._note_acquire(s)
                        self._trace("acquire", s)
                    return secs
            self._trace("acquire-retry", secs[0] if secs else -1)
            for lock in reversed(locks):
                lock.release()

    def release(self, section: int) -> None:
        with self._cond:
            # Capture before the hold count drops: once it does, a resize
            # may pass its quiescence check and swap the table under us.
            lock = self._locks[section]
            self._note_release(section)
            self._trace("release", section)
        lock.release()

    def release_many(self, sections: Iterable[int]) -> None:
        for s in sorted(set(int(s) for s in sections), reverse=True):
            self.release(s)

    # -- rebalance path ---------------------------------------------------------
    def begin_rebalance(self, sections: Iterable[int]) -> List[int]:
        """Flag and lock a window of sections in ascending order.

        Rebalancers never wait on flags (the counters nest), only on
        locks, and always ascending — so concurrent windows serialize
        without deadlock.  Each acquisition re-checks the table identity
        afterwards: a concurrent resize (which requires every lock, so
        it can only interleave *between* our acquisitions) swaps the
        lock objects, and a win on an orphaned old lock must be retried
        against the new table.
        """
        with self._cond:
            secs = sorted(
                set(int(s) for s in sections if 0 <= int(s) < self.n_sections)
            )
            for s in secs:
                self._rebalancing[s] += 1
                self._trace("flag-set", s)
        for s in secs:
            while True:
                with self._cond:
                    lock = self._locks[s] if s < self.n_sections else None
                if lock is None:
                    break  # table shrank underneath us; nothing to hold
                self._trace("window-request", s)
                self._lock_acquire(lock, s)
                with self._cond:
                    if s < self.n_sections and self._locks[s] is lock:
                        self._note_acquire(s)
                        self._trace("window-lock", s)
                        break
                lock.release()
        return secs

    def end_rebalance(self, secs: List[int]) -> None:
        for s in reversed(secs):
            with self._cond:
                lock = self._locks[s]
                self._note_release(s)
                self._trace("window-unlock", s)
            lock.release()
        with self._cond:
            for s in secs:
                if 0 <= s < self.n_sections and self._rebalancing[s] > 0:
                    self._rebalancing[s] -= 1
                    self._trace("flag-clear", s)
            self._cond.notify_all()

    # -- generation switch --------------------------------------------------
    def resize(self, n_sections: int) -> None:
        """(Re)build the table — after an edge-array resize or crash recovery.

        Quiescence is asserted, not assumed: any section held by a
        thread other than the caller raises
        :class:`~repro.errors.LockDisciplineError` (the resize path in
        ``core.rebalance`` guarantees this by holding every section via
        :meth:`begin_rebalance` across the generation switch).  The
        caller's own holds are released *after* the swap so threads
        blocked on old locks wake up, fail the identity re-check in
        :meth:`acquire_many`, and retry against the new table.
        """
        me = threading.get_ident()
        with self._cond:
            foreign = [
                s for s, (owner, count) in enumerate(self._holds)
                if count and owner != me
            ]
            if foreign:
                raise LockDisciplineError(
                    f"lock-table resize while sections {foreign} are held by "
                    f"other threads (resize requires quiescence)"
                )
            old_locks = self._locks
            mine = [(s, count) for s, (owner, count) in enumerate(self._holds) if count]
            self._build(n_sections)
            self._trace("resize", -1, n_sections=n_sections)
            self._cond.notify_all()
        # Release the caller's holds on the *old* table: waiters blocked in
        # _lock_acquire on an old lock wake here and retry on the new table.
        for s, count in reversed(mine):
            for _ in range(count):
                old_locks[s].release()

    # -- diagnostics ---------------------------------------------------------
    def held_sections(self) -> Dict[int, Tuple[int, int]]:
        """{section: (owner ident, count)} for every currently held section."""
        with self._cond:
            return {
                s: hold for s, hold in enumerate(self._holds) if hold[1] > 0
            }


__all__ = ["SectionLockTable"]
