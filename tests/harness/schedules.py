"""Deterministic interleaving of real threads (the racecheck substrate).

Python gives no control over when the GIL switches threads, so racing
threads "for a while" and hoping is neither deterministic nor
exhaustive.  This module replaces preemption with **cooperative
single-stepping**: worker threads are real ``threading.Thread``s, but
every one of them blocks at *yield points* (injected by the
instrumented lock table at instrumentation boundaries, and by scenario
scripts between operations) until the driver grants it exactly one
step.  Between two yield points only the granted thread runs, so a
schedule — the sequence of grant choices — fully determines the
interleaving, and replaying the same choices replays the same
execution.  This is stateless model checking in the style of the
crash-sweep driver: enumerate the event space, replay from scratch per
point, oracle every outcome.

Blocking is cooperative too: the instrumented table never parks a
thread inside ``lock.acquire()``; it try-locks and, on failure, yields
with a ``blocked_on`` annotation.  The driver *parks* such a thread —
it stops being schedulable until some other thread completes a step
that is not itself a failed retry (only real steps can change who holds
what).  If every live thread is parked and a retry round makes no
progress, the schedule deadlocked: :class:`ScheduleDeadlock` names the
blocked resources, which is itself a checkable outcome (the fixed lock
protocol never deadlocks; see ``core/locks.py``).

:func:`explore` turns single runs into coverage: depth-first
enumeration of every grant choice — exhaustive for small scenarios (the
frontier empties), the first ``max_schedules`` branches otherwise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class ScheduleError(RuntimeError):
    """The driver lost a worker (it neither yielded nor finished)."""


class ScheduleDeadlock(ScheduleError):
    """Every live thread is parked and retries make no progress."""


@dataclass
class _Worker:
    name: str
    thread: Optional[threading.Thread] = None
    at_yield: bool = False
    arrivals: int = 0
    go: bool = False
    done: bool = False
    label: str = ""
    blocked_on: Optional[Tuple] = None
    parked: bool = False
    error: Optional[BaseException] = None


@dataclass
class Decision:
    """One grant choice: who ran, and who else could have."""

    chosen: str
    candidates: Tuple[str, ...]


@dataclass
class ScheduleTrace:
    """Everything one driven run produced."""

    trace: List[str] = field(default_factory=list)
    decisions: List[Decision] = field(default_factory=list)
    errors: Dict[str, BaseException] = field(default_factory=dict)


class DeterministicScheduler:
    """Grant-one-step-at-a-time driver for a set of worker callables."""

    #: seconds the driver waits for a worker to reach a yield point
    #: before declaring it lost (a *real* block, which instrumented code
    #: must never do).
    STEP_TIMEOUT = 10.0

    def __init__(self):
        self._cv = threading.Condition()
        self._workers: Dict[str, _Worker] = {}
        self._order: List[str] = []
        self._idents: Dict[int, str] = {}

    # -- worker side -----------------------------------------------------
    def spawn(self, name: str, fn: Callable[[], None]) -> None:
        """Register and start a worker; it parks at an implicit first yield."""
        st = _Worker(name=name)

        def body():
            self._idents[threading.get_ident()] = name
            try:
                self.yield_point("start")
                fn()
            except BaseException as exc:  # noqa: BLE001 - reported, not hidden
                st.error = exc
            finally:
                with self._cv:
                    st.done = True
                    self._cv.notify_all()

        st.thread = threading.Thread(target=body, name=name, daemon=True)
        self._workers[name] = st
        self._order.append(name)
        st.thread.start()

    def current_worker(self) -> Optional[str]:
        return self._idents.get(threading.get_ident())

    def yield_point(self, label: str, blocked_on: Optional[Tuple] = None) -> None:
        """Block the calling worker until the driver grants its next step.

        No-op when called from a thread the scheduler does not own
        (lets instrumented structures be shared with unscheduled code).
        """
        name = self.current_worker()
        if name is None:
            return
        st = self._workers[name]
        with self._cv:
            st.label = label
            st.blocked_on = blocked_on
            st.arrivals += 1
            st.at_yield = True
            self._cv.notify_all()
            while not st.go:
                self._cv.wait()
            st.go = False
            st.at_yield = False

    # -- driver side -----------------------------------------------------
    def _await_yield(self, st: _Worker) -> bool:
        """Wait until ``st`` is at a yield point; False if it finished."""
        deadline = self.STEP_TIMEOUT
        while not (st.at_yield or st.done):
            if not self._cv.wait(timeout=deadline):
                raise ScheduleError(
                    f"worker {st.name!r} neither yielded nor finished within "
                    f"{self.STEP_TIMEOUT}s — a non-cooperative block?"
                )
        return not st.done

    def step(self, name: str) -> bool:
        """Run ``name`` for one step; True if it progressed past a retry.

        A step that starts blocked on a resource and ends blocked on the
        same resource is a *bounce* (a failed try-lock retry): it cannot
        have changed shared state, so it does not unpark anyone.
        """
        st = self._workers[name]
        with self._cv:
            if not self._await_yield(st):
                return False
            was_blocked = st.blocked_on
            a0 = st.arrivals
            st.go = True
            self._cv.notify_all()
            while st.arrivals == a0 and not st.done:
                if not self._cv.wait(timeout=self.STEP_TIMEOUT):
                    raise ScheduleError(
                        f"worker {name!r} did not come back to a yield point "
                        f"within {self.STEP_TIMEOUT}s"
                    )
            bounced = (
                not st.done
                and was_blocked is not None
                and st.blocked_on == was_blocked
            )
            if bounced:
                st.parked = True
            else:
                for other in self._workers.values():
                    other.parked = False
            return not bounced

    def live(self) -> List[str]:
        return [n for n in self._order if not self._workers[n].done]

    def run(
        self,
        prefix: Sequence[str] = (),
        rng: Optional[np.random.Generator] = None,
        max_steps: int = 100_000,
    ) -> ScheduleTrace:
        """Drive every worker to completion under one schedule.

        The first ``len(prefix)`` grant choices are forced (a replayed
        schedule); afterwards the lowest-registered runnable worker is
        chosen, or a seeded-random one when ``rng`` is given.  Each
        choice and its candidate set are recorded so an explorer can
        branch on the alternatives.
        """
        out = ScheduleTrace()
        retry_rounds = 0
        while True:
            with self._cv:
                for st in self._workers.values():
                    self._await_yield(st)
            live = self.live()
            if not live:
                break
            if len(out.trace) >= max_steps:
                raise ScheduleError(f"schedule exceeded {max_steps} steps")
            candidates = [n for n in live if not self._workers[n].parked]
            if not candidates:
                # Everyone is parked: give each one retry round, and
                # declare deadlock if whole rounds pass with no progress
                # (retry_rounds only resets on a progressing step).
                if retry_rounds > len(live) + 1:
                    blocked = {n: self._workers[n].blocked_on for n in live}
                    self._abandon()
                    err = ScheduleDeadlock(f"all live workers are blocked: {blocked}")
                    err.partial = out
                    raise err
                retry_rounds += 1
                for n in live:
                    self._workers[n].parked = False
                candidates = live
            i = len(out.trace)
            if i < len(prefix) and prefix[i] in candidates:
                choice = prefix[i]
            elif rng is not None:
                choice = candidates[int(rng.integers(len(candidates)))]
            else:
                choice = candidates[0]
            out.decisions.append(Decision(choice, tuple(candidates)))
            out.trace.append(choice)
            if self.step(choice):
                retry_rounds = 0
        for n, st in self._workers.items():
            if st.error is not None:
                out.errors[n] = st.error
        return out

    def _abandon(self) -> None:
        """Release every worker so daemon threads can die (failed run)."""
        with self._cv:
            for st in self._workers.values():
                st.go = True
            self._cv.notify_all()


# ----------------------------------------------------------------------
# schedule exploration
# ----------------------------------------------------------------------
def explore(run_one: Callable[[Sequence[str]], "object"], max_schedules: int = 200):
    """DFS over grant choices, replaying from scratch per schedule.

    ``run_one(prefix)`` drives one fresh case under the schedule that
    starts with ``prefix`` and returns its outcome, whose ``.trace`` is
    the run's :class:`ScheduleTrace`; every alternative candidate of
    every decision past the prefix becomes a branch to replay.  Returns
    ``(outcomes, exhaustive)``: exhaustive when the branch frontier
    emptied within ``max_schedules`` runs, otherwise the first
    ``max_schedules`` schedules in depth-first order.
    """
    outcomes: list = []
    frontier: List[List[str]] = [[]]
    seen: set = set()
    while frontier and len(outcomes) < max_schedules:
        prefix = frontier.pop()
        out = run_one(prefix)
        outcomes.append(out)
        run = out.trace
        for i in range(len(prefix), len(run.decisions)):
            d = run.decisions[i]
            for alt in d.candidates:
                if alt != d.chosen:
                    branch = run.trace[:i] + [alt]
                    key = tuple(branch)
                    if key not in seen:
                        seen.add(key)
                        frontier.append(branch)
    return outcomes, not frontier
