"""Lock-discipline race checker for the §3.1.6 concurrency protocol.

Three pieces, mirroring the crash-sweep architecture (enumerate →
replay → oracle):

* :class:`InstrumentedSectionLockTable` — a drop-in
  ``SectionLockTable`` that records every protocol event (acquire,
  release, flag set/clear/wait, window lock/unlock, resize) with the
  acting thread, and — when attached to a
  :class:`~.schedules.DeterministicScheduler` — yields at
  every instrumentation boundary where no internal lock is held, so the
  driver controls exactly where threads interleave.

* :func:`check_lock_discipline` — the oracle.  It replays an event log
  against the protocol rules and reports every violation: a writer
  completing an acquire on a section flagged by a rebalance window
  (the TOCTOU), two holders on one section (mutual exclusion lost —
  the broken-resize symptom), out-of-order acquisition, flag-waiting
  while holding a lock (the deadlock precondition), releases without a
  matching acquire, lock-table resizes while another thread holds a
  section, and flag clears by a thread that never set the flag.  The
  oracle never inspects live lock state — only the log — so it works
  identically on the fixed table, the deliberately-unfixed table, and
  the virtual-thread scheduler's modeled event stream.

* scenario drivers + :func:`explore_scenario` — small real-``DGAP``
  workloads (writer/writer, writer/rebalancer, writer/resize,
  reader/writer, reader/merge, the batch twins and two "No EL" shifts)
  whose schedule space is explored exhaustively when it fits the budget,
  else its first depth-first schedules up to the budget; every schedule is
  oracle-checked AND the end state is validated (no lost edges,
  structural invariants, degree caches consistent).

:class:`UnfixedSectionLockTable` re-creates the two pre-fix bugs —
check-then-act ``acquire_many`` and quiescence-free ``resize`` — so the
regression tests can replay the historical interleavings and watch the
oracle flag them; see ``tests/test_racecheck.py``.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DGAPConfig
from repro.core.dgap import DGAP
from repro.core.locks import SectionLockTable
from .model import Model
from .schedules import DeterministicScheduler, ScheduleDeadlock, ScheduleTrace, explore

# ----------------------------------------------------------------------
# events + instrumented tables
# ----------------------------------------------------------------------


@dataclass
class LockEvent:
    """One protocol event, attributed to a thread."""

    seq: int
    thread: str
    kind: str
    section: int
    info: Dict = field(default_factory=dict)

    def __str__(self) -> str:  # compact, for failure messages
        sec = f" s{self.section}" if self.section >= 0 else ""
        return f"[{self.seq}] {self.thread}: {self.kind}{sec}"


class EventRecorder:
    """Append-only event log shared by one table (and its scenario)."""

    def __init__(self):
        self.events: List[LockEvent] = []
        self._names: Dict[int, str] = {}

    def name_thread(self, name: str) -> None:
        self._names[threading.get_ident()] = name

    def thread_name(self, ident: int) -> str:
        return self._names.get(ident, threading.current_thread().name)

    def record(self, kind: str, section: int, info: Dict) -> LockEvent:
        ev = LockEvent(
            seq=len(self.events),
            thread=self.thread_name(threading.get_ident()),
            kind=kind,
            section=section,
            info=info,
        )
        self.events.append(ev)
        return ev


#: trace kinds emitted with no internal lock held — the only points
#: where the instrumented table may yield to the scheduler.  Everything
#: else is recorded under ``_cond`` and yielding there would block the
#: whole schedule on a real (non-cooperative) lock.
_YIELD_SAFE_KINDS = frozenset({"lock-request", "window-request", "acquire-retry"})


class InstrumentedSectionLockTable(SectionLockTable):
    """Records every protocol event; optionally scheduler-driven.

    With a scheduler attached, the blocking primitives become
    cooperative: ``_lock_acquire`` try-locks in a yield loop (the
    scheduler parks the thread until someone else makes progress) and
    ``_cond_wait`` drops ``_cond``, yields, and re-acquires — so no
    worker ever blocks for real and every interleaving is schedulable.
    """

    def __init__(
        self,
        n_sections: int,
        recorder: Optional[EventRecorder] = None,
        sched: Optional[DeterministicScheduler] = None,
    ):
        self.recorder = recorder if recorder is not None else EventRecorder()
        self.sched = sched
        super().__init__(n_sections)

    def _trace(self, kind: str, section: int = -1, **info) -> None:
        self.recorder.record(kind, section, info)
        if self.sched is not None and kind in _YIELD_SAFE_KINDS:
            self.sched.yield_point(f"{kind}:{section}")

    def _lock_acquire(self, lock: threading.RLock, section: int) -> None:
        if self.sched is None or self.sched.current_worker() is None:
            lock.acquire()
            return
        while not lock.acquire(blocking=False):
            self.sched.yield_point(
                f"lock-blocked:{section}", blocked_on=("section", section)
            )

    def _cond_wait(self) -> None:
        if self.sched is None or self.sched.current_worker() is None:
            self._cond.wait()
            return
        # Cooperative flag wait: drop the condition lock (exactly what
        # Condition.wait would do), park until another thread's step may
        # have cleared a flag, re-take, and let the caller re-check.
        self._cond.release()
        try:
            self.sched.yield_point("flag-blocked", blocked_on=("flag", -1))
        finally:
            self._cond.acquire()


class UnfixedSectionLockTable(InstrumentedSectionLockTable):
    """The pre-fix protocol, instrumented — for regression tests ONLY.

    Reintroduces the two historical bugs this PR fixes:

    * ``acquire_many`` checks the rebalance flags and *then* acquires
      the locks with no re-check — the check-to-acquire gap lets a
      writer slip into a section a ``begin_rebalance`` just claimed;
    * ``resize`` swaps the lock/flag arrays wholesale with no
      quiescence check — a current holder keeps an orphaned old lock
      (mutual exclusion silently lost) and later releases into the
      void.

    Releases that would raise are recorded as ``release-void`` instead
    so the racy run can complete and the oracle can judge the full log.
    """

    def acquire_many(self, sections) -> List[int]:
        secs = sorted(set(int(s) for s in sections))
        with self._cond:
            while any(self._rebalancing[s] for s in secs):
                self._trace("flag-wait", next(s for s in secs if self._rebalancing[s]))
                self._cond_wait()
            locks = [self._locks[s] for s in secs]
        for s, lock in zip(secs, locks):
            self._trace("lock-request", s)
            self._lock_acquire(lock, s)
        with self._cond:
            for s in secs:
                self._note_acquire(s)
                self._trace("acquire", s)
        return secs

    def release(self, section: int) -> None:
        with self._cond:
            lock = self._locks[section]
            owner, count = self._holds[section]
            if count > 0 and owner == threading.get_ident():
                self._note_release(section)
                self._trace("release", section)
            else:
                self._trace("release-void", section)
        try:
            lock.release()
        except RuntimeError:
            pass  # released a lock it never held — the point of the demo

    def resize(self, n_sections: int) -> None:
        with self._cond:
            self._build(n_sections)
            self._trace("resize", -1, n_sections=n_sections)
            self._cond.notify_all()


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------


@dataclass
class Violation:
    """One protocol breach found in an event log."""

    rule: str
    index: int
    thread: str
    section: int
    message: str

    def __str__(self) -> str:
        return f"{self.rule} @ event {self.index} ({self.thread}, s{self.section}): {self.message}"


def check_lock_discipline(events: Sequence[LockEvent]) -> List[Violation]:
    """Replay an event log against the §3.1.6 protocol rules.

    Pure function of the log: tracks who holds what and who flagged
    what, and emits a :class:`Violation` for every breach.  Rules:

    ``acquire-while-flagged``
        a *writer* acquire completed on a section whose rebalance flag
        is up and was set by another thread — the TOCTOU.  (Window
        locks are exempt: the flag-setter locking its own window is the
        protocol.)
    ``double-hold``
        an acquire completed while another thread holds the section:
        mutual exclusion itself failed (possible only once the lock
        objects were swapped under a holder).
    ``out-of-order``
        a thread took a section lower than one it already holds —
        breaks the ascending total order the deadlock-freedom argument
        rests on.  Re-entrant re-acquires are exempt.
    ``flag-wait-while-holding``
        a thread waited on a rebalance flag while holding any section
        lock — the other deadlock precondition.
    ``release-without-acquire``
        a release (or window unlock) by a thread with no matching hold.
    ``resize-while-held``
        the lock table was rebuilt while a thread other than the
        resizer held a section.
    ``flag-clear-by-non-setter``
        a flag decrement by a thread with no outstanding set.
    """
    holds: Dict[int, Dict[str, int]] = {}
    flags: Dict[int, Dict[str, int]] = {}
    out: List[Violation] = []

    def v(rule: str, ev: LockEvent, msg: str) -> None:
        out.append(Violation(rule, ev.seq, ev.thread, ev.section, msg))

    def held_by(t: str) -> List[int]:
        return [s for s, m in holds.items() if m.get(t, 0) > 0]

    for ev in events:
        t, s, kind = ev.thread, ev.section, ev.kind
        if kind in ("acquire", "window-lock"):
            others = [o for o, c in holds.get(s, {}).items() if c > 0 and o != t]
            if others:
                v("double-hold", ev, f"also held by {others}")
            if kind == "acquire":
                setters = [o for o, c in flags.get(s, {}).items() if c > 0 and o != t]
                if setters:
                    v(
                        "acquire-while-flagged", ev,
                        f"section flagged for rebalance by {setters}",
                    )
            mine = holds.setdefault(s, {})
            if mine.get(t, 0) == 0:
                higher = [h for h in held_by(t) if h > s]
                if higher:
                    v("out-of-order", ev, f"already holds higher sections {higher}")
            mine[t] = mine.get(t, 0) + 1
        elif kind in ("release", "window-unlock"):
            mine = holds.setdefault(s, {})
            if mine.get(t, 0) <= 0:
                v("release-without-acquire", ev, "no matching acquire")
            else:
                mine[t] -= 1
        elif kind == "release-void":
            v("release-without-acquire", ev, "released into a swapped table")
        elif kind == "flag-set":
            flags.setdefault(s, {})
            flags[s][t] = flags[s].get(t, 0) + 1
        elif kind == "flag-clear":
            fl = flags.setdefault(s, {})
            if fl.get(t, 0) <= 0:
                v("flag-clear-by-non-setter", ev, "no outstanding flag-set")
            else:
                fl[t] -= 1
        elif kind == "flag-wait":
            held = held_by(t)
            if held:
                v("flag-wait-while-holding", ev, f"holds sections {held}")
        elif kind == "resize":
            foreign = sorted(
                s2 for s2, m in holds.items()
                for o, c in m.items() if c > 0 and o != t
            )
            if foreign:
                v("resize-while-held", ev, f"sections {foreign} held by other threads")
            # The table was rebuilt: all holds/flags refer to dead objects.
            holds.clear()
            flags.clear()
    return out


def events_from_tuples(tuples: Iterable[Tuple[str, str, int]]) -> List[LockEvent]:
    """Adapt ``(kind, thread, section)`` streams (e.g. the virtual-thread
    scheduler's modeled events) to the oracle's event type."""
    return [
        LockEvent(seq=i, thread=t, kind=k, section=s)
        for i, (k, t, s) in enumerate(tuples)
    ]


# ----------------------------------------------------------------------
# scenarios: small real-DGAP workloads under the scheduler
# ----------------------------------------------------------------------


@dataclass
class ScenarioSpec:
    """One fresh, instrumented case: workers + end-state validator."""

    graph: DGAP
    recorder: EventRecorder
    workers: Dict[str, Callable[[], None]]
    validate: Callable[[], None]


#: builds a fresh ScenarioSpec wired to the given scheduler
ScenarioBuilder = Callable[[DeterministicScheduler], ScenarioSpec]


def _make_graph(nv: int = 8, init_edges: int = 2048, **cfg) -> DGAP:
    return DGAP(DGAPConfig(
        init_vertices=nv, init_edges=init_edges,
        segment_slots=64, thread_safe=True, **cfg,
    ))


def instrument(
    g: DGAP,
    sched: Optional[DeterministicScheduler] = None,
    table_cls: type = InstrumentedSectionLockTable,
) -> EventRecorder:
    """Swap ``g.locks`` for an instrumented table; returns its recorder."""
    table = table_cls(g.ea.n_sections, sched=sched)
    g.locks = table
    return table.recorder


def _op(sched: DeterministicScheduler) -> None:
    """Operation-boundary yield point for scenario scripts."""
    sched.yield_point("op")


def scalar_writer(g, sched, rec, name, edges, thread_id=0):
    """A worker inserting ``edges`` one ``insert_edge`` at a time."""
    def run():
        rec.name_thread(name)
        for src, dst in edges:
            g.insert_edge(src, dst, thread_id=thread_id)
            _op(sched)
    return run


def batch_writer(g, sched, rec, name, edges, thread_id=0):
    """A worker inserting ``edges`` as one batch: the default write path,
    whose round takes its whole lock set and regroups if runs moved."""
    def run():
        rec.name_thread(name)
        g.insert_edges(edges, thread_id=thread_id)
        _op(sched)
    return run


def _base_validate(g: DGAP, expect_edges: int):
    def validate():
        g.check_invariants()
        got = g.num_edges
        if got != expect_edges:
            raise AssertionError(f"lost edges: expected {expect_edges}, have {got}")
        # degree caches agree with the structure scan check_invariants did
        deg = g.va.degrees()[: g.va.num_vertices]
        if int(deg.sum()) < expect_edges:
            raise AssertionError("degree cache undercounts inserted edges")
    return validate


def scenario_writer_writer(
    sched: DeterministicScheduler,
    writer: Callable = scalar_writer,
    e_a: Sequence[Tuple[int, int]] = ((0, 1), (0, 2)),
    e_b: Sequence[Tuple[int, int]] = ((7, 3), (7, 4)),
    preload: Sequence[Tuple[int, int]] = (),
    make_graph: Callable[[], DGAP] = _make_graph,
) -> ScenarioSpec:
    """Two writers — by default on disjoint sources in different sections —
    on a graph preloaded with ``preload``."""
    g = make_graph()
    for src, dst in preload:
        g.insert_edge(src, dst)
    rec = instrument(g, sched)
    want = Model([*preload, *e_a, *e_b])

    def validate():
        _base_validate(g, want.num_edges)()
        for v, row in want.rows.items():  # whatever the interleaving, the same edges
            got = sorted(g.out_neighbors(v).tolist())
            if got != sorted(row):
                raise AssertionError(f"adjacency of v{v} wrong: {got}")

    return ScenarioSpec(
        graph=g, recorder=rec,
        workers={
            "writerA": writer(g, sched, rec, "writerA", e_a, thread_id=0),
            "writerB": writer(g, sched, rec, "writerB", e_b, thread_id=1),
        },
        validate=validate,
    )


def _writer_versus(
    sched, other_name, make_other, preload, edges, writer=scalar_writer,
    table_cls: type = InstrumentedSectionLockTable,
) -> ScenarioSpec:
    """A writer of ``edges`` racing one structural operation on a graph
    preloaded with ``preload``; ``make_other(g)`` binds the operation."""
    g = _make_graph()
    for src, dst in preload:
        g.insert_edge(src, dst)
    rec = instrument(g, sched, table_cls=table_cls)
    act = make_other(g)

    def other():
        rec.name_thread(other_name)
        act(thread_id=1)
        _op(sched)

    return ScenarioSpec(
        graph=g, recorder=rec,
        workers={
            "writer": writer(g, sched, rec, "writer", edges, thread_id=0),
            other_name: other,
        },
        validate=_base_validate(g, g.num_edges + len(edges)),
    )


def scenario_writer_rebalancer(
    sched: DeterministicScheduler,
    table_cls: type = InstrumentedSectionLockTable,
    writer_edges: int = 1,
    writer: Callable = scalar_writer,
) -> ScenarioSpec:
    """A writer inserting into the section a rebalance window claims.

    This is the TOCTOU scenario: the rebalancer flags and locks the
    writer's section while the writer sits in its check-to-acquire gap.
    With ``table_cls=UnfixedSectionLockTable`` the historical race is
    replayable (see the regression tests).
    """
    return _writer_versus(
        sched, "rebal",
        lambda g: functools.partial(
            g.rebalancer.merge_section, int(g.ea.section_of(int(g.va.start[0])))
        ),
        # pre-load vertex 0's run so the merge has material to move
        preload=[(0, i + 1) for i in range(6)],
        edges=[(0, 10 + k) for k in range(writer_edges)],
        writer=writer, table_cls=table_cls,
    )


def scenario_writer_resize(
    sched: DeterministicScheduler, writer: Callable = scalar_writer
) -> ScenarioSpec:
    """A writer racing a full edge-array resize (generation switch)."""
    return _writer_versus(
        sched, "resizer", lambda g: g.rebalancer.resize,
        preload=[(1, i + 2) for i in range(4)], edges=[(6, 1), (6, 2)], writer=writer,
    )


def scenario_reader_writer(sched: DeterministicScheduler) -> ScenarioSpec:
    """Analysis snapshots taken while a writer appends to one vertex."""
    g = _make_graph()
    rec = instrument(g, sched)
    edges = [(2, d) for d in (1, 3, 4)]
    seen: List[Tuple[int, int]] = []

    def reader():
        rec.name_thread("reader")
        for _ in range(3):
            with g.consistent_view() as view:
                d = view.out_degree(2)
                # let the writer mutate between the degree read and the
                # adjacency materialization — the snapshot must not care
                sched.yield_point("mid-view")
                n = len(view.out_neighbors(2))
                seen.append((d, n))
            _op(sched)

    def validate():
        _base_validate(g, len(edges))()
        for d, n in seen:
            if d != n:
                raise AssertionError(f"snapshot degree {d} != materialized {n}")
        degs = [d for d, _ in seen]
        if degs != sorted(degs):
            raise AssertionError(f"snapshot degrees went backwards: {degs}")

    return ScenarioSpec(
        graph=g, recorder=rec,
        workers={
            "writer": scalar_writer(g, sched, rec, "writer", edges, thread_id=0),
            "reader": reader,
        },
        validate=validate,
    )


def scenario_reader_merge(sched: DeterministicScheduler) -> ScenarioSpec:
    """A reader materializing a chained row while a second thread merges
    that row's pivot section: the merge drains the chain and moves the
    section's runs, and the reader — holding the rows' pivot sections
    for its read — must see the bytes a quiet snapshot read."""
    g = _make_graph(init_edges=64)  # two 64-slot sections, 16 slots a row
    for d in range(20):  # row 2: 15 edges in its run, 5 in section 0's log
        g.insert_edge(2, d)
    assert g.va.el[2] >= 0
    rec = instrument(g, sched)
    with g.consistent_view() as quiet:
        want = [a.copy() for a in quiet.to_csr()]
    section = g.ea.section_of(int(g.va.start[2]) - 1)
    reads: List[Tuple[np.ndarray, np.ndarray]] = []
    apply_dram = g.rebalancer._apply_dram

    def moved_late(*layout):
        # the window is rewritten and its logs cleared, the vertex array
        # not yet moved: a reader here that holds no lock reads garbage
        sched.yield_point("mid-merge")
        apply_dram(*layout)

    g.rebalancer._apply_dram = moved_late

    def reader():
        rec.name_thread("reader")
        with g.consistent_view() as view:
            sched.yield_point("mid-view")  # the merge may land before the read
            reads.append(view.to_csr())
        _op(sched)

    def merger():
        rec.name_thread("merger")
        g.rebalancer.merge_section(section, thread_id=1)
        _op(sched)

    def validate():
        _base_validate(g, 20)()
        if g.va.el[2] >= 0:
            raise AssertionError("the merge left row 2's chain pending")
        for got in reads:
            if not all(np.array_equal(a, b) for a, b in zip(got, want)):
                raise AssertionError(f"read {got} differs from the quiet read {want}")

    return ScenarioSpec(
        graph=g, recorder=rec,
        workers={"reader": reader, "merger": merger},
        validate=validate,
    )


#: two writers hammering the same source vertex
_SHARED = dict(e_a=[(3, 1), (3, 2)], e_b=[(3, 5), (3, 6)])

SCENARIOS: Dict[str, ScenarioBuilder] = {
    "writer-writer": scenario_writer_writer,
    "writer-writer-shared": functools.partial(scenario_writer_writer, **_SHARED),
    "writer-rebalancer": scenario_writer_rebalancer,
    "writer-resize": scenario_writer_resize,
    "reader-writer": scenario_reader_writer,
    "reader-merge": scenario_reader_merge,
    # the same three races through ``insert_edges``: two rounds contending
    # for one section (the second finds its runs moved and regroups), a
    # round against a rebalance window, a round against a generation switch
    "batch-batch": functools.partial(scenario_writer_writer, writer=batch_writer, **_SHARED),
    "batch-rebalancer": functools.partial(
        scenario_writer_rebalancer, writer=batch_writer, writer_edges=2
    ),
    "batch-resize": functools.partial(scenario_writer_resize, writer=batch_writer),
    # "No EL": rows 2 and 3 of a one-section (64-slot) array are preloaded
    # full, so each writer's one edge is a nearby shift over the other's row
    "shift-shift": functools.partial(
        scenario_writer_writer, e_a=[(2, 7)], e_b=[(3, 7)],
        preload=[(v, d) for v in (2, 3) for d in range(7)],
        make_graph=functools.partial(_make_graph, init_edges=16, use_edge_log=False),
    ),
}


# ----------------------------------------------------------------------
# driving scenarios through schedules
# ----------------------------------------------------------------------


@dataclass
class ScheduleOutcome:
    """One scenario run under one schedule, fully judged."""

    trace: ScheduleTrace
    events: List[LockEvent]
    violations: List[Violation]
    error: Optional[str] = None
    """A deadlock, a worker's exception, or the end-state validator's verdict."""

    @property
    def clean(self) -> bool:
        return not self.violations and self.error is None


def run_scenario(
    build: ScenarioBuilder,
    prefix: Sequence[str] = (),
    rng: Optional[np.random.Generator] = None,
) -> ScheduleOutcome:
    """One fresh scenario instance under one schedule, oracle-checked."""
    sched = DeterministicScheduler()
    spec = build(sched)
    for name, fn in spec.workers.items():
        sched.spawn(name, fn)
    error = None
    try:
        trace = sched.run(prefix=prefix, rng=rng)
    except ScheduleDeadlock as exc:
        trace, error = exc.partial, "deadlock: every live worker blocked"
    for name, exc in trace.errors.items():
        error = f"worker {name!r} raised {type(exc).__name__}: {exc}"
        break
    if error is None:
        try:
            spec.validate()
        except Exception as exc:  # noqa: BLE001 - judged, not hidden
            error = f"validate: {exc}"
    return ScheduleOutcome(
        trace, spec.recorder.events, check_lock_discipline(spec.recorder.events), error
    )


def explore_scenario(build: ScenarioBuilder, max_schedules: int = 150):
    """Every outcome of a scenario's schedule space, and whether it was exhausted."""
    return explore(functools.partial(run_scenario, build), max_schedules)
