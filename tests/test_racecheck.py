"""Deterministic race checking of the §3.1.6 lock protocol.

Four layers, bottom up:

* the **oracle** judged on synthetic event logs (every rule fires on
  its minimal counterexample and stays quiet on the clean protocol);
* the **scheduler** driving cooperative workers through exhaustive
  interleavings, including a manufactured deadlock;
* the **regression** demonstrations: the deliberately-unfixed lock
  table (pre-fix check-then-act ``acquire``, quiescence-free
  ``resize``) replayed under the racy interleavings, with the oracle
  flagging both historical bugs — and the fixed table staying clean
  over the *same* exhausted schedule space;
* real-``DGAP`` **scenarios** (writer/writer, writer/rebalancer,
  writer/resize, reader/writer, reader/merge) swept clean post-fix, plus
  a hypothesis property that any explored schedule is linearizable
  (element-identical to some serial order of the two writers' ops).
"""

import functools
import itertools
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.errors import LockDisciplineError
from .harness.racecheck import (
    EventRecorder,
    InstrumentedSectionLockTable,
    SCENARIOS,
    ScenarioSpec,
    UnfixedSectionLockTable,
    check_lock_discipline,
    events_from_tuples,
    explore_scenario,
    instrument,
    run_scenario,
    scalar_writer,
    scenario_writer_rebalancer,
)
from .harness.schedules import DeterministicScheduler, ScheduleDeadlock, explore
from .harness.vthreads import VirtualThreadScheduler


def rules(violations):
    return sorted({v.rule for v in violations})


# ----------------------------------------------------------------------
# the oracle on synthetic logs
# ----------------------------------------------------------------------


class TestOracle:
    def test_clean_writer_and_window(self):
        evs = events_from_tuples([
            ("acquire", "w", 2),
            ("release", "w", 2),
            ("flag-set", "r", 1),
            ("flag-set", "r", 2),
            ("window-lock", "r", 1),
            ("window-lock", "r", 2),
            ("window-unlock", "r", 2),
            ("window-unlock", "r", 1),
            ("flag-clear", "r", 1),
            ("flag-clear", "r", 2),
        ])
        assert check_lock_discipline(evs) == []

    def test_acquire_while_flagged(self):
        evs = events_from_tuples([
            ("flag-set", "r", 3),
            ("acquire", "w", 3),  # the TOCTOU: writer entered a claimed section
        ])
        assert rules(check_lock_discipline(evs)) == ["acquire-while-flagged"]

    def test_flag_setter_locking_its_own_window_is_fine(self):
        evs = events_from_tuples([
            ("flag-set", "r", 3),
            ("window-lock", "r", 3),
            ("window-unlock", "r", 3),
            ("flag-clear", "r", 3),
        ])
        assert check_lock_discipline(evs) == []

    def test_out_of_order_acquisition(self):
        evs = events_from_tuples([
            ("acquire", "w", 5),
            ("acquire", "w", 2),  # descending: breaks the total order
        ])
        assert rules(check_lock_discipline(evs)) == ["out-of-order"]

    def test_reentrant_reacquire_is_not_out_of_order(self):
        evs = events_from_tuples([
            ("acquire", "w", 2),
            ("acquire", "w", 5),
            ("acquire", "w", 2),  # re-entrant on an already-held section
            ("release", "w", 2),
            ("release", "w", 5),
            ("release", "w", 2),
        ])
        assert check_lock_discipline(evs) == []

    def test_release_without_acquire(self):
        evs = events_from_tuples([("release", "w", 1)])
        assert rules(check_lock_discipline(evs)) == ["release-without-acquire"]

    def test_flag_wait_while_holding(self):
        evs = events_from_tuples([
            ("acquire", "w", 1),
            ("flag-wait", "w", 2),  # the deadlock precondition
        ])
        assert rules(check_lock_discipline(evs)) == ["flag-wait-while-holding"]

    def test_resize_while_held_by_other(self):
        evs = events_from_tuples([
            ("acquire", "w", 1),
            ("resize", "r", -1),
        ])
        assert rules(check_lock_discipline(evs)) == ["resize-while-held"]

    def test_resize_by_holder_is_fine_and_resets_state(self):
        evs = events_from_tuples([
            ("flag-set", "r", 0),
            ("window-lock", "r", 0),
            ("resize", "r", -1),
            ("acquire", "w", 0),  # fresh table: no stale double-hold
            ("release", "w", 0),
        ])
        assert check_lock_discipline(evs) == []

    def test_double_hold(self):
        evs = events_from_tuples([
            ("acquire", "a", 4),
            ("acquire", "b", 4),  # mutual exclusion itself failed
        ])
        assert rules(check_lock_discipline(evs)) == ["double-hold"]

    def test_flag_clear_by_non_setter(self):
        evs = events_from_tuples([
            ("flag-set", "a", 1),
            ("flag-clear", "b", 1),
        ])
        assert rules(check_lock_discipline(evs)) == ["flag-clear-by-non-setter"]

    def test_legacy_vthread_upgrade_order_is_flagged(self):
        # The virtual-thread scheduler used to model a rebalance as
        # acquiring the whole window *while still holding* the writer's
        # section — a lock upgrade that can include lower sections.
        evs = events_from_tuples([
            ("acquire", "vt0", 2),
            ("window-lock", "vt0", 1),  # window extends left of the hold
        ])
        assert rules(check_lock_discipline(evs)) == ["out-of-order"]


# ----------------------------------------------------------------------
# the deterministic scheduler
# ----------------------------------------------------------------------


class TestScheduler:
    def test_exhaustive_interleavings_of_two_steppers(self):
        # two workers × two yield-separated appends: C(4,2)=6 orders
        def run_one(prefix):
            sched = DeterministicScheduler()
            log = []

            def worker(tag):
                def run():
                    for i in range(2):
                        log.append(f"{tag}{i}")
                        sched.yield_point("op")
                return run

            sched.spawn("A", worker("a"))
            sched.spawn("B", worker("b"))
            return SimpleNamespace(trace=sched.run(prefix=prefix), log=tuple(log))

        outcomes, exhaustive = explore(run_one, max_schedules=100)
        assert exhaustive and not any(o.trace.errors for o in outcomes)
        assert len({o.log for o in outcomes}) == 6

    def test_replay_is_deterministic(self):
        def run_one(prefix):
            sched = DeterministicScheduler()
            log = []

            def worker(tag):
                def run():
                    log.append(tag)
                    sched.yield_point("op")
                    log.append(tag.upper())
                return run

            sched.spawn("A", worker("a"))
            sched.spawn("B", worker("b"))
            return sched.run(prefix=prefix).trace, log

        t1, log1 = run_one(["B", "A", "B", "A"])
        assert run_one(list(t1)) == (t1, log1)

    def test_deadlock_is_detected_not_hung(self):
        # classic AB/BA on two plain locks via cooperative try-loops
        sched = DeterministicScheduler()
        la, lb = threading.Lock(), threading.Lock()

        def coop_lock(lock, tag):
            while not lock.acquire(blocking=False):
                sched.yield_point(f"blocked:{tag}", blocked_on=("lock", tag))

        def worker(first, second, ftag, stag):
            def run():
                coop_lock(first, ftag)
                sched.yield_point("op")
                coop_lock(second, stag)
            return run

        sched.spawn("A", worker(la, lb, "a", "b"))
        sched.spawn("B", worker(lb, la, "b", "a"))
        with pytest.raises(ScheduleDeadlock):
            # A takes la, B takes lb, then both spin on the other's lock
            sched.run(prefix=["A", "A", "B", "B"])


# ----------------------------------------------------------------------
# regressions: the pre-fix table under the racy interleavings
# ----------------------------------------------------------------------


def _raw_table_case(table_cls, writer_body, other_body, n_sections=4):
    """A two-worker script over a bare (instrumented) lock table."""
    sched = DeterministicScheduler()
    table = table_cls(n_sections, sched=sched)
    rec = table.recorder

    def named(name, body):
        def run():
            rec.name_thread(name)
            body(table, sched)
        return run

    sched.spawn("writer", named("writer", writer_body))
    sched.spawn("other", named("other", other_body))
    return sched, table


class TestPreFixRegressions:
    """The oracle must *detect* both pre-fix races, per the issue."""

    def test_unfixed_acquire_admits_writer_into_claimed_window(self):
        # Deterministic replay of the TOCTOU interleaving: the writer
        # passes the flag check, the rebalancer flags the section, and
        # the unfixed writer still completes its acquire.
        def writer(t, sched):
            t.acquire_many([0])
            sched.yield_point("op")
            t.release_many([0])

        def rebal(t, sched):
            secs = t.begin_rebalance([0])
            sched.yield_point("op")
            t.end_rebalance(secs)

        # one writer step: start → the lock-request yield (flag check
        # passed, lock not yet taken — the TOCTOU gap).  One rebalancer
        # step: flag-set, then parked at its window-request yield (lock
        # not yet taken either).  Then the writer acquires.
        prefix = ["writer", "other", "writer"]

        sched, table = _raw_table_case(UnfixedSectionLockTable, writer, rebal)
        sched.run(prefix=prefix)
        vs = check_lock_discipline(table.recorder.events)
        assert "acquire-while-flagged" in rules(vs)

        # same schedule, fixed table: the post-acquire re-check backs
        # off (an acquire-retry event) and no violation is possible.
        sched, table = _raw_table_case(InstrumentedSectionLockTable, writer, rebal)
        sched.run(prefix=prefix)
        kinds = {e.kind for e in table.recorder.events}
        assert "acquire-retry" in kinds or "flag-wait" in kinds
        assert check_lock_discipline(table.recorder.events) == []

    def test_unfixed_resize_swaps_table_under_a_holder(self):
        def writer(t, sched):
            t.acquire_many([0])
            sched.yield_point("op")
            t.release_many([0])

        def resizer(t, sched):
            t.resize(8)

        # two writer steps: start → lock-request, then acquire → parked
        # at the "op" yield STILL HOLDING section 0; the resize then
        # swaps the table wholesale underneath it.
        prefix = ["writer", "writer", "other"]
        sched, table = _raw_table_case(UnfixedSectionLockTable, writer, resizer)
        sched.run(prefix=prefix)
        vs = check_lock_discipline(table.recorder.events)
        assert "resize-while-held" in rules(vs)
        assert "release-without-acquire" in rules(vs)

    def test_fixed_resize_raises_instead_of_corrupting(self):
        def writer(t, sched):
            t.acquire_many([0])
            sched.yield_point("op")
            t.release_many([0])

        def resizer(t, sched):
            t.resize(8)

        sched, table = _raw_table_case(InstrumentedSectionLockTable, writer, resizer)
        trace = sched.run(prefix=["writer", "writer", "other"])
        assert isinstance(trace.errors.get("other"), LockDisciplineError)
        assert check_lock_discipline(table.recorder.events) == []

    def test_exhaustive_sweep_finds_toctou_in_unfixed_dgap(self):
        """End-to-end: real DGAP + unfixed table, full schedule space."""
        build = functools.partial(
            scenario_writer_rebalancer, table_cls=UnfixedSectionLockTable
        )
        outcomes, exhaustive = explore_scenario(build, max_schedules=400)
        assert exhaustive, "unfixed writer/rebalancer space must be exhaustible"
        dirty = [o for o in outcomes if o.violations]
        assert dirty, "the pre-fix TOCTOU must be reachable by some schedule"
        assert all(
            "acquire-while-flagged" in rules(o.violations) for o in dirty
        )


# ----------------------------------------------------------------------
# post-fix scenario sweeps
# ----------------------------------------------------------------------


#: scenario -> schedule budget (the first schedules in depth-first order);
#: only batch-rebalancer's space (151 schedules) fits its budget, so only its
#: run is exhaustive
SAMPLED = {"writer-resize": 150, "reader-writer": 150, "batch-rebalancer": 400,
           "batch-resize": 400}


class TestScenarioSweeps:
    def test_writer_rebalancer_exhaustive_and_clean(self):
        """Every schedule of a write racing a rebalance window, exhaustively,
        with the oracle and graph invariants."""
        outcomes, exhaustive = explore_scenario(
            SCENARIOS["writer-rebalancer"], max_schedules=400
        )
        assert exhaustive
        assert len(outcomes) > 50  # a real space, not a degenerate one
        for o in outcomes:
            assert o.clean, (o.trace.trace, [str(v) for v in o.violations], o.error)

    @pytest.mark.parametrize("name", ["writer-writer", "writer-writer-shared", "batch-batch",
                                      "shift-shift"])
    def test_writer_writer_exhaustive_and_clean(self, name):
        outcomes, exhaustive = explore_scenario(SCENARIOS[name], max_schedules=500)
        assert exhaustive
        for o in outcomes:
            assert o.clean, (o.trace.trace, [str(v) for v in o.violations], o.error)

    def test_reader_merge_exhaustive_and_clean(self):
        """Every schedule of a snapshot read racing a merge of its chained
        row's pivot section — the merge may pause with the window rewritten
        and the vertex array not yet moved — reads the quiet snapshot's
        bytes, under the oracle."""
        outcomes, exhaustive = explore_scenario(SCENARIOS["reader-merge"], max_schedules=500)
        assert exhaustive
        assert len(outcomes) > 50
        for o in outcomes:
            assert o.clean, (o.trace.trace, [str(v) for v in o.violations], o.error)

    def test_shift_shift_races_two_shifts(self):
        """Each writer of the "No EL" scenario takes the shift path, under
        the lock set of its run head through the first gap."""
        sched = DeterministicScheduler()
        spec = SCENARIOS["shift-shift"](sched)
        for name, fn in spec.workers.items():
            sched.spawn(name, fn)
        shifts = spec.graph.n_shift_inserts
        sched.run()
        assert spec.graph.n_shift_inserts == shifts + 2

    @pytest.mark.parametrize("name", SAMPLED)
    def test_sampled_scenarios_clean(self, name):
        outcomes, exhaustive = explore_scenario(SCENARIOS[name], max_schedules=SAMPLED[name])
        assert exhaustive == (name == "batch-rebalancer")
        for o in outcomes:
            assert o.clean, (o.trace.trace, [str(v) for v in o.violations], o.error)


# ----------------------------------------------------------------------
# virtual threads share the oracle
# ----------------------------------------------------------------------


class TestVThreadOracle:
    def test_modeled_event_stream_is_discipline_clean(self):
        nv = 32
        # tight array so the hot vertex forces real rebalance windows
        g = DGAP(DGAPConfig(init_vertices=nv, init_edges=512, segment_slots=64))
        vts = VirtualThreadScheduler(g, n_threads=4, record_events=True)
        edges = [(0, (i * 7) % nv or 1) for i in range(400)]
        vts.run(edges)
        assert any(k == "window-lock" for k, _, _ in vts.events)
        vs = check_lock_discipline(events_from_tuples(vts.events))
        assert vs == [], [str(v) for v in vs[:5]]


# ----------------------------------------------------------------------
# linearizability (hypothesis property, pinned profile via conftest)
# ----------------------------------------------------------------------


def _serial_adjacencies(seq_a, seq_b, sources):
    """Final adjacency tuples for every serial interleaving of the two
    per-thread op sequences (order-preserving merges)."""
    results = set()
    n, m = len(seq_a), len(seq_b)
    for picks in itertools.combinations(range(n + m), n):
        merged, ia, ib = [], 0, 0
        pickset = set(picks)
        for i in range(n + m):
            if i in pickset:
                merged.append(seq_a[ia]); ia += 1
            else:
                merged.append(seq_b[ib]); ib += 1
        g = DGAP(DGAPConfig(init_vertices=8, init_edges=2048, segment_slots=64))
        for src, dst in merged:
            g.insert_edge(src, dst)
        results.add(tuple(
            tuple(int(x) for x in g.out_neighbors(s)) for s in sources
        ))
    return results


@st.composite
def _two_writer_ops(draw):
    edge = st.tuples(st.integers(0, 3), st.integers(0, 7))
    seq_a = draw(st.lists(edge, min_size=1, max_size=3))
    seq_b = draw(st.lists(edge, min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**31 - 1))
    return seq_a, seq_b, seed


@settings(max_examples=15, deadline=None)
@given(_two_writer_ops())
def test_schedules_are_linearizable(ops):
    """Any explored schedule leaves the graph element-identical to SOME
    serial order of the two writers' operations (satellite d)."""
    seq_a, seq_b, seed = ops
    sources = sorted({s for s, _ in seq_a + seq_b})
    holder = {}

    def build(sched):
        g = DGAP(DGAPConfig(
            init_vertices=8, init_edges=2048, segment_slots=64, thread_safe=True,
        ))
        rec = instrument(g, sched)
        holder["g"] = g
        return ScenarioSpec(
            graph=g, recorder=rec,
            workers={
                "A": scalar_writer(g, sched, rec, "A", seq_a, thread_id=0),
                "B": scalar_writer(g, sched, rec, "B", seq_b, thread_id=1),
            },
            validate=lambda: None,
        )

    out = run_scenario(build, rng=np.random.default_rng(seed))
    assert out.clean, (out.trace.trace, [str(v) for v in out.violations], out.error)
    g = holder["g"]
    observed = tuple(
        tuple(int(x) for x in g.out_neighbors(s)) for s in sources
    )
    assert observed in _serial_adjacencies(seq_a, seq_b, sources)
