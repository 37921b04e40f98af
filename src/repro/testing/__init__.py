"""Reusable verification harnesses (crash sweeps, race checks, oracles).

Not imported by the library's runtime paths — this package backs the
test suite.  :mod:`.model` is the one shadow adjacency and in-flight rule,
``crash_points`` the one replayer, ``schedules.explore`` the one explorer.
"""

from .crashsweep import (
    CrashPointResult,
    SweepConfig,
    SweepFailure,
    SweepReport,
    crash_points,
    crash_sweep,
    make_batched_insert_workload,
    make_insert_workload,
    make_windowed_workload,
    verify_recovered_graph,
)
from .racecheck import (
    EventRecorder,
    InstrumentedSectionLockTable,
    LockEvent,
    SCENARIOS,
    UnfixedSectionLockTable,
    Violation,
    check_lock_discipline,
    events_from_tuples,
    explore_scenario,
    run_scenario,
)
from .soaksweep import (
    SoakConfig,
    SoakFailure,
    SoakReport,
    SoakRoundResult,
    soak_sweep,
)
from .model import Mismatch, Model
from .schedules import (
    DeterministicScheduler,
    ScheduleDeadlock,
    ScheduleError,
    ScheduleTrace,
    explore,
)

__all__ = [
    "CrashPointResult",
    "DeterministicScheduler",
    "EventRecorder",
    "InstrumentedSectionLockTable",
    "LockEvent",
    "Mismatch",
    "Model",
    "SCENARIOS",
    "ScheduleDeadlock",
    "ScheduleError",
    "ScheduleTrace",
    "SoakConfig",
    "SoakFailure",
    "SoakReport",
    "SoakRoundResult",
    "SweepConfig",
    "SweepFailure",
    "SweepReport",
    "UnfixedSectionLockTable",
    "Violation",
    "check_lock_discipline",
    "crash_points",
    "crash_sweep",
    "events_from_tuples",
    "make_batched_insert_workload",
    "make_windowed_workload",
    "explore",
    "explore_scenario",
    "make_insert_workload",
    "run_scenario",
    "soak_sweep",
    "verify_recovered_graph",
]
