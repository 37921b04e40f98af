"""Reusable verification harnesses (crash sweeps, race checks, oracles).

Not imported by the library's runtime paths — this package backs the
test suite and the ``crash-sweep`` / ``race-check`` bench modes.
"""

from .crashsweep import (
    CrashPointResult,
    SweepConfig,
    SweepFailure,
    SweepReport,
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
    RaceCheckConfig,
    RaceCheckReport,
    SCENARIOS,
    ScenarioReport,
    UnfixedSectionLockTable,
    Violation,
    check_lock_discipline,
    events_from_tuples,
    explore_scenario,
    race_check,
    run_scenario,
)
from .soaksweep import (
    SoakConfig,
    SoakFailure,
    SoakReport,
    SoakRoundResult,
    soak_sweep,
)
from .schedules import (
    DeterministicScheduler,
    ExplorationReport,
    ScheduleDeadlock,
    ScheduleError,
    ScheduleTrace,
    explore_schedules,
    run_schedule,
)

__all__ = [
    "CrashPointResult",
    "DeterministicScheduler",
    "EventRecorder",
    "ExplorationReport",
    "InstrumentedSectionLockTable",
    "LockEvent",
    "RaceCheckConfig",
    "RaceCheckReport",
    "SCENARIOS",
    "ScenarioReport",
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
    "crash_sweep",
    "events_from_tuples",
    "make_batched_insert_workload",
    "make_windowed_workload",
    "explore_scenario",
    "explore_schedules",
    "make_insert_workload",
    "race_check",
    "run_schedule",
    "run_scenario",
    "soak_sweep",
    "verify_recovered_graph",
]
