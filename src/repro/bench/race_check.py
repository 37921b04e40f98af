"""Deterministic-interleaving sweep with the lock-discipline oracle.

``dry_run`` drives one default schedule per scenario and reports event
counts only — the pre-flight view of how much interleaving surface a
full exploration would cover.
"""

from __future__ import annotations

from .reporting import race_check_dry_table, race_check_table


def run(scenarios=(), schedules=120, seed=0, dry_run=False):
    from ..testing import RaceCheckConfig, race_check
    from ..testing import racecheck

    names = list(scenarios) or None
    unknown = [n for n in names or () if n not in racecheck.SCENARIOS]
    if unknown:
        raise SystemExit(
            f"unknown scenarios {unknown}; have {sorted(racecheck.SCENARIOS)}"
        )
    if dry_run:
        counts = {}
        for name in names or list(racecheck.SCENARIOS):
            counts.update(racecheck.dry_run(name))
        return counts
    sweep = race_check(RaceCheckConfig(
        max_schedules=schedules, seed=seed, scenarios=names,
    ))
    return f"race check — lock-discipline oracle (seed {seed})", sweep


def report(result):
    if isinstance(result, dict):
        yield race_check_dry_table(result)
    else:
        yield race_check_table(result[1], title=result[0])


def gates(result):
    if isinstance(result, dict):
        return []
    sweep = result[1]
    violations = sum(s.violations for s in sweep.scenarios)
    return [("lock-discipline oracle", "0 violations", violations, sweep.ok)]
