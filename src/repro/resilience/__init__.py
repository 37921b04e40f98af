"""Runtime fault tolerance: scrub, quarantine-and-repair, degradation.

DGAP's durability story (paper §4) assumes media faults surface only at
restart; real DCPMM raises uncorrectable errors (EUNCORR/poison) during
normal operation.  This package keeps a *live* instance operating
through them:

* :class:`~repro.resilience.quarantine.QuarantineRegistry` maps every
  confirmed-poisoned line to the graph entity it damages and records
  the repair outcome;
* :class:`~repro.resilience.scrub.ResilienceManager` wraps one DGAP
  instance with an online scrub-and-repair pass, guarded ingest and
  analytics, and the HEALTHY → DEGRADED → READ_ONLY health ladder;
* :class:`~repro.resilience.quarantine.DamageReport` is what a degraded
  instance answers analytics with instead of raising mid-kernel.

The runtime fault *injection* these defenses are exercised against
lives in :mod:`repro.pmem.faults` (``read_poison_rate`` /
``transient_read_rate``); the soak harness driving both is the
suite's ``tests/harness/soaksweep.py``.
"""

from .quarantine import (
    DamageReport,
    HealthState,
    QuarantineEntry,
    QuarantineRegistry,
    RepairOutcome,
)
from .scrub import ResilienceManager

__all__ = [
    "DamageReport",
    "HealthState",
    "QuarantineEntry",
    "QuarantineRegistry",
    "RepairOutcome",
    "ResilienceManager",
]
