"""Quarantine bookkeeping: damaged ranges, entities, outcomes, health.

One :class:`QuarantineEntry` is created per (poisoned range × pool
region) the scrubber confronts; the :class:`QuarantineRegistry` holds
them for the lifetime of the owning instance and derives the aggregate
:class:`DamageReport` that degraded-mode analytics hand back to
callers.  The registry is DRAM bookkeeping only — the authoritative
damage record is the device's poison set; everything here is derived
from it at quarantine time and kept so later queries can name what was
lost without re-deriving it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class HealthState(enum.Enum):
    """Operational state of one DGAP instance, monotonically worsening."""

    HEALTHY = "healthy"
    """No damage, or every repair restored the exact pre-fault bytes."""

    DEGRADED = "degraded"
    """Live edges were lost to a lossy repair; the structure is
    consistent again and analytics answer over the remainder, paired
    with a :class:`DamageReport`."""

    READ_ONLY = "read_only"
    """Damage to a critical region could not be repaired; writes are
    refused (:class:`~repro.errors.ReadOnlyGraphError`) so they cannot
    compound the loss, reads keep being served."""

    @property
    def rank(self) -> int:
        return _RANK[self]


_RANK = {HealthState.HEALTHY: 0, HealthState.DEGRADED: 1, HealthState.READ_ONLY: 2}


class RepairOutcome(enum.Enum):
    """What the repair pass managed to do with one damaged range."""

    EXACT = "exact"
    """Bytes restored identical to the pre-fault content (reconstructed
    from DRAM authority or known-constant content)."""

    SCRUBBED = "scrubbed"
    """Content was dead (dead generation, idle undo log, shutdown
    metadata, unallocated space): zero-rewritten to clear the poison.
    No information the live graph uses was lost, but the bytes differ
    from a fault-free twin until the region is next rewritten."""

    LOSSY = "lossy"
    """Live edges were lost; their sections were rewritten without them
    through the rebalance pipeline (crash-consistently, like a log
    merge) and the losses are enumerated per vertex."""

    UNRECOVERABLE = "unrecoverable"
    """No redundancy covers the range; the line stays poisoned and the
    instance drops to READ_ONLY."""


#: Health implied by each outcome (the instance takes the worst seen).
OUTCOME_HEALTH = {
    RepairOutcome.EXACT: HealthState.HEALTHY,
    RepairOutcome.SCRUBBED: HealthState.HEALTHY,
    RepairOutcome.LOSSY: HealthState.DEGRADED,
    RepairOutcome.UNRECOVERABLE: HealthState.READ_ONLY,
}


@dataclass(frozen=True)
class QuarantineEntry:
    """One damaged byte range mapped to the graph entity it hit."""

    off: int
    nbytes: int
    region: str
    """Pool region name, or ``"pool metadata"`` / ``"unallocated"``."""

    kind: str
    """Entity kind: ``edge-array``, ``edge-log``, ``vertex-metadata``,
    ``pma-metadata``, ``shutdown-metadata``, ``undo-log``, ``scratch``,
    ``journal``, ``dead-generation``, ``pool-metadata``, ``unallocated``
    or ``unknown``."""

    outcome: RepairOutcome
    vertices: Tuple[int, ...] = ()
    """Vertices that lost edges to this range (lossy repairs only)."""

    lost_edges: int = 0
    """Live edges irrecoverably dropped by this range's repair."""

    lost_by_vertex: Tuple[Tuple[int, int], ...] = ()
    """``(vertex, n_lost)`` pairs summing to ``lost_edges`` — what the
    guarded ingest path uses to correct degree-delta landed detection."""

    detail: str = ""

    @property
    def byte_range(self) -> Tuple[int, int]:
        return (self.off, self.off + self.nbytes)


@dataclass
class DamageReport:
    """Aggregate damage picture a degraded instance answers with."""

    health: HealthState
    entries: Tuple[QuarantineEntry, ...]

    @property
    def n_quarantined(self) -> int:
        return len(self.entries)

    @property
    def lost_edges(self) -> int:
        return sum(e.lost_edges for e in self.entries)

    @property
    def damaged_vertices(self) -> Tuple[int, ...]:
        return tuple(sorted({v for e in self.entries for v in e.vertices}))

    def by_outcome(self) -> Dict[RepairOutcome, int]:
        out: Dict[RepairOutcome, int] = {}
        for e in self.entries:
            out[e.outcome] = out.get(e.outcome, 0) + 1
        return out

    def inexact_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Byte ranges whose repair is *not* byte-identical to a
        fault-free twin — exactly what the soak oracle must exempt from
        its byte comparison."""
        return tuple(
            e.byte_range for e in self.entries if e.outcome is not RepairOutcome.EXACT
        )

    def summary(self) -> str:
        counts = ", ".join(
            f"{o.value}={n}" for o, n in sorted(self.by_outcome().items(), key=lambda kv: kv[0].value)
        )
        return (
            f"health={self.health.value} quarantined={self.n_quarantined}"
            f" [{counts}] lost_edges={self.lost_edges}"
            f" damaged_vertices={len(self.damaged_vertices)}"
        )


class QuarantineRegistry:
    """Append-only record of every quarantined range of one instance."""

    def __init__(self) -> None:
        self._entries: List[QuarantineEntry] = []

    def add(self, entry: QuarantineEntry) -> QuarantineEntry:
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> Tuple[QuarantineEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def report(self, health: HealthState) -> DamageReport:
        return DamageReport(health=health, entries=self.entries)


__all__ = [
    "HealthState",
    "RepairOutcome",
    "OUTCOME_HEALTH",
    "QuarantineEntry",
    "QuarantineRegistry",
    "DamageReport",
]
