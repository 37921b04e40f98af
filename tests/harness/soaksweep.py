"""Soak-sweep driver: sustained ingest under *runtime* media faults.

The crash sweep (:mod:`.crashsweep`) proves every power-cut
boundary recovers; this driver proves the complementary claim for PR 7:
a **live** instance survives uncorrectable media errors raised *during*
normal operation.  One soak run drives ``T`` rounds of

    guarded ingest  →  patrol scrub  →  analytics

against a graph whose device injects spontaneous read poison and
transient read faults (:class:`~repro.pmem.faults.FaultPolicy` runtime
fields), with every fault routed through the
:class:`~repro.resilience.ResilienceManager` repair path.  A fault-free
**twin** — same factory, same op stream, runtime faults off, no manager
— is grown alongside as the reference.

The **no-silent-corruption oracle** at the end of the run:

* the twin's adjacency is the model (:mod:`.model`): if no
  lossy repair occurred the subject's rows equal it exactly, in order;
  after a lossy repair (the damaged sections are rewritten without the
  lost slots, a layout the twin doesn't have, so later inserts
  legitimately land in different positions) the subject's neighbor
  *multiset* must be contained in the twin's with the shortfall equal
  exactly to the per-vertex losses enumerated in the final
  :class:`~repro.resilience.DamageReport` — an edge may be lost to
  media damage only if the report names it;
* structural invariants hold and the edge-log cursors match an
  independent rebuild (the crash-sweep oracle's structural half);
* no latent poison: unless the instance went READ_ONLY, every poisoned
  line was found and repaired by the end of the run;
* if no lossy/unrecoverable repair occurred, the subject's device bytes
  equal the twin's everywhere outside the report's
  :meth:`~repro.resilience.DamageReport.inexact_ranges`;
* a **fault-free** soak (runtime rates zero) must be byte-identical to
  the unmanaged twin and identical on every write-side counter — the
  resilience machinery is provably free when nothing fails.

Violations raise :class:`~.model.Mismatch` naming the vertex/range.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MediaError, ReadOnlyGraphError
from repro.pmem.crash import CrashInjector
from repro.pmem.faults import FaultPolicy, RUNTIME_HAZARD
from repro.pmem.stats import INT_COUNTER_FIELDS
from repro.resilience import DamageReport, HealthState, RepairOutcome, ResilienceManager
from . import model
from .model import Mismatch, Model, Op

#: Stats fields that must be identical between a managed fault-free run
#: and the unmanaged twin: every integer counter but the two read ones
#: (patrol scrub legitimately charges sequential reads and their time).
_WRITE_COUNTERS = tuple(
    k for k in INT_COUNTER_FIELDS if k not in ("seq_read_bytes", "rnd_reads")
)


@dataclass
class SoakConfig:
    """Knobs for one soak run."""

    faults: FaultPolicy = RUNTIME_HAZARD
    rounds: int = 4
    """Ingest→scrub→analyze rounds; the op stream is split evenly."""
    scrub_every: int = 64
    """Run one patrol-scrub step every this-many guarded inserts."""
    patrol_bytes: int = 64 * 1024


@dataclass
class SoakRoundResult:
    """What one round observed (all counts are per-round deltas)."""

    transient_faults: int
    poison_events: int
    health: HealthState
    analyzed: bool = False


@dataclass
class SoakReport:
    """Everything a soak run learned."""

    rounds: List[SoakRoundResult] = field(default_factory=list)
    report: Optional[DamageReport] = None
    ops_applied: int = 0
    read_only: bool = False
    ops_skipped: int = 0
    """Inserts dropped after exhausting repair-retries without landing
    (skipped on the twin too, so they are not corruption)."""
    byte_compared: bool = False
    """Whether the run qualified for the byte-identity check (no lossy
    or unrecoverable repair diverged the layouts)."""

    @property
    def health(self) -> HealthState:
        return self.report.health if self.report else HealthState.HEALTHY

    @property
    def transient_faults(self) -> int:
        return sum(r.transient_faults for r in self.rounds)

    @property
    def poison_events(self) -> int:
        return sum(r.poison_events for r in self.rounds)

    @property
    def lost_edges(self) -> int:
        return self.report.lost_edges if self.report else 0


# ----------------------------------------------------------------------
# oracle helpers
# ----------------------------------------------------------------------
def _byte_compare(subject_dev, twin_dev, exempt: Sequence[Tuple[int, int]]) -> None:
    a, b = subject_dev.buf, twin_dev.buf
    if a.size != b.size:
        raise Mismatch("subject and twin devices differ in size")
    diff = a != b
    for lo, hi in exempt:
        diff[lo:hi] = False
    bad = np.flatnonzero(diff)
    if bad.size:
        raise Mismatch(
            f"{bad.size} device bytes differ from the fault-free twin outside "
            f"the report's inexact ranges (first at offset {int(bad[0])}) — "
            f"a repair was not byte-exact where it claimed to be"
        )


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def soak_sweep(
    make_graph: Callable[[CrashInjector, FaultPolicy], object],
    ops: Sequence[Op],
    config: Optional[SoakConfig] = None,
) -> SoakReport:
    """Soak ``ops`` through a managed graph under runtime faults.

    ``make_graph(injector, faults)`` is the crash-sweep factory shape
    (``tests/stores.factory``);
    it is called twice, once with ``config.faults`` (the subject) and
    once with the runtime-fault fields zeroed (the fault-free twin).
    The workload must be insert-only: a lost tombstone would silently
    *resurrect* an edge, which no containment oracle can distinguish
    from a phantom insert.  Raises :class:`~.model.Mismatch` on the first
    oracle violation; otherwise returns a :class:`SoakReport`.
    """
    cfg = config or SoakConfig()
    ops = list(ops)
    if any(op[0] != "insert" for op in ops):
        raise ValueError("soak workloads must be insert-only")
    if cfg.rounds <= 0:
        raise ValueError("rounds must be positive")

    clean = dataclasses.replace(
        cfg.faults, read_poison_rate=0.0, transient_read_rate=0.0
    )
    subject = make_graph(CrashInjector(), cfg.faults)
    twin = make_graph(CrashInjector(), clean)
    mgr = ResilienceManager(subject, patrol_bytes=cfg.patrol_bytes)

    out = SoakReport()
    stats = subject.pool.stats
    per_round = max(1, -(-len(ops) // cfg.rounds))
    applied = 0
    in_flight: Optional[Op] = None

    for r in range(cfg.rounds):
        chunk = ops[r * per_round : (r + 1) * per_round]
        if not chunk and r > 0:
            break
        before = stats.snapshot()
        done = 0
        for op in chunk:
            _, src, dst = op
            try:
                mgr.guarded_insert_edge(src, dst)
            except ReadOnlyGraphError:
                out.read_only = True
                in_flight = op
                break
            except MediaError:
                # Retries exhausted with the insert provably not landed
                # (the landed check failed every attempt): skip it on the
                # twin too so the reference stays aligned.
                out.ops_skipped += 1
                continue
            twin.insert_edge(src, dst)
            applied += 1
            done += 1
            if done % cfg.scrub_every == 0:
                mgr.scrub()

        if not out.read_only:  # every round ends in a guarded kernel: the edge count
            mgr.analyze(lambda snap: int(snap.to_csr()[1].size))

        delta = stats.delta_since(before)
        out.rounds.append(
            SoakRoundResult(
                transient_faults=delta.transient_faults,
                poison_events=delta.runtime_poison_events,
                health=mgr.health,
                analyzed=not out.read_only,
            )
        )
        if out.read_only:
            break

    out.ops_applied = applied
    out.report = mgr.damage_report()

    # ------------------------------------------------------------------
    # the no-silent-corruption oracle
    # ------------------------------------------------------------------
    if not out.read_only and subject.pool.device.poisoned_ranges():
        raise Mismatch(
            "latent poison survived the run on a non-READ_ONLY instance: "
            f"{subject.pool.device.poisoned_ranges()}"
        )

    by = out.report.by_outcome()
    diverged = bool(
        by.get(RepairOutcome.LOSSY, 0) or by.get(RepairOutcome.UNRECOVERABLE, 0)
    )
    lost: Counter = Counter()
    for e in out.report.entries:
        lost.update(dict(e.lost_by_vertex))
    want, got = model.of(twin), {}
    with subject.pool.device.suspend_runtime_faults():
        for v in list(want):
            try:
                got[v] = subject.out_neighbors(v).tolist() if v < subject.num_vertices else []
            except MediaError:
                if not out.read_only:
                    raise
                del want[v]  # damaged remainder of a READ_ONLY instance
        if in_flight is not None and in_flight[1] not in got:
            in_flight = None
        # The twin never applied the op in flight when the instance went
        # READ_ONLY; on the subject it may have landed.  With no lossy
        # repair the rows are the twin's, in order; after one, the
        # rewritten sections have gaps the twin's don't, so later inserts
        # land in different positions and the leg is the model's
        # containment-with-enumerated-shortfall.
        model.check(
            Model(rows=want), got, in_flight,
            store=None if out.read_only else subject,
            lost=lost if diverged else None,
            where="soak-end",
        )

    if not diverged:
        _byte_compare(
            subject.pool.device, twin.pool.device, out.report.inexact_ranges()
        )
        out.byte_compared = True

    if not cfg.faults.runtime_active:
        # The resilience layer must be free when nothing fails.
        s, t = subject.pool.stats, twin.pool.stats
        for k in _WRITE_COUNTERS:
            if getattr(s, k) != getattr(t, k):
                raise Mismatch(
                    f"fault-free soak is not counter-identical to an unmanaged "
                    f"run: {k} = {getattr(s, k)} vs {getattr(t, k)}"
                )
        if out.report.n_quarantined:
            raise Mismatch("fault-free soak quarantined ranges")

    return out
