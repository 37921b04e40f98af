"""Exhaustive crash-sweep driver with a recovery oracle (paper §3.1.4/§4.4).

DGAP's claim is crash consistency at *every* instruction boundary, so
this driver tests every boundary.  :func:`crash_points` is the one
replayer: a dry run counts the workload's persistence events (stores,
flushes, fences, ntstores), then for each crash point ``k`` the
workload is replayed from scratch with the injector armed at the
``k``-th event and the device power-fails there (honoring the
configured :class:`~repro.pmem.faults.FaultPolicy` — torn stores,
persist reorder, poison).  :func:`crash_sweep` reopens each crashed
pool through :func:`~repro.core.recovery.open_from_pool` and checks the
recovered graph against the **prefix-consistency oracle**, which is
the shadow model (:mod:`.model`) asked at the acknowledged prefix:

* every operation acknowledged (returned) before the crash is visible,
  each row in exact order;
* the single in-flight operation left at most a prefix of itself (a
  scalar op: once or not at all);
* no other phantom or duplicate edges exist anywhere;
* the PMA structural invariants hold (``DGAP.check_invariants``:
  pivots, runs, degrees, section occupancy);
* the edge-log cursors match an independent rebuild from the log bytes.

Sweeps are exhaustive below ``exhaustive_threshold`` total events and a
seeded random sample above it.  For a configurable subsample of crash
points the driver additionally verifies recovery **idempotence**: it
crashes *during* recovery (at a seeded event), recovers again, and
requires the result to equal a reference recovery of the same crashed
image.

Oracle violations raise :class:`~.model.Mismatch` naming the exact
crash point (op kind, per-kind index, total index) to re-arm for
debugging.

The driver is written over the store surface (``g.shards``,
``g.pool.pools``; DESIGN.md §14), so any store works unchanged: every
shard device shares one injector (a single machine-wide event ordering),
the facade power-fails sibling devices when one shard crashes,
recovery is the max over per-shard ``pool.clocks()`` deltas (shards
replay concurrently), and ``("batch", EdgeBatch)`` workload ops
(:func:`make_batched_insert_workload`) sweep crashes that land
*mid-dispatch* — between per-shard sub-batches of one routed batch —
against a per-vertex-prefix oracle.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import DEFAULT_BATCH_SIZE, EdgeBatch
from repro.errors import MediaError, RecoveryError, SimulatedCrash
from repro.pmem.crash import CrashInjector
from repro.pmem.faults import DEFAULT_POLICY, FaultPolicy
from . import model
from .model import Mismatch, Model, Op

#: Crash-during-recovery points are drawn from the first this-many events.
RECOVERY_CRASH_WINDOW = 64

#: Workload ops applied to every recovered store past the in-flight one
#: (then the invariants are re-checked): recovery must hand back a store
#: that can take a write, not just one that reads right.
OPS_AFTER_RECOVERY = 2


@dataclass
class SweepConfig:
    """Knobs for one sweep run."""

    faults: FaultPolicy = DEFAULT_POLICY
    exhaustive_threshold: int = 1000
    """Sweep every crash point when the workload has at most this many events."""
    samples: int = 200
    """Seeded-random sample size above the exhaustive threshold."""
    seed: int = 0
    idempotence_samples: int = 5
    """Crash points that additionally get a crash-during-recovery check."""


@dataclass
class CrashPointResult:
    """Outcome of one crash point (the oracle passed)."""

    total_index: int
    """Workload-relative total event index — re-arm the injector with
    this after construction to reproduce the crash (the embedded
    ``SimulatedCrash`` repr additionally carries the device-absolute
    indices, which include construction events)."""
    op: str
    op_index: int
    acked: int
    in_flight_applied: Optional[bool]
    recovery_ns: float
    idempotence_checked: bool = False
    unrecoverable: bool = False
    """Recovery *reported* unrepairable media damage instead of repairing.

    Only a legal outcome when the policy poisons lines at crash time;
    the report carries the refusal message so operators see what died.
    """
    detail: str = ""


@dataclass
class SweepReport:
    """Everything a sweep learned: its event count, coverage and points."""

    total_events: int
    exhaustive: bool
    results: List[CrashPointResult] = field(default_factory=list)

    @property
    def crash_points(self) -> int:
        return len(self.results)


# ----------------------------------------------------------------------
# workloads and expected state
# ----------------------------------------------------------------------
def make_insert_workload(edges: Sequence[Tuple[int, int]]) -> List[Op]:
    """Wrap an edge list as an insert-only ops list."""
    return [("insert", int(s), int(d)) for s, d in edges]


def make_batched_insert_workload(
    edges, batch_size: int = DEFAULT_BATCH_SIZE
) -> List[Op]:
    """Chunk an edge stream into ``("batch", EdgeBatch)`` ops.

    One op = one routed dispatch round: on a sharded graph each batch
    is split per shard and the sub-batches dispatched in turn, so a
    crash can land *between* per-shard dispatches of one op — exactly
    the torn-multi-shard-batch case the sweep must cover.  Batches are
    insert-only: what a torn commit group may leave of a tombstone row
    is not something a sweep has probed.
    """
    batch = EdgeBatch.coerce(edges)
    if batch.tombstone.any():
        raise ValueError("batched sweep workloads must be insert-only")
    return [("batch", c) for c in batch.chunks(batch_size)]


def make_windowed_workload(
    edges,
    window: int = 2,
    step: int = 6,
    compact_every: int = 3,
) -> List[Op]:
    """Sliding-window temporal workload: inserts, expiry runs, sweeps.

    Consecutive ``step``-sized slices of ``edges`` are the timestamped
    steps.  Each step contributes its scalar inserts, then — once the
    window is full — one ``("expire", pairs)`` op deleting the step
    that just fell out of the ``window``-step window, and every
    ``compact_every``-th step one ``("compact",)`` tombstone-merge
    sweep.  A sweep over this workload therefore lands crash points
    inside expiry tombstone runs, the log merges they trigger, *and*
    whole-array compaction windows.
    """
    if window < 0 or step < 1 or compact_every < 1:
        raise ValueError("window >= 0, step >= 1, compact_every >= 1 required")
    pairs = [(int(s), int(d)) for s, d in edges]
    steps = [pairs[i : i + step] for i in range(0, len(pairs), step)]
    ops: List[Op] = []
    for t, chunk in enumerate(steps):
        ops.extend(("insert", s, d) for s, d in chunk)
        expired = t - window
        if expired >= 0 and steps[expired]:
            ops.append(("expire", tuple(steps[expired])))
        if (t + 1) % compact_every == 0:
            ops.append(("compact",))
    return ops


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def verify_recovered_graph(
    g,
    ops: Sequence[Op],
    acked: int,
    *,
    where: str = "?",
) -> Optional[bool]:
    """Assert prefix consistency; returns whether the in-flight op landed.

    ``acked`` operations completed before the crash, so the recovered
    adjacency must be the model after ``ops[:acked]`` — in exact
    per-vertex order, deletes included — plus what the model's in-flight
    rule (:meth:`~.model.Model.admits`) lets ``ops[acked]`` leave
    behind; then the structural half (:func:`~.model.check`).
    """
    in_flight = ops[acked] if acked < len(ops) else None
    return model.check(Model.after(ops[:acked]), model.of(g), in_flight, store=g, where=where)


# ----------------------------------------------------------------------
# the replayer and the driver
# ----------------------------------------------------------------------
def crash_points(
    make_store: Callable[[CrashInjector], "object"],
    run: Callable[["object"], None],
    pick: Optional[Callable[[int], Iterable[int]]] = None,
) -> Iterator[Tuple[int, "object", Optional[SimulatedCrash]]]:
    """Power-fail ``run(store)`` at its persistence events, one store each.

    A dry run on ``make_store(injector)`` counts the events ``run``
    generates (construction is not swept); then for every ``k`` in
    ``pick(total)`` — every event when ``pick`` is None — a fresh store
    runs with its injector armed at the ``k``-th event.  Yields ``(k,
    store, crash)`` with the injector disarmed and the device
    power-failed; ``crash`` is None if ``run`` finished first.
    """
    inj = CrashInjector()
    store = make_store(inj)
    base = inj.total_events
    run(store)
    total = inj.total_events - base
    for k in pick(total) if pick else range(1, total + 1):
        inj = CrashInjector()
        store = make_store(inj)
        inj.arm(k)
        crash = None
        try:
            run(store)
        except SimulatedCrash as exc:
            crash = exc
        inj.disarm()
        yield k, store, crash


def _reference_recovery(g, open_graph) -> Tuple[Model, float]:
    """Recover a deep copy of the crashed pool; its state is the reference."""
    ref_pool = copy.deepcopy(g.pool)
    for p in ref_pool.pools:
        p.device.injector = CrashInjector()  # never crashes
    ns0 = ref_pool.clocks()
    ref = open_graph(ref_pool, g.config)
    return Model(rows=model.of(ref)), float((ref_pool.clocks() - ns0).max())


def crash_sweep(
    make_graph: Callable[[CrashInjector, FaultPolicy], object],
    ops: Sequence[Op],
    config: Optional[SweepConfig] = None,
) -> SweepReport:
    """Sweep crash points of ``ops`` over fresh graphs; oracle every recovery.

    ``make_graph(injector, faults)`` (``tests/stores.factory``) must
    build a fresh system on a fresh pool each call (construction runs
    with the injector disarmed; only workload events are swept).  Raises
    :class:`~.model.Mismatch` on the first oracle violation; otherwise
    returns a :class:`SweepReport`.
    """
    cfg = config or SweepConfig()
    ops = list(ops)
    rng = np.random.default_rng(cfg.seed)
    report = SweepReport(total_events=0, exhaustive=False)
    idem_points: set = set()
    acked = 0

    def run(g) -> None:
        nonlocal acked
        acked = 0
        for op in ops:
            model.apply(g, op)
            acked += 1

    def pick(total: int) -> List[int]:
        """The budget rule: every event below the threshold, a seeded sample above."""
        if total <= 0:
            raise ValueError("workload generates no persistence events")
        report.total_events, report.exhaustive = total, total <= cfg.exhaustive_threshold
        if report.exhaustive:
            points = list(range(1, total + 1))
        else:
            points = sorted(
                int(k) + 1
                for k in rng.choice(total, size=min(cfg.samples, total), replace=False)
            )
        n_idem = min(cfg.idempotence_samples, len(points))
        if n_idem:
            idem_points.update(int(p) for p in rng.choice(points, size=n_idem, replace=False))
        return points

    for k, g, crash in crash_points(lambda inj: make_graph(inj, cfg.faults), run, pick):
        if crash is None:
            # Event counts can drift a little between the dry run and an
            # armed run only if the workload itself is nondeterministic;
            # a late point then just degenerates to a full-run check.
            verify_recovered_graph(g, ops, acked, where=f"no-crash@{k}")
            continue

        where = repr(crash)
        pool, open_graph = g.pool, type(g).open
        inj = pool.pools[0].device.injector  # the one every shard device shares
        idem = k in idem_points
        result = CrashPointResult(
            total_index=k, op=crash.op, op_index=crash.op_index, acked=acked,
            in_flight_applied=None, recovery_ns=0.0,
        )
        report.results.append(result)
        try:
            if idem:
                reference, rec_ns = _reference_recovery(g, open_graph)
                # Crash *during* recovery at a seeded event, then recover again.
                r = int(rng.integers(1, RECOVERY_CRASH_WINDOW + 1))
                inj.arm(r)
                try:
                    g2 = open_graph(pool, g.config)
                except SimulatedCrash:
                    inj.disarm()
                    g2 = open_graph(pool, g.config)
                inj.disarm()
                # ... and must land where a clean recovery of the image did
                model.check(reference, model.of(g2),
                            where=f"{where}, recovery not idempotent over a crash at its event #{r}")
            else:
                ns0 = pool.clocks()
                g2 = open_graph(pool, g.config)
                rec_ns = float((pool.clocks() - ns0).max())
        except (RecoveryError, MediaError) as exc:
            inj.disarm()
            if cfg.faults.poison_on_crash <= 0.0 and not cfg.faults.runtime_active:
                raise Mismatch(
                    f"[{where}] recovery refused a crash image produced with "
                    f"no media faults configured: {exc}"
                ) from exc
            # Poisoned lines landed on state recovery must read: the
            # contract is to *report* the damaged region, which it did.
            result.unrecoverable, result.detail = True, str(exc)
            continue

        result.recovery_ns, result.idempotence_checked = rec_ns, idem
        result.in_flight_applied = verify_recovered_graph(g2, ops, acked, where=where)
        for op in ops[acked + 1 : acked + 1 + OPS_AFTER_RECOVERY]:
            model.apply(g2, op)
        try:
            model.assert_structure(g2)
        except Mismatch as exc:
            raise Mismatch(f"[{where} + {OPS_AFTER_RECOVERY} ops] {exc}") from exc
    return report
