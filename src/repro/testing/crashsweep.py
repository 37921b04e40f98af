"""Exhaustive crash-sweep driver with a recovery oracle (paper §3.1.4/§4.4).

DGAP's claim is crash consistency at *every* instruction boundary, so
this driver tests every boundary: a dry run counts the workload's
persistence events (stores, flushes, fences, ntstores), then for each
crash point ``k`` the workload is replayed from scratch with the
injector armed at the ``k``-th event, the device power-fails there
(honoring the configured :class:`~repro.pmem.faults.FaultPolicy` —
torn stores, persist reorder, poison), the pool is reopened through
:func:`~repro.core.recovery.open_from_pool`, and the recovered graph is
checked against the **prefix-consistency oracle**:

* every operation acknowledged (returned) before the crash is visible;
* the single in-flight operation is applied at most once or not at all;
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

Oracle violations raise :class:`SweepFailure` naming the exact crash
point (op kind, per-kind index, total index) to re-arm for debugging.

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
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.batch import DEFAULT_BATCH_SIZE, EdgeBatch
from ..errors import MediaError, RecoveryError, SimulatedCrash
from ..pmem.crash import CrashInjector
from ..pmem.faults import DEFAULT_POLICY, FaultPolicy

#: One workload operation: ``("insert" | "delete", src, dst)``, a routed
#: bulk mutation ``("batch", EdgeBatch)`` (insert-only batches; see
#: :func:`make_batched_insert_workload`), a window-expiry delete run
#: ``("expire", ((src, dst), ...))``, or a tombstone-merge sweep
#: ``("compact",)`` (see :func:`make_windowed_workload`).
Op = Tuple

#: Builds a fresh system on a fresh pool wired to the given injector and
#: fault policy; the driver calls it once per crash point.
GraphFactory = Callable[[CrashInjector, FaultPolicy], "object"]


#: Crash-during-recovery points are drawn from the first this-many events.
RECOVERY_CRASH_WINDOW = 64

#: Workload ops applied to every recovered store past the in-flight one
#: (then the invariants are re-checked): recovery must hand back a store
#: that can take a write, not just one that reads right.
OPS_AFTER_RECOVERY = 2


class SweepFailure(AssertionError):
    """The recovery oracle rejected the graph recovered at a crash point."""


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
    """Everything a sweep learned; ``recovery_ns`` feeds the §4.4 report."""

    total_events: int
    exhaustive: bool
    policy: FaultPolicy
    results: List[CrashPointResult] = field(default_factory=list)

    @property
    def crash_points(self) -> int:
        return len(self.results)

    def recovery_ns(self) -> np.ndarray:
        return np.array(
            [r.recovery_ns for r in self.results if not r.unrecoverable],
            dtype=np.float64,
        )

    def recovery_stats(self) -> Dict[str, float]:
        """Recovery-time summary (µs) along ``DISTRIBUTION_KEYS``.

        Routed through the shared :func:`repro.bench.reporting.
        distribution_stats` helper (imported lazily — ``repro.bench``
        pulls the whole harness in, which this testing module must not
        do at import time).
        """
        from ..bench.reporting import distribution_stats

        return distribution_stats(self.recovery_ns() * 1e-3, unit="us")

    def in_flight_applied_count(self) -> int:
        return sum(1 for r in self.results if r.in_flight_applied)

    def unrecoverable_count(self) -> int:
        return sum(1 for r in self.results if r.unrecoverable)


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
    insert-only (the per-vertex-prefix in-flight oracle compares
    ordered neighbor sequences, which deletes would reorder).
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


def _apply_op(g, op: Op) -> None:
    kind = op[0]
    if kind == "insert":
        g.insert_edge(op[1], op[2])
    elif kind == "delete":
        g.delete_edge(op[1], op[2])
    elif kind == "batch":
        # Chunking already happened in the workload builder; one op is
        # one dispatch round.
        g.insert_edges(op[1], batch_size=None)
    elif kind == "expire":
        for s, d in op[1]:
            g.delete_edge(s, d)
    elif kind == "compact":
        g.compact()
    else:
        raise ValueError(f"unknown workload op kind {kind!r}")


def _batch_per_src(batch: EdgeBatch) -> Dict[int, List[int]]:
    """Per-source destination sequence of a batch, in stream order."""
    per: Dict[int, List[int]] = {}
    for s, d in zip(batch.src.tolist(), batch.dst.tolist()):
        per.setdefault(s, []).append(d)
    return per


def _ordered_ops(ops: Sequence[Op]) -> bool:
    """Insert-only workloads guarantee per-vertex order; deletes don't.

    A compaction sweep preserves live order (it only drops matched
    tombstone pairs), so it keeps an insert-only workload ordered.
    """
    return all(op[0] in ("insert", "batch", "compact") for op in ops)


def _remove_last(lst: List[int], d: int) -> None:
    for i in range(len(lst) - 1, -1, -1):
        if lst[i] == d:
            del lst[i]
            break


def _expected_state(ops: Sequence[Op], nv: int) -> Dict[int, List[int]]:
    """Per-vertex neighbor sequence after applying ``ops`` in order."""
    state: Dict[int, List[int]] = {v: [] for v in range(nv)}
    for op in ops:
        kind = op[0]
        if kind == "insert":
            state.setdefault(op[1], []).append(op[2])
        elif kind == "batch":
            for s, d in zip(op[1].src.tolist(), op[1].dst.tolist()):
                state.setdefault(s, []).append(d)
        elif kind == "delete":
            _remove_last(state.setdefault(op[1], []), op[2])
        elif kind == "expire":
            for s, d in op[1]:
                _remove_last(state.setdefault(s, []), d)
        elif kind == "compact":
            pass  # logically invisible: live adjacency is unchanged
        else:
            raise ValueError(f"unknown workload op kind {kind!r}")
    return state


def _graph_state(g) -> Dict[int, List[int]]:
    return {v: [int(d) for d in g.out_neighbors(v)] for v in range(g.num_vertices)}


def _match(got: List[int], want: List[int], ordered: bool) -> bool:
    if ordered:
        return got == want
    return Counter(got) == Counter(want)


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

    ``acked`` operations completed before the crash; operation
    ``ops[acked]`` (if any) was in flight.  A scalar in-flight op may be
    visible exactly once or not at all.  An in-flight ``("batch", ...)``
    op may be *partially* visible, but only as a per-vertex prefix of
    the batch's per-source destination sequence — the batched ingest
    path places each vertex's edges in stream order and recovery cuts
    a torn commit group back to a per-vertex prefix (DESIGN.md §5),
    and on a sharded graph a crash between
    per-shard dispatches leaves whole shards unapplied, which is still a
    per-vertex prefix (each vertex lives in exactly one shard).  An
    in-flight ``("expire", pairs)`` run applies its scalar deletes in
    order, so the recovered state must match the acked prefix plus the
    first ``j`` deletes for *some* ``j`` (the delete at the crash is
    itself at-most-once, covered by ``j`` vs ``j+1``).  An in-flight
    ``("compact",)`` sweep is logically invisible — crashed-out or
    completed, the live adjacency must equal the acked prefix exactly.
    Everything else must match the acked prefix exactly.  Raises
    :class:`SweepFailure` naming ``where`` otherwise.
    """
    nv = g.num_vertices
    ordered = _ordered_ops(ops)
    without = _expected_state(ops[:acked], nv)
    in_flight: Optional[Op] = ops[acked] if acked < len(ops) else None
    if in_flight is not None and in_flight[0] == "compact":
        in_flight = None  # invisible either way: plain acked-prefix check
    in_flight_batch = in_flight is not None and in_flight[0] == "batch"
    batch_extra: Dict[int, List[int]] = (
        _batch_per_src(in_flight[1]) if in_flight_batch else {}
    )
    if in_flight is not None and in_flight[0] == "expire":
        return _verify_in_flight_expire(g, ops, acked, in_flight, where=where)
    with_op = None
    if in_flight is not None and not in_flight_batch:
        with_op = _expected_state(list(ops[: acked + 1]), nv)

    in_flight_applied: Optional[bool] = None
    for v in range(nv):
        got = [int(d) for d in g.out_neighbors(v)]
        want = without.get(v, [])
        if in_flight_batch and v in batch_extra:
            extra = batch_extra[v]
            tail = got[len(want):]
            if got[: len(want)] != want or tail != extra[: len(tail)]:
                raise SweepFailure(
                    f"[{where}] vertex {v}: recovered {got} is not the acked "
                    f"prefix {want} plus a prefix of the in-flight batch's "
                    f"edges {extra}"
                )
            if tail:
                in_flight_applied = True
        elif in_flight is not None and not in_flight_batch and in_flight[1] == v:
            if _match(got, want, ordered):
                in_flight_applied = False
            elif _match(got, with_op[v], ordered):
                in_flight_applied = True
            else:
                raise SweepFailure(
                    f"[{where}] vertex {v}: recovered {got} matches neither the "
                    f"acked prefix {want} nor prefix+in-flight {with_op[v]}"
                )
        elif not _match(got, want, ordered):
            raise SweepFailure(
                f"[{where}] vertex {v}: recovered {got} != acked prefix {want} "
                f"(phantom, duplicate or lost edge)"
            )
    if in_flight_batch and in_flight_applied is None:
        in_flight_applied = False

    _verify_structure(g, where)
    return in_flight_applied


def _verify_in_flight_expire(
    g,
    ops: Sequence[Op],
    acked: int,
    in_flight: Op,
    *,
    where: str,
) -> Optional[bool]:
    """Oracle for a crash inside an ``("expire", pairs)`` delete run.

    The run's deletes are acked one by one, so the persisted state must
    equal the acked prefix plus the first ``j`` expiry deletes for some
    ``0 <= j <= len(pairs)`` — tried longest-first so the reported
    ``in_flight_applied`` reflects the deepest matching prefix.
    """
    nv = g.num_vertices
    ordered = _ordered_ops(ops)
    pairs = list(in_flight[1])
    got = {v: [int(d) for d in g.out_neighbors(v)] for v in range(nv)}
    matched_j: Optional[int] = None
    for j in range(len(pairs), -1, -1):
        cand = list(ops[:acked]) + ([("expire", tuple(pairs[:j]))] if j else [])
        want = _expected_state(cand, nv)
        if all(_match(got.get(v, []), want.get(v, []), ordered) for v in range(nv)):
            matched_j = j
            break
    if matched_j is None:
        want0 = _expected_state(list(ops[:acked]), nv)
        bad = next(
            v for v in range(nv)
            if not _match(got.get(v, []), want0.get(v, []), ordered)
        )
        raise SweepFailure(
            f"[{where}] vertex {bad}: recovered {got.get(bad)} matches no "
            f"prefix of the in-flight expire run {pairs} over the acked "
            f"state {want0.get(bad)}"
        )
    _verify_structure(g, where)
    return matched_j > 0


def _verify_structure(
    g, where: str, check_invariants: bool = True, check_log_cursors: bool = True
) -> None:
    """Shared structural half of the oracle: invariants + log cursors."""
    if check_invariants:
        try:
            g.check_invariants()
        except Exception as exc:
            raise SweepFailure(f"[{where}] structural invariants violated: {exc}") from exc

    if check_log_cursors:
        from ..core.edge_log import EdgeLogs

        # Every shard's cursors must match its own independent rebuild.
        for part in g.shards:
            fresh = EdgeLogs(
                part.pool, part.logs.n_sections, part.logs.entries_per_section, create=False
            )
            fresh.rebuild_counts()
            if not (
                np.array_equal(fresh.counts, part.logs.counts)
                and np.array_equal(fresh.live_counts, part.logs.live_counts)
            ):
                raise SweepFailure(
                    f"[{where}] edge-log cursors disagree with an independent "
                    f"rebuild: {part.logs.counts.tolist()} vs {fresh.counts.tolist()}"
                )


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def _count_events(make_graph: GraphFactory, ops: Sequence[Op], cfg: SweepConfig) -> int:
    """Dry run: persistence events the workload generates (post-construction)."""
    inj = CrashInjector()
    g = make_graph(inj, cfg.faults)
    base = inj.total_events
    for op in ops:
        _apply_op(g, op)
    return inj.total_events - base


def _run_workload(g, ops: Sequence[Op]) -> Tuple[int, Optional[SimulatedCrash]]:
    acked = 0
    try:
        for op in ops:
            _apply_op(g, op)
            acked += 1
    except SimulatedCrash as crash:
        return acked, crash
    return acked, None


def _reference_recovery(g, open_graph) -> Tuple[Dict[int, List[int]], float]:
    """Recover a deep copy of the crashed pool; its state is the reference."""
    ref_pool = copy.deepcopy(g.pool)
    for p in ref_pool.pools:
        p.device.injector = CrashInjector()  # never crashes
    ns0 = ref_pool.clocks()
    ref = open_graph(ref_pool, g.config)
    return _graph_state(ref), float((ref_pool.clocks() - ns0).max())


def crash_sweep(
    make_graph: GraphFactory,
    ops: Sequence[Op],
    config: Optional[SweepConfig] = None,
) -> SweepReport:
    """Sweep crash points of ``ops`` over fresh graphs; oracle every recovery.

    ``make_graph(injector, faults)`` must build a fresh system on a
    fresh pool each call (construction runs with the injector disarmed;
    only workload events are swept).  Raises :class:`SweepFailure` on
    the first oracle violation; otherwise returns a
    :class:`SweepReport`.
    """
    cfg = config or SweepConfig()
    ops = list(ops)
    rng = np.random.default_rng(cfg.seed)

    total = _count_events(make_graph, ops, cfg)
    if total <= 0:
        raise ValueError("workload generates no persistence events")

    exhaustive = total <= cfg.exhaustive_threshold
    if exhaustive:
        points = list(range(1, total + 1))
    else:
        points = sorted(
            int(k) + 1
            for k in rng.choice(total, size=min(cfg.samples, total), replace=False)
        )
    n_idem = min(cfg.idempotence_samples, len(points))
    idem_points = (
        set(int(p) for p in rng.choice(points, size=n_idem, replace=False))
        if n_idem
        else set()
    )

    report = SweepReport(total_events=total, exhaustive=exhaustive, policy=cfg.faults)
    for k in points:
        inj = CrashInjector()
        g = make_graph(inj, cfg.faults)
        open_graph = type(g).open
        inj.arm(k)
        acked, crash = _run_workload(g, ops)
        inj.disarm()
        if crash is None:
            # Event counts can drift a little between the dry run and an
            # armed run only if the workload itself is nondeterministic;
            # a late point then just degenerates to a full-run check.
            verify_recovered_graph(g, ops, acked, where=f"no-crash@{k}")
            continue

        where = repr(crash)
        pool = g.pool
        idem = k in idem_points
        try:
            if idem:
                ref_state, rec_ns = _reference_recovery(g, open_graph)
                # Crash *during* recovery at a seeded event, then recover again.
                r = int(rng.integers(1, RECOVERY_CRASH_WINDOW + 1))
                inj.arm(r)
                try:
                    g2 = open_graph(pool, g.config)
                except SimulatedCrash:
                    inj.disarm()
                    g2 = open_graph(pool, g.config)
                inj.disarm()
                got = _graph_state(g2)
                ordered = _ordered_ops(ops)
                for v, want in ref_state.items():
                    if not _match(got.get(v, []), want, ordered):
                        raise SweepFailure(
                            f"[{where}] recovery is not idempotent: after a crash "
                            f"during recovery (event #{r}) and a second recovery, "
                            f"vertex {v} is {got.get(v)} but a clean recovery of "
                            f"the same image gives {want}"
                        )
            else:
                ns0 = pool.clocks()
                g2 = open_graph(pool, g.config)
                rec_ns = float((pool.clocks() - ns0).max())
        except (RecoveryError, MediaError) as exc:
            inj.disarm()
            if cfg.faults.poison_on_crash <= 0.0 and not cfg.faults.runtime_active:
                raise SweepFailure(
                    f"[{where}] recovery refused a crash image produced with "
                    f"no media faults configured: {exc}"
                ) from exc
            # Poisoned lines landed on state recovery must read: the
            # contract is to *report* the damaged region, which it did.
            report.results.append(
                CrashPointResult(
                    total_index=k,
                    op=crash.op,
                    op_index=crash.op_index,
                    acked=acked,
                    in_flight_applied=None,
                    recovery_ns=0.0,
                    idempotence_checked=False,
                    unrecoverable=True,
                    detail=str(exc),
                )
            )
            continue

        applied = verify_recovered_graph(g2, ops, acked, where=where)
        for op in ops[acked + 1 : acked + 1 + OPS_AFTER_RECOVERY]:
            _apply_op(g2, op)
        _verify_structure(g2, f"{where} + {OPS_AFTER_RECOVERY} ops", check_log_cursors=False)
        report.results.append(
            CrashPointResult(
                total_index=k,
                op=crash.op,
                op_index=crash.op_index,
                acked=acked,
                in_flight_applied=applied,
                recovery_ns=rec_ns,
                idempotence_checked=idem,
            )
        )
    return report


__all__ = [
    "Op",
    "GraphFactory",
    "SweepFailure",
    "SweepConfig",
    "CrashPointResult",
    "SweepReport",
    "crash_sweep",
    "make_insert_workload",
    "make_batched_insert_workload",
    "make_windowed_workload",
    "verify_recovered_graph",
]
