"""Every crash sweep of the suite, as one table (paper §3.1.4–3.1.5, DESIGN.md §6).

A row of :data:`SWEEPS` is one :func:`~.harness.crashsweep.crash_sweep` run: a
store (``tests/stores.py``), a workload, a :class:`SweepConfig` — the
fault policy, exhaustive or sampled, how many points also crash during
recovery — and what the report must show.  Every row also holds the
sweep's own oracle at every point (acked prefix, a legal cut of the one
in-flight op, structure, idempotence, two more ops after recovery) and
charges every recovered point a positive modeled recovery time.  DESIGN.md
§6 lists the rows: store × workload × policy; ``cut_spy`` proves the
``batched`` rows' weakened policies really produced both torn shapes of a
commit group, and the devices' ``transient_faults`` counters that the
``rebalance-transient`` row's read faults fired — and no other row's.
"""

import dataclasses
import random
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable, FrozenSet, NamedTuple, Optional
from unittest import mock

import numpy as np
import pytest

from repro.core import recovery
from repro.core.batch import EdgeBatch
from repro.pmem.faults import ADVERSARIAL, DEFAULT_POLICY, PERSIST_REORDER, TORN_STORES, FaultPolicy
from .harness import model
from .harness.crashsweep import (
    SweepConfig,
    crash_sweep,
    make_batched_insert_workload,
    make_insert_workload,
    make_windowed_workload,
    verify_recovered_graph,
)
from .harness.model import Mismatch, Model

from .stores import factory, make_store

#: 8 vertices in 256 slots with an 8-entry edge log: a few dozen edges merge and rebalance
CFG = dict(init_vertices=8, init_edges=256, segment_slots=64, elog_size=96)
#: 32 vertices in 512 slots: 15-slot gaps, four runs (and one edge log) per section
BATCH_CFG = {**CFG, "init_vertices": 32}
#: 9 vertices striped over two or three shards
SHARD_CFG = {**CFG, "init_vertices": 9}
BASE = dict(init_vertices=48, init_edges=512, segment_slots=64, elog_size=256)


# -- workloads -----------------------------------------------------------------
def rebalance_workload():
    """~80 ops hitting every insert path: gap inserts, log appends, a
    forced merge+rebalance, and a couple of deletions."""
    ops = [("insert", 0, d % 8) for d in range(76)]
    ops += [("insert", 3, 1), ("insert", 5, 2)]
    ops += [("delete", 0, 2), ("delete", 3, 1)]
    return ops


def scalar_workload():
    """Inserts spread over every shard, plus deletes; forces log appends
    and at least one rebalance in the hottest shard."""
    ops = [("insert", d % 9, (d * 5) % 9) for d in range(60)]
    ops += [("insert", 0, d % 9) for d in range(30)]
    ops += [("delete", 0, 2), ("delete", 1, 5 % 9)]
    return ops


def windowed_edges(n=20, seed=1):
    """Pairs with deliberate duplicates so expiry runs delete multiple
    copies and compaction finds matched tombstone pairs to drop."""
    rng = np.random.default_rng(seed)
    return [(int(s), int(d)) for s, d in zip(rng.integers(0, 8, n), rng.integers(0, 8, n))]


def windowed_workload():
    return make_windowed_workload(windowed_edges(), window=1, step=4, compact_every=2)


def batched_workload(n=96, batch_size=8, seed=4):
    """Hub-skewed stream: vertex 0 overflows its gap, fills its section's
    edge log and forces merges, while its neighbours share its lines."""
    rng = np.random.default_rng(seed)
    src = np.where(rng.random(n) < 0.5, 0, rng.integers(0, 8, size=n))
    return make_batched_insert_workload(
        np.column_stack([src, rng.integers(0, 32, size=n)]), batch_size=batch_size
    )


def random_edges(n, nv=48, seed=1, hot=None):
    """``n`` uniform pairs; with ``hot``, every third one leaves ``hot``."""
    rng = random.Random(seed)
    return [(hot if hot is not None and i % 3 == 0 else rng.randrange(nv), rng.randrange(nv))
            for i in range(n)]


def delete_workload():
    """Inserts with every fifth op deleting its row's oldest live edge."""
    rng = random.Random(9)
    live = {v: [] for v in range(16)}
    ops = []
    for i in range(500):
        u, w = rng.randrange(16), rng.randrange(16)
        if i % 5 == 4 and live[u]:
            ops.append(("delete", u, live[u].pop(0)))
        else:
            ops.append(("insert", u, w))
            live[u].append(w)
    return ops


def mid_dispatch_workload():
    """Batches of 8 over 3 shards: most split across several shards."""
    rng = np.random.default_rng(2)
    return make_batched_insert_workload(
        np.column_stack([rng.integers(0, 9, size=72), rng.integers(0, 9, size=72)]), batch_size=8
    )


@contextmanager
def cut_spy():
    """Count what each recovery cut actually removed while active."""
    spy = SimpleNamespace(scrubbed=0, rejected=0)
    zero, replay = recovery._zero_slots, recovery._replay_logs

    def zero_spy(ea, garbage):
        spy.scrubbed += int(garbage.size)
        zero(ea, garbage)

    def replay_spy(host, *a):
        live0 = int(host.logs.live_counts.sum())
        replay(host, *a)
        spy.rejected += live0 - int(host.logs.live_counts.sum())

    with mock.patch.object(recovery, "_zero_slots", zero_spy), \
            mock.patch.object(recovery, "_replay_logs", replay_spy):
        yield spy


# -- the table -------------------------------------------------------------------
class Sweep(NamedTuple):
    store: Callable  # make_graph(injector, faults)
    workload: Callable[[], list]
    config: SweepConfig
    exhaustive: Optional[bool] = None  # None: either
    min_points: int = 0  # strictly more crash points than this
    ops: FrozenSet[str] = frozenset()  # event kinds some point crashed at
    in_flight: bool = False  # some point kept part of its in-flight op
    refused: Optional[str] = None  # some, not all, points refused, naming this
    idempotence: Optional[int] = None  # points that also crashed during recovery
    tears: Optional[bool] = None  # True: both cuts removed something; False: neither


ALL_KINDS = frozenset({"store", "flush", "fence", "ntstore"})
GROUP_KINDS = frozenset({"store", "flush", "fence"})

SWEEPS = {
    **{
        f"rebalance-{name}": Sweep(
            factory(**CFG), rebalance_workload,
            SweepConfig(faults=policy, exhaustive_threshold=5000, idempotence_samples=6),
            exhaustive=True, min_points=200, ops=ALL_KINDS, idempotence=6,
        )
        for name, policy in dict(default=DEFAULT_POLICY, torn=TORN_STORES,
                                 reorder=PERSIST_REORDER, adversarial=ADVERSARIAL,
                                 transient=FaultPolicy(transient_read_rate=0.01)).items()
    },
    "rebalance-poison": Sweep(
        factory(**CFG), rebalance_workload,
        SweepConfig(faults=FaultPolicy(torn_stores=True, persist_reorder=True, poison_on_crash=0.2, seed=11),
                    exhaustive_threshold=5000, idempotence_samples=4),
        exhaustive=True, refused="media error",
    ),
    "rebalance-sampled": Sweep(
        factory(**CFG), rebalance_workload,
        SweepConfig(exhaustive_threshold=10, samples=25, idempotence_samples=2, seed=7),
        exhaustive=False, min_points=15,
    ),
    "hub-30": Sweep(
        factory(**CFG), lambda: make_insert_workload([(0, d % 8) for d in range(30)]),
        SweepConfig(exhaustive_threshold=1000, idempotence_samples=0),
        exhaustive=True,
    ),
    **{
        f"scalar-sharded{n}-{name}": Sweep(
            factory(f"sharded{n}", **SHARD_CFG), scalar_workload,
            SweepConfig(faults=policy, exhaustive_threshold=100, samples=120, idempotence_samples=3, seed=3),
            min_points=80, in_flight=True,
        )
        for n in (2, 3) for name, policy in dict(default=DEFAULT_POLICY, torn=TORN_STORES).items()
    },
    "batched-sharded3-mid-dispatch": Sweep(
        factory("sharded3", **SHARD_CFG), mid_dispatch_workload,
        SweepConfig(exhaustive_threshold=100, samples=120, idempotence_samples=3, seed=9),
        in_flight=True,
    ),
    **{
        f"windowed-{name}": Sweep(
            factory(**CFG), windowed_workload,
            SweepConfig(faults=policy, exhaustive_threshold=5000, idempotence_samples=3, seed=2),
            exhaustive=True, in_flight=True,
        )
        for name, policy in dict(default=DEFAULT_POLICY, torn=TORN_STORES, reorder=PERSIST_REORDER).items()
    },
    "windowed-w0-torn": Sweep(
        factory(**CFG), lambda: make_windowed_workload(windowed_edges(), window=0, step=3, compact_every=2),
        SweepConfig(faults=TORN_STORES, exhaustive_threshold=5000, idempotence_samples=3, seed=2),
        exhaustive=True, in_flight=True,
    ),
    "windowed-poison": Sweep(
        factory(**CFG), windowed_workload,
        SweepConfig(faults=dataclasses.replace(ADVERSARIAL, poison_on_crash=0.3, seed=5),
                    exhaustive_threshold=5000, idempotence_samples=0, seed=5),
        refused="beyond repair",
    ),
    **{
        f"windowed-sharded{n}": Sweep(
            factory(f"sharded{n}", **CFG),
            lambda: make_windowed_workload(windowed_edges(28, seed=4), window=2, step=5, compact_every=3),
            SweepConfig(exhaustive_threshold=100, samples=80, idempotence_samples=2, seed=11),
            in_flight=True,
        )
        for n in (2, 3)
    },
    "random-900": Sweep(
        factory(**BASE), lambda: make_insert_workload(random_edges(900)),
        SweepConfig(exhaustive_threshold=0, samples=60, idempotence_samples=2, seed=0),
        min_points=20,
    ),
    "hot-900": Sweep(
        factory(**BASE), lambda: make_insert_workload(random_edges(900, hot=7, seed=2)),
        SweepConfig(exhaustive_threshold=0, samples=40, idempotence_samples=2, seed=2),
        min_points=15,
    ),
    "no-edge-log": Sweep(
        factory(**BASE, use_edge_log=False), lambda: make_insert_workload(random_edges(700, seed=3)),
        SweepConfig(exhaustive_threshold=0, samples=25, idempotence_samples=2, seed=3),
        min_points=10,
    ),
    "pmdk-tx": Sweep(
        factory(**BASE, use_edge_log=False, use_undo_log=False),
        lambda: make_insert_workload(random_edges(600, seed=4)),
        SweepConfig(exhaustive_threshold=0, samples=25, idempotence_samples=2, seed=4),
        min_points=10,
    ),
    "dense-rebalance": Sweep(
        factory(**{**CFG, "init_vertices": 16}),
        lambda: make_insert_workload([(i % 16, (i * 5) % 16) for i in range(400)]),
        SweepConfig(exhaustive_threshold=0, samples=120, idempotence_samples=2, seed=5),
        min_points=50, ops=GROUP_KINDS,
    ),
    "deletions": Sweep(
        factory(init_vertices=16, init_edges=512, segment_slots=64), delete_workload,
        SweepConfig(exhaustive_threshold=0, samples=25, idempotence_samples=2, seed=9),
        min_points=10,
    ),
    # The crash RNG is seeded per (policy seed, crash ordinal), so one
    # policy seed drops or keeps the *first* pending line at every crash
    # point alike: seed 0 keeps it (prefixes only), seed 1 drops it and
    # produces both torn shapes from line-granular reordering alone.
    **{
        f"batched-{name}": Sweep(
            factory(**BATCH_CFG), batched_workload,
            SweepConfig(faults=policy, exhaustive_threshold=10_000, idempotence_samples=8),
            exhaustive=True, in_flight=True, ops=GROUP_KINDS, tears=tears,
        )
        for name, policy, tears in [
            ("default", DEFAULT_POLICY, False),
            ("torn", TORN_STORES, True),
            ("reorder", PERSIST_REORDER, None),
            ("reorder-seed1", FaultPolicy(persist_reorder=True, seed=1), True),
            ("adversarial", ADVERSARIAL, True),
        ]
    },
    **{
        f"batched-sharded3-{name}": Sweep(
            factory("sharded3", **BATCH_CFG), lambda: batched_workload(n=90, batch_size=10, seed=6),
            SweepConfig(faults=policy, exhaustive_threshold=100, samples=150, idempotence_samples=4, seed=11),
            in_flight=True,
        )
        for name, policy in dict(default=DEFAULT_POLICY, torn=TORN_STORES,
                                 reorder=PERSIST_REORDER, adversarial=ADVERSARIAL).items()
    },
}


@pytest.mark.parametrize("row", SWEEPS.values(), ids=SWEEPS.keys())
def test_sweep(row):
    stats = []  # every device's counters, read after the sweep

    def store(injector, faults):
        g = row.store(injector, faults)
        stats.extend(p.device.stats for p in g.pool.pools)
        return g

    with cut_spy() as spy:
        rep = crash_sweep(store, row.workload(), row.config)
    points, refused = rep.crash_points, [r for r in rep.results if r.unrecoverable]
    assert points > row.min_points
    assert all(1 <= r.total_index <= rep.total_events for r in rep.results)
    if row.exhaustive is not None:
        assert rep.exhaustive == row.exhaustive
        assert points == rep.total_events if row.exhaustive else points <= row.config.samples
    assert {r.op for r in rep.results} >= row.ops
    assert any(r.in_flight_applied for r in rep.results) or not row.in_flight
    if row.refused:  # both outcomes occur, so neither branch passes vacuously
        assert 0 < len(refused) < points
        assert all(row.refused in r.detail for r in refused)
    else:
        assert not refused
    if row.idempotence is not None:
        assert sum(r.idempotence_checked for r in rep.results) == row.idempotence
    if row.tears is not None:
        assert (spy.scrubbed > 0 and spy.rejected > 0) if row.tears else spy.scrubbed == spy.rejected == 0
    assert all(r.recovery_ns > 0 for r in rep.results if not r.unrecoverable)
    transient = sum(st.transient_faults for st in stats)
    assert (transient > 0) == (row.config.faults.transient_read_rate > 0), transient


DETERMINISM = {
    "rebalance": (factory(**CFG), rebalance_workload,
                  SweepConfig(faults=TORN_STORES, exhaustive_threshold=5000, idempotence_samples=3)),
    "sharded3": (factory("sharded3", **SHARD_CFG), scalar_workload,
                 SweepConfig(faults=TORN_STORES, exhaustive_threshold=0, samples=40, idempotence_samples=2, seed=5)),
    "windowed": (factory(**CFG), windowed_workload,
                 SweepConfig(faults=TORN_STORES, exhaustive_threshold=0, samples=40, idempotence_samples=2, seed=7)),
}


@pytest.mark.parametrize("store, workload, cfg", DETERMINISM.values(), ids=DETERMINISM.keys())
def test_sweeps_are_deterministic(store, workload, cfg):
    """Sampling, the torn-store coins and the crash-during-recovery points
    all come from seeds: a sweep run twice visits the same points and
    recovers the same way — one pool exhaustively, three shards and a
    windowed store sampled."""
    a, b = (crash_sweep(store, workload(), cfg) for _ in range(2))
    assert [dataclasses.astuple(r) for r in a.results] == [dataclasses.astuple(r) for r in b.results]


@pytest.mark.parametrize("cfg, workload", [(CFG, rebalance_workload), (BATCH_CFG, batched_workload)],
                         ids=["rebalance", "batched"])
def test_workload_reaches_every_insert_path(cfg, workload):
    """Guard: replayed crash-free, the workload takes gap inserts, log
    appends and a rebalance (else its sweeps prove less than claimed)."""
    g = make_store(**cfg)
    for op in workload():
        model.apply(g, op)
    assert g.n_array_inserts > 0 and g.n_log_inserts > 0 and g.n_rebalances > 0


# -- outside the table ---------------------------------------------------------
class TestOracle:
    def test_oracle_rejects_lost_acked_edge(self):
        g = make_store(**CFG)
        ops = make_insert_workload([(0, 1), (0, 2), (0, 3)])
        for _, u, w in ops[:2]:
            g.insert_edge(u, w)
        # claim all three were acked: the missing (0, 3) must be flagged
        with pytest.raises(Mismatch, match="vertex 0"):
            verify_recovered_graph(g, ops, acked=3)

    def test_oracle_rejects_phantom_edge(self):
        g = make_store(**CFG)
        ops = make_insert_workload([(0, 1), (2, 5)])
        for _, u, w in ops:
            g.insert_edge(u, w)
        g.insert_edge(4, 4)  # never in the workload
        with pytest.raises(Mismatch, match="vertex 4"):
            verify_recovered_graph(g, ops, acked=2)

    def test_oracle_accepts_in_flight_either_way(self):
        ops = make_insert_workload([(0, 1), (0, 2)])
        g = make_store(**CFG)
        g.insert_edge(0, 1)
        assert verify_recovered_graph(g, ops, acked=1) is False
        g.insert_edge(0, 2)
        assert verify_recovered_graph(g, ops, acked=1) is True

    def test_oracle_rejects_duplicate_of_acked_edge(self):
        g = make_store(**CFG)
        ops = make_insert_workload([(0, 1)])
        g.insert_edge(0, 1)
        g.insert_edge(0, 1)  # applied twice
        with pytest.raises(Mismatch):
            verify_recovered_graph(g, ops, acked=1)

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            crash_sweep(factory(**CFG), [], SweepConfig())

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(ValueError):
            crash_sweep(factory(**CFG), [("upsert", 0, 1)], SweepConfig())

    def test_batched_workloads_are_insert_only(self):
        assert len(make_batched_insert_workload(np.array([[0, 1]]), batch_size=4)) == 1
        with pytest.raises(ValueError):
            make_batched_insert_workload(EdgeBatch(np.array([0]), np.array([1]), np.array([True])))


class TestWindowedBuilder:
    def test_op_structure(self):
        ops = make_windowed_workload([(0, 1), (1, 2), (2, 3), (3, 4)], window=1, step=2, compact_every=2)
        assert [op[0] for op in ops] == ["insert"] * 4 + ["expire", "compact"]
        assert ops[4] == ("expire", ((0, 1), (1, 2)))

    def test_window_zero_expires_each_step_immediately(self):
        ops = make_windowed_workload([(0, 1), (1, 2)], window=0, step=1, compact_every=5)
        assert ops == [("insert", 0, 1), ("expire", ((0, 1),)),
                       ("insert", 1, 2), ("expire", ((1, 2),))]

    def test_bad_geometry_rejected(self):
        for kw in ({"window": -1}, {"step": 0}, {"compact_every": 0}):
            with pytest.raises(ValueError):
                make_windowed_workload([(0, 1)], **kw)

    def test_compact_is_logically_invisible_to_expected_state(self):
        ops = windowed_workload()
        stripped = [op for op in ops if op[0] != "compact"]
        assert Model.after(ops).rows == Model.after(stripped).rows
        assert {"insert", "expire", "compact"} <= {op[0] for op in ops}

    def test_workload_exercises_compaction(self):
        """Guard: replayed crash-free, the workload drops tombstone pairs;
        every sweep is a generation switch, the second streaming into the
        block the first one freed."""
        g = make_store(**CFG)
        for op in windowed_workload():
            model.apply(g, op)
        assert g.tombstone_pairs_compacted > 0
        assert g.ea.gen == g.n_compactions == 2 and g.n_resizes == 0
        assert g.ea.region.offset + g.ea.region.nbytes == g.logs.region.offset  # generation 0's


class TestParallelRecoveryClock:
    def test_pool_clocks_shape(self):
        sh = make_store("sharded3", **SHARD_CFG)
        assert sh.pool.clocks().shape == (3,)
        single = make_store("sharded1", **SHARD_CFG)
        assert single.pool.clocks().shape == (1,)
        assert single.shards[0].pool.clocks().shape == (1,)  # a plain PMemPool

    def test_recovery_ns_is_max_over_shards_not_sum(self):
        sh = make_store("sharded3", **SHARD_CFG)
        for op in scalar_workload():
            model.apply(sh, op)
        sh.pool.crash()
        before, work0 = sh.pool.clocks(), sh.pool.stats.snapshot()
        type(sh).open(sh.pool, sh.config)
        deltas = sh.pool.clocks() - before
        assert (deltas > 0).all()  # every shard actually replayed
        assert float(deltas.max()) < float(deltas.sum())
        # the group stats are device *work*: the sum, never the makespan
        assert sh.pool.stats.delta_since(work0).modeled_ns == pytest.approx(deltas.sum())
