"""The generation switch (``Rebalancer._switch``): every whole-array
rewrite — growth, or the root window at unchanged capacity — streams its
image into a fresh generation's region and flips the root to it.

What the tests below pin:

* the protocol — a same-capacity switch ping-pongs between two regions,
  keeps its log region, retires nothing it does not free, and reads back
  exactly what the in-place root rewrite (the "No EL&UL" twin, which
  keeps its PMDK-transaction window) reads back;
* a power failure at **every** persistence event of a root-level
  rebalance, a compaction sweep and a growth resize, under the default,
  torn-store and persist-reorder policies: nothing lost, nothing
  duplicated, every phase of the switch actually hit — and the store
  keeps ingesting past the *next* resize (a failed switch used to wedge
  every later one on ``PoolLayoutError``);
* exhaustion safety: the N-th allocation failing, for every N, on dgap /
  sharded1 / sharded3 — the call raises ``OutOfPMemError``, holds no
  section lock, the store reads back the acknowledged prefix, takes a
  write that needs no new region and reopens clean;
* bounded space: a 10×-length churn stream finishes inside a pool sized
  for two generations plus logs, and the rebalance scratch is one region
  that regrows in place.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.core.batch import EdgeBatch
from repro.core.rebalance import ROOT_GEN, SCRATCH, Rebalancer
from repro.core.recovery import GENERATION_REGIONS
from repro.core.undo_log import STATE_COPYBACK, STATE_DONE, STATE_IDLE
from repro.errors import OutOfPMemError
from repro.pmem.alloc import BumpAllocator
from repro.pmem.pool import PMemPool
from repro.pmem.faults import DEFAULT_POLICY, PERSIST_REORDER, TORN_STORES
from repro.sharding.partition import to_global
from .harness import model
from .harness.crashsweep import (
    SweepConfig,
    crash_points,
    crash_sweep,
    make_insert_workload,
    verify_recovered_graph,
)

from .stores import STORES, make_store, out_csr, reopen

POLICIES = pytest.mark.parametrize(
    "policy", [DEFAULT_POLICY, TORN_STORES, PERSIST_REORDER], ids=["default", "torn", "reorder"]
)
CFG = dict(init_vertices=64, init_edges=512, segment_slots=64, elog_size=96)


def churned(injector=None, faults=None, **over):
    """A 64-vertex store with pending log entries and matched tombstones."""
    g = DGAP(DGAPConfig(**{**CFG, **over}), injector=injector, faults=faults)
    rng = np.random.default_rng(3)
    edges = np.column_stack([rng.integers(0, 64, 400), rng.integers(0, 64, 400)])
    g.insert_edges(edges, batch_size=64)
    for s, d in edges[:60].tolist():
        g.delete_edge(s, d)
    assert g.logs.counts.any() and g.tombstone_density() > 0
    return g


def generation_regions(g):
    return sorted(g.pool.names(GENERATION_REGIONS))


def crashed(op, policy, **over):
    """The crashed store at every persistence event of ``op`` on a churned one."""
    for _, g, crash in crash_points(lambda inj: churned(inj, policy, **over), op):
        assert crash is not None
        yield g


def phase(g):
    """Where the crash fell: (root generation, undo-log state) on media."""
    return g.pool.read_root(ROOT_GEN), g.ulogs[0].read_header().state


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_same_capacity_switch_ping_pongs_and_keeps_its_logs(self):
        g = churned()
        logs, cap = g.logs.region.name, g.ea.capacity
        offsets, cursors = [g.ea.region.offset], []
        for _ in range(6):
            g.compact()
            offsets.append(g.ea.region.offset)
            cursors.append(g.pool.allocator.cursor)
            assert generation_regions(g) == sorted([f"edges.g{g.ea.gen}", logs])
            g.check_invariants()
        assert g.ea.gen == 6 and g.ea.capacity == cap and g.n_resizes == 0
        assert len(set(offsets)) == 2 and offsets[0::2] == offsets[:1] * 4  # two blocks, alternating
        assert max(cursors) <= offsets[1] + cap * 4  # the pool never outgrows two generations
        assert g.pool.read_root(ROOT_GEN) == 6 and g.ulogs[0].read_header().state == STATE_IDLE

    def test_root_rebalance_is_a_switch_and_counts_as_a_rebalance(self):
        g = churned()
        before, n = model.of(g), g.n_rebalances
        g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)
        assert (g.ea.gen, g.n_resizes, g.n_rebalances) == (1, 0, n + 1)
        assert not g.logs.counts.any() and model.of(g) == before
        g.check_invariants()

    def test_growth_frees_the_generation_and_the_logs_it_retires(self):
        g = churned()
        old = (g.ea.region.offset, g.logs.region.offset)
        g.rebalancer.resize()
        assert generation_regions(g) == sorted([f"edges.g{g.ea.gen}", g.logs.region.name])
        assert [g.pool.region_of(o) for o in old] == [None, None]
        assert g.n_resizes == 1 and g.logs.n_sections == g.ea.n_sections

    def test_no_undo_log_keeps_the_in_place_transaction_window(self):
        g = churned(use_undo_log=False)
        off = g.ea.region.offset
        g.compact()
        assert g.ea.gen == 0 and g.ea.region.offset == off
        g.check_invariants()

    @pytest.mark.parametrize("kind", STORES)
    def test_compaction_matches_the_in_place_twin(self, kind):
        """The switch against the root window rewritten in place (the
        PMDK-transaction twin): same statistics, byte-identical CSRs."""
        rng = np.random.default_rng(11)
        edges = np.column_stack([rng.integers(0, 64, 600), rng.integers(0, 64, 600)])
        got = []
        for use_undo_log in (True, False):
            g = make_store(kind, use_undo_log=use_undo_log, segment_slots=64)
            g.insert_edges(edges, batch_size=100)
            for s, d in edges[:150].tolist():
                g.delete_edge(s, d)
            stats = g.compact()
            got.append((stats, out_csr(g), g.tombstone_density()))
            assert stats["pairs_dropped"] > 0
        assert got[0] == got[1]


# ---------------------------------------------------------------------------
# a power failure at every event of the switch
# ---------------------------------------------------------------------------
def settle(g, before):
    """Reopen a crashed store: nothing lost, nothing duplicated, no dead
    generation left registered — then past the *next* resize."""
    g2 = reopen(g)
    assert model.of(g2) == before
    assert generation_regions(g2) == sorted([f"edges.g{g2.ea.gen}", g2.logs.region.name])
    assert g2.ulogs[0].read_header().state == STATE_IDLE
    i = 0
    while g2.n_resizes == 0:
        g2.insert_edges([(v, (v + i) % 64) for v in range(64)])
        i += 1
    g2.compact()
    g2.check_invariants()
    assert {v: nb[: len(before[v])] for v, nb in model.of(g2).items()} == before
    return g2


class TestCrashAtEveryPoint:
    @POLICIES
    def test_root_rebalance(self, policy):
        before = model.of(churned())
        seen = set()
        for g in crashed(
            lambda g: g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height), policy
        ):
            seen.add(phase(g))
            settle(g, before)
        # inside the stream / fence→commit; commit→flip; flip→clears; clears→finish
        assert seen >= {(0, STATE_IDLE), (0, STATE_COPYBACK), (1, STATE_COPYBACK), (1, STATE_DONE)}

    @POLICIES
    def test_compaction_sweep_is_invisible(self, policy):
        before = model.of(churned())
        seen = set()
        for g in crashed(lambda g: g.compact(), policy):
            seen.add(phase(g))
            g2 = settle(g, before)
            assert g2.tombstone_density() == 0
        assert seen >= {(0, STATE_IDLE), (0, STATE_COPYBACK), (1, STATE_COPYBACK), (1, STATE_DONE)}

    @POLICIES
    def test_growth_resize_does_not_wedge_the_next(self, policy):
        """Fails on the parent at 11 of the 45 crash points: ``edges.g1``
        was registered before the root flipped, so the reopened store's
        next resize raised ``PoolLayoutError`` — forever."""
        before = model.of(churned())
        gens = set()
        for g in crashed(lambda g: g.rebalancer.resize(), policy):
            gens.add(phase(g)[0])
            settle(g, before)
        assert gens == {0, 1}

    def test_pm_metadata_generation_is_switched_whole(self):
        """"No DP": the occupancy mirror is a generation region too."""
        before = model.of(churned(dram_placement=False))
        for g in crashed(lambda g: g.compact(), DEFAULT_POLICY, dram_placement=False):
            g2 = reopen(g)
            assert model.of(g2) == before
            assert generation_regions(g2) == sorted(
                [f"edges.g{g2.ea.gen}", f"segocc.g{g2.ea.gen}", g2.logs.region.name])


# ---------------------------------------------------------------------------
# exhaustion
# ---------------------------------------------------------------------------
def test_out_of_pmem_in_a_switch_does_not_wedge_the_next():
    """Fails on the parent: the 1 MiB pool runs out at the log allocation
    of a growth switch, ``edges.g<n>`` stays registered, and every later
    batch that needs to grow raises ``PoolLayoutError``."""
    g = DGAP(DGAPConfig(init_vertices=64, init_edges=256, pool_bytes=1 << 20))
    rng = np.random.default_rng(0)
    acked = []
    with pytest.raises(OutOfPMemError):
        while True:
            batch = np.column_stack([rng.integers(0, 64, 256), rng.integers(0, 64, 256)])
            g.insert_edges(batch)
            acked.append(batch)
    gen = g.ea.gen
    assert gen >= 1 and generation_regions(g) == sorted([f"edges.g{gen}", g.logs.region.name])
    assert g.num_edges >= sum(len(b) for b in acked)  # readable, the acknowledged prefix is in
    g.check_invariants()
    with pytest.raises(OutOfPMemError):  # the pool is still full — and says so
        for _ in range(64):
            g.insert_edges(np.column_stack([rng.integers(0, 64, 256), rng.integers(0, 64, 256)]))
    g2 = reopen(g, crash=True)
    assert g2.ea.gen == gen and g2.num_edges == g.num_edges


NV = 1024


def exhaustion_ops():
    """A skewed stream that grows the array and sweeps it (and, through
    :func:`apply`, allocates and regrows the scratch)."""
    rng = np.random.default_rng(7)
    ops = []
    for step in range(12):
        hot = (rng.random(2500) ** 3 * NV).astype(np.int64)
        ops.append(("batch", EdgeBatch.coerce(np.column_stack([hot, rng.integers(0, NV, 2500)]))))
        if step % 3 == 2:
            ops.append(("compact",))
    return ops


def apply(g, op):
    """``model.apply``, a sweep preceded by a rebalance of every shard's
    upper half: a sub-root window too large for the undo log, so it goes
    through the scratch — which it outgrows as the array doubles."""
    if op[0] == "compact":
        for sh in g.shards:
            n = sh.ea.n_sections
            sh.rebalancer.rebalance_window(n // 2, n, sh.ea.tree.height - 1)
    model.apply(g, op)


class FailingAllocator:
    """Patch ``BumpAllocator.alloc`` machine-wide: count calls, and fail
    the ``fail_at``-th and every later one (the pool stays exhausted)."""

    def __init__(self, monkeypatch, fail_at=None):
        self.calls = 0
        real = BumpAllocator.alloc

        def alloc(allocator, nbytes, align=64):
            self.calls += 1
            if fail_at is not None and self.calls >= fail_at:
                raise OutOfPMemError(f"allocation #{self.calls} failed (test)")
            return real(allocator, nbytes, align)

        monkeypatch.setattr(BumpAllocator, "alloc", alloc)


def gap_vertex(g):
    """Global id of a vertex whose next slot is a gap: its next edge is
    one slot write — no log, no rebalance, no allocation."""
    for r, sh in enumerate(g.shards):
        pos = sh.va.starts() + sh.va.array_degree[: sh.num_vertices]
        last = sh.ea.capacity - 1
        free = np.flatnonzero((pos <= last) & (sh.ea.slots[np.minimum(pos, last)] == 0))
        if free.size:
            v = int(free[0])
            return v if g.n_shards == 1 else int(to_global(v, r, g.n_shards))
    raise AssertionError("no vertex with a trailing gap")


def exhaustible(kind):
    return make_store(kind, init_vertices=NV, init_edges=2048, pool_bytes=48 << 20)


@pytest.mark.parametrize("kind", STORES)
def test_the_nth_allocation_failing_for_every_n(kind, monkeypatch):
    ops = exhaustion_ops()
    with monkeypatch.context() as m:
        g = exhaustible(kind)
        counter, grown = FailingAllocator(m), []
        m.setattr(PMemPool, "grow_array",
                  lambda *a, real=PMemPool.grow_array: grown.append(a[1]) or real(*a))
        for op in ops:
            apply(g, op)
        total = counter.calls
    # the stream grows, sweeps, allocates a scratch per pool — and regrows a single pool's
    assert all(sh.n_resizes and sh.n_compactions for sh in g.shards)
    assert all(p.has_array(SCRATCH) for p in g.pool.pools) and (grown or kind == "sharded3")

    for n in range(1, total + 1):
        with monkeypatch.context() as m:
            g = exhaustible(kind)
            FailingAllocator(m, fail_at=n)
            acked = 0
            with pytest.raises(OutOfPMemError):
                for op in ops:
                    apply(g, op)
                    acked += 1
            assert all(not sh.locks.held_sections() for sh in g.shards)
            verify_recovered_graph(g, ops, acked, where=f"{kind} alloc #{n}")
            v = gap_vertex(g)  # a write that needs no new region still lands
            g.insert_edge(v, 63)
            assert g.out_neighbors(v)[-1] == 63
        g2 = reopen(g, crash=True)
        for sh in g2.shards:
            assert generation_regions(sh) == sorted([f"edges.g{sh.ea.gen}", sh.logs.region.name])
        assert g2.out_neighbors(v)[-1] == 63
        g2.delete_edge(v, 63)
        verify_recovered_graph(g2, ops, acked, where=f"{kind} reopen #{n}")


def test_ten_times_the_churn_fits_two_generations_plus_logs():
    cfg = DGAPConfig(init_vertices=64, init_edges=4096, segment_slots=64)
    probe = DGAP(cfg)
    built = probe.pool.allocator.cursor  # generation 0, its logs, the undo logs
    room = built + probe.ea.region.nbytes + 64 * 1024 + 4096  # + one generation + the scratch
    g = DGAP(dataclasses.replace(cfg, pool_bytes=room))
    rng = np.random.default_rng(5)
    window = []
    for step in range(10 * 53):
        pairs = np.column_stack([rng.integers(0, 64, 40), rng.integers(0, 64, 40)])
        g.insert_edges(pairs)
        window.append(pairs)
        if len(window) > 4:
            g.insert_edges(EdgeBatch(*window.pop(0).T, np.ones(40, dtype=bool)))
        if step % 2:
            g.compact()
    assert g.n_resizes == 0 and g.n_compactions == 5 * 53
    assert g.pool.allocator.cursor <= room and g.num_edges == 4 * 40
    g.check_invariants()


# ---------------------------------------------------------------------------
# the PMDK journal of the ablation configs dies with its generation
# ---------------------------------------------------------------------------
def journals(g):
    return sorted(g.pool.names("pmdk-journal.g"))


@pytest.mark.parametrize(
    "ablation", [dict(use_undo_log=False), dict(use_edge_log=False, use_undo_log=False)],
    ids=["no-ul", "no-el-ul"],
)
def test_a_journal_dies_with_its_generation(ablation):
    """Fails on the parent: every resize allocated ``pmdk-journal.g<gen>``
    (+ ``.lane``) and nothing freed the last one — four resizes, five
    journals beside the single live ``edges.g4``."""
    g = DGAP(DGAPConfig(**{**CFG, "init_edges": 256}, **ablation))
    built = g.pool.allocator.cursor
    rng = np.random.default_rng(0)
    while g.n_resizes < 4:
        g.insert_edges(rng.integers(0, 64, size=(500, 2)))
    assert journals(g) == [f"pmdk-journal.g{g.ea.gen}", f"pmdk-journal.g{g.ea.gen}.lane"]
    per_generation = sum(g.pool.get_array(n).nbytes for n in generation_regions(g))
    assert g.pool.allocator.cursor <= built + 2 * per_generation  # the high-water mark
    g2 = reopen(g, crash=True)
    assert journals(g2) == journals(g) and model.of(g2) == model.of(g)


def test_no_el_ul_sweep_crosses_the_flip_with_two_journals():
    """An exhaustive sweep of the "No EL&UL" config over a growth resize:
    a power failure between the root flip and the reap reopens with the
    retired generation's journal still registered — and frees it."""
    cfg = DGAPConfig(init_vertices=8, init_edges=64, segment_slots=64,
                     use_edge_log=False, use_undo_log=False)
    ops = make_insert_workload(np.random.default_rng(3).integers(0, 8, size=(120, 2)).tolist())
    met, reap = set(), Rebalancer.reap

    def spy(rebalancer):
        met.add(len(journals(rebalancer.host)))
        reap(rebalancer)
        assert len(journals(rebalancer.host)) <= 2

    with mock.patch.object(Rebalancer, "reap", spy):
        rep = crash_sweep(
            lambda inj, faults: DGAP(cfg, injector=inj, faults=faults), ops,
            SweepConfig(exhaustive_threshold=10_000, idempotence_samples=3),
        )
    assert rep.exhaustive and not any(r.unrecoverable for r in rep.results)
    assert met == {2, 4}  # 4: a reopen bound generation 1's pair beside the retired one's


# ---------------------------------------------------------------------------
# one scratch
# ---------------------------------------------------------------------------
def test_the_scratch_is_one_region_regrown_in_place():
    g = churned()
    a = g.rebalancer._get_scratch(256)
    assert a.name == SCRATCH and a.count == 64 * 1024
    assert a.offset + a.count == g.pool.allocator.cursor  # the tail allocation
    b = g.rebalancer._get_scratch(96 * 1024)
    assert (b.offset, b.count) == (a.offset, 96 * 1024)
    assert g.pool.allocator.cursor == a.offset + 96 * 1024 and g.pool.allocator._free == []
    g.pool.alloc_array("pin", np.uint8, 64)  # no longer the tail: the outgrown block is freed
    c = g.rebalancer._get_scratch(128 * 1024)
    assert c.offset > b.offset and g.pool.allocator._free == [(b.offset, b.count)]
    assert g.pool.names("rebal.") == [SCRATCH]
    g2 = DGAP.open(g.pool, g.config)  # a reopened store finds it by name
    assert g2.rebalancer._get_scratch(256).offset == c.offset
