"""Crash-consistency and recovery tests (paper §3.1.4–3.1.5).

The central guarantee, verified by crash-point sweeps: after a power
failure at *any* store/flush/fence boundary, recovery yields a graph
that contains every acknowledged edge, in per-vertex insertion order,
with at most the single in-flight operation's edge extra — across the
normal path and every ablation mode — the sampled rows of
``test_crash_sweeps.py``.  Here: the restart and recovery paths, and
power failures swept through a shutdown.
"""

import itertools

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.pmem import PMemPool
from .harness import model
from .harness.crashsweep import crash_points
from .harness.model import Model
from .stores import reopen

from .test_crash_sweeps import BASE, random_edges


class TestRecoveryPaths:
    def test_normal_restart_roundtrip(self):
        g = DGAP(DGAPConfig(**BASE))
        edges = random_edges(1000, seed=5)
        g.insert_edges(edges)
        g.shutdown()
        Model(edges).admits(model.of(DGAP.open(g.pool, g.config)))

    def test_normal_restart_cheaper_than_crash(self):
        edges = random_edges(2000, seed=6)

        g = DGAP(DGAPConfig(**BASE))
        g.insert_edges(edges)
        g.shutdown()
        before = g.pool.stats.snapshot()
        DGAP.open(g.pool, g.config)
        normal_ns = g.pool.stats.delta_since(before).modeled_ns

        h = DGAP(DGAPConfig(**BASE))
        h.insert_edges(edges)
        h.pool.crash()
        before = h.pool.stats.snapshot()
        DGAP.open(h.pool, h.config)
        crash_ns = h.pool.stats.delta_since(before).modeled_ns
        assert crash_ns > normal_ns

    def test_reopen_after_reopen(self):
        g = DGAP(DGAPConfig(**BASE))
        g.insert_edges(random_edges(300, seed=7))
        g.shutdown()
        g2 = DGAP.open(g.pool, g.config)
        g2.insert_edge(1, 2)
        g2.shutdown()
        g3 = DGAP.open(g2.pool, g.config)
        assert g3.num_edges == 301

    def test_crash_recovery_can_continue_inserting(self):
        g = DGAP(DGAPConfig(**BASE))
        g.insert_edges(random_edges(500, seed=8))
        n0 = g.num_edges
        g2 = reopen(g, crash=True)
        g2.insert_edges(random_edges(500, seed=9))
        assert g2.num_edges == n0 + 500
        # and survives a second crash
        g3 = reopen(g2, crash=True)
        assert g3.num_edges == n0 + 500

    def test_crash_after_resize_keeps_generation(self):
        cfg = DGAPConfig(init_vertices=16, init_edges=128, segment_slots=64)
        g = DGAP(cfg)
        g.insert_edges(random_edges(2000, nv=16, seed=10))
        assert g.n_resizes >= 1
        gen = g.ea.gen
        g2 = reopen(g, crash=True)
        assert g2.ea.gen == gen
        assert g2.num_edges == 2000

    def test_recovery_rebuilds_degree_and_chains(self):
        g = DGAP(DGAPConfig(**BASE))
        for d in range(300):  # hot vertex: chains guaranteed
            g.insert_edge(3, d % 48)
        assert g.va.el[3] >= 0 or g.n_rebalances > 0
        g2 = reopen(g, crash=True)
        assert g2.out_degree(3) == 300
        assert list(g2.out_neighbors(3)) == [d % 48 for d in range(300)]

    def test_empty_graph_recovery(self):
        g = DGAP(DGAPConfig(**BASE))
        g2 = reopen(g, crash=True)
        assert g2.num_edges == 0
        assert g2.num_vertices == 48

    def test_open_blank_pool_rejected(self):
        from repro.errors import RecoveryError
        from repro.pmem import PMemPool

        with pytest.raises(RecoveryError):
            DGAP.open(PMemPool(1 << 20), DGAPConfig(**BASE))

    def test_shutdown_flag_store_not_fenced_takes_crash_path(self):
        """A crash with the NORMAL_SHUTDOWN root stored but not yet
        fenced must reopen through crash recovery, not the fast path.

        ``shutdown()`` ends with ``write_root(ROOT_SHUTDOWN, 1)`` =
        store + clwb + sfence; crashing on the clwb leaves the flag in
        the CPU cache only, so ADR reverts it and the pool looks
        crashed — which it is: metadata durability was never ordered.
        """
        from repro.core.rebalance import ROOT_SHUTDOWN

        cfg = DGAPConfig(**BASE)
        edges = random_edges(400, seed=12)

        def loaded(inj):
            g = DGAP(cfg, injector=inj)
            g.insert_edges(edges)
            return g

        # crash at the flag's clwb (shutdown's last event is its sfence)
        [(_, g, crash)] = crash_points(loaded, DGAP.shutdown, lambda total: [total - 1])
        assert crash is not None
        assert g.pool.read_root(ROOT_SHUTDOWN) == 0  # store was reverted

        g2 = DGAP.open(g.pool, cfg)
        assert g2.num_edges == 400
        Model(edges).admits(model.of(g2))

    @pytest.mark.parametrize("policy", ["default", "torn", "reorder"])
    def test_power_failure_at_every_event_of_a_second_shutdown(self, policy):
        """The second shutdown frees the first one's ``meta.*`` regions and
        writes into the same bytes.  Power failing at any of its
        persistence events reopens with every acknowledged edge — through
        crash recovery (the flag still reads 0) at every event before the
        flag's own store, clwb and sfence — and the store shuts down and
        restarts normally afterwards."""
        from repro.core.rebalance import ROOT_SHUTDOWN
        from repro.pmem.faults import DEFAULT_POLICY, PERSIST_REORDER, TORN_STORES

        faults = {"default": DEFAULT_POLICY, "torn": TORN_STORES, "reorder": PERSIST_REORDER}[policy]
        cfg = DGAPConfig(**BASE)
        first, second = random_edges(300, seed=14), random_edges(60, seed=15)
        ref = Model(first + second)
        seeds = itertools.count()  # the dry run's 0, then the crash point's own

        def shut_down_once(inj):
            g = DGAP(cfg, injector=inj, faults=faults.with_seed(next(seeds)))
            g.insert_edges(first)
            g.shutdown()
            g = DGAP.open(g.pool, cfg)
            g.insert_edges(second)
            return g

        # the second shutdown reuses the first one's bytes
        g = shut_down_once(None)
        where = {n: g.pool.get_array(n).offset for n in g.pool.names("meta.")}
        cursor = g.pool.allocator.cursor
        g.shutdown()
        assert len(where) == 8 and g.pool.allocator.cursor == cursor
        assert {n: g.pool.get_array(n).offset for n in where} == where
        ref.admits(model.of(DGAP.open(g.pool, cfg)))

        seeds = itertools.count()
        flags = []
        for k, g, crash in crash_points(shut_down_once, DGAP.shutdown):
            assert crash is not None
            flags.append(g.pool.read_root(ROOT_SHUTDOWN))
            g2 = reopen(g)
            ref.admits(model.of(g2))
            g2.shutdown()  # whichever meta.* names the crash left registered
            ref.admits(model.of(DGAP.open(g2.pool, cfg)))
        # Until the flag's own store / clwb / sfence the pool reads "crashed".
        # A flushed flag is in the power-fail domain (ADR) at the final
        # sfence; only a torn store or a reordered flush lands it earlier.
        assert not any(flags[:-3])
        if policy == "default":
            assert flags[-3:] == [0, 0, 1]

    def test_shutdown_open_cycles_do_not_consume_the_pool(self):
        """A store that is only ever shut down and reopened: the previous
        shutdown's ``meta.*`` regions are freed and their bytes reused, so
        the allocator's high-water mark stays where the first cycle put it
        (the parent ran out of PM after several hundred cycles)."""
        g = DGAP(DGAPConfig(init_vertices=64, init_edges=1500))
        g.insert_edges(np.random.default_rng(0).integers(0, 64, size=(1500, 2)))
        marks = set()
        for _ in range(1000):
            g.shutdown()
            g = DGAP.open(g.pool, g.config)
            marks.add(g.pool.allocator.cursor)
        assert len(marks) == 1
        assert g.num_edges == 1500 and len(g.pool.names("meta.")) == 8

    def test_pm_vertex_array_keeps_one_generation(self):
        """Every grow of the PM-resident vertex array (and every reopen)
        frees the mirror it replaces: one ``vertexarr.*`` generation is
        registered, and the outgrown ones' bytes are allocatable again."""
        cfg = DGAPConfig(init_vertices=4, init_edges=256, segment_slots=64, dram_placement=False)
        g = DGAP(cfg)
        grows = 0
        for v in (20, 40, 90, 200):
            before = g.va._gen
            g.insert_edge(1, v)
            grows += g.va._gen - before
            gen = g.va._gen
            assert sorted(g.pool.names("vertexarr.")) == sorted(
                f"vertexarr.{f}.g{gen}" for f in ("degree", "start", "el"))
            for f, r in g.va._regions.items():
                np.testing.assert_array_equal(r.view, getattr(g.va, f))
        assert grows >= 4
        freed = sum(size for _, size in g.pool.allocator._free)
        assert freed >= 3 * 8 * 16  # at least the first mirror's three fields
        for crash in (True, False):
            g.pool.crash() if crash else g.shutdown()
            g = DGAP.open(g.pool, cfg)
            assert sorted(g.pool.names("vertexarr.")) == [
                "vertexarr.degree.g0", "vertexarr.el.g0", "vertexarr.start.g0"]
            assert g.out_neighbors(1).tolist() == [20, 40, 90, 200]

    def test_shutdown_flag_unfenced_under_persist_reorder(self):
        """Same boundary under the persist-reorder policy: the flushed
        flag line may or may not hit media at the crash; either way the
        reopened graph must equal the pre-crash one."""
        from repro.core.rebalance import ROOT_SHUTDOWN
        from repro.pmem.faults import PERSIST_REORDER

        cfg = DGAPConfig(**BASE)
        edges = random_edges(300, seed=13)
        seeds = iter([0, 0, 1, 2, 3])  # the dry run, then four coins

        def loaded(inj):
            g = DGAP(cfg, injector=inj, faults=PERSIST_REORDER.with_seed(next(seeds)))
            g.insert_edges(edges)
            return g

        seen_flags = set()
        # the final sfence, four times: the flag's flush is pending
        for _, g, crash in crash_points(loaded, DGAP.shutdown, lambda total: [total] * 4):
            assert crash is not None
            seen_flags.add(g.pool.read_root(ROOT_SHUTDOWN))
            g2 = DGAP.open(g.pool, cfg)
            assert g2.num_edges == 300
            Model(edges).admits(model.of(g2))
        # across seeds the coin lands both ways: the flag persisted on
        # some runs (fast restart) and was dropped on others (crash path)
        assert seen_flags == {0, 1}

    def test_eadr_platform_crash(self):
        """§2.1.3: DGAP works on eADR too — caches survive power loss."""
        from repro.pmem.latency import OPTANE_EADR

        cfg = DGAPConfig(**BASE)
        g = DGAP(cfg, pool=PMemPool(1 << 20, profile=OPTANE_EADR))
        edges = random_edges(800, seed=11)
        g.insert_edges(edges)
        g2 = reopen(g, crash=True)
        assert g2.num_edges == 800
