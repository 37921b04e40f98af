"""Soak-sweep driver tests: the no-silent-corruption oracle end to end.

Small soaks must pass all three oracle legs (fault-free counter
identity, healthy byte identity, lossy containment-with-shortfall),
and the oracle must actually *reject* a subject that silently diverges
from its fault-free twin.
"""

import pytest

from repro.datasets import get_dataset
from repro.pmem.faults import DEFAULT_POLICY, FaultPolicy
from repro.resilience import HealthState
from .harness.crashsweep import make_insert_workload
from .harness.model import Mismatch
from .harness.soaksweep import SoakConfig, soak_sweep

from .stores import factory, make_store

CFG = dict(init_vertices=16, init_edges=512, segment_slots=64, elog_size=96)


def hot_ops(n):
    """Insert-only stream skewed onto few vertices so runs overflow into
    the log and rebalances (= accounted bulk reads) actually happen."""
    return [("insert", i % 4, (7 * i) % 64) for i in range(n)]


class TestWorkloadValidation:
    def test_rejects_deletes(self):
        with pytest.raises(ValueError, match="insert-only"):
            soak_sweep(factory(**CFG), [("delete", 0, 1)], SoakConfig())

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            soak_sweep(factory(**CFG), hot_ops(10), SoakConfig(rounds=0))


class TestFaultFreeIdentity:
    def test_managed_run_is_free_when_nothing_fails(self):
        rep = soak_sweep(
            factory(**CFG), hot_ops(300),
            SoakConfig(faults=DEFAULT_POLICY, rounds=2, scrub_every=20),
        )
        assert rep.transient_faults == rep.poison_events == 0
        assert rep.ops_applied == 300 and rep.ops_skipped == 0
        assert rep.health is HealthState.HEALTHY
        assert rep.byte_compared
        assert rep.report.n_quarantined == 0


class TestRuntimeSoak:
    def test_small_soak_survives_decay(self):
        pol = FaultPolicy(read_poison_rate=2e-3, transient_read_rate=5e-3, seed=1)
        rep = soak_sweep(
            factory(**CFG), hot_ops(600),
            SoakConfig(faults=pol, rounds=3, scrub_every=10,
                       patrol_bytes=32 * 1024),
        )
        assert rep.transient_faults + rep.poison_events > 0  # the soak actually injected faults
        assert rep.ops_applied + rep.ops_skipped == 600 or rep.read_only
        # Every round reports its health; the last one is the final state.
        assert rep.rounds[-1].health is rep.health

    @pytest.mark.parametrize("seed", range(10))
    def test_lossy_soak_enumerates_losses(self, seed):
        """At a hot poison rate most seeds see a repair go lossy; the
        oracle still passes because every lost edge is enumerated.  At
        the seeds that stay lossless (4 and 9) the byte compare against
        the fault-free twin runs — it caught ``guarded_insert_edge``
        dropping the merge a landed-but-faulted insert still owed."""
        pol = FaultPolicy(read_poison_rate=2e-2, seed=seed)
        rep = soak_sweep(
            factory(**CFG), hot_ops(600),
            SoakConfig(faults=pol, rounds=3, scrub_every=10,
                       patrol_bytes=32 * 1024),
        )
        assert rep.poison_events > 0
        assert rep.report.n_quarantined > 0
        if rep.lost_edges:
            assert rep.health in (HealthState.DEGRADED, HealthState.READ_ONLY)
            assert not rep.byte_compared

    def test_orkut_soak_survives_both_kinds(self):
        """3 000 edges of the orkut proxy in three rounds, a patrol step
        every 20 inserts, on a store sized for half the stream: at least
        50 faults fire, of both kinds, and every edge a repair lost is
        enumerated."""
        edges = get_dataset("orkut").generate(0.05)[:3000]
        pol = FaultPolicy(read_poison_rate=1e-3, transient_read_rate=1e-2, seed=0)
        rep = soak_sweep(
            factory(init_vertices=int(edges.max()) + 1, init_edges=1500),
            make_insert_workload(edges),
            SoakConfig(faults=pol, rounds=3, scrub_every=20),
        )
        assert rep.transient_faults > 0 and rep.poison_events > 0
        assert rep.transient_faults + rep.poison_events >= 50
        assert rep.lost_edges > 0 and rep.health is HealthState.DEGRADED


class TestOracleRejectsCorruption:
    def test_silently_dropped_insert_is_caught(self):
        """A subject that drops an edge with no MediaError and no
        DamageReport entry is exactly the silent corruption the oracle
        exists for."""
        calls = {"n": 0}

        def corrupt_factory(injector, faults):
            g = make_store(injector=injector, faults=faults, **CFG)
            calls["n"] += 1
            if calls["n"] == 1:  # the subject is built first
                orig = g.insert_edge

                def dropping(src, dst, thread_id=0):
                    if dst == 63:
                        return  # silently drop
                    return orig(src, dst, thread_id)

                g.insert_edge = dropping
            return g

        with pytest.raises(Mismatch):
            soak_sweep(
                corrupt_factory, hot_ops(300),
                SoakConfig(faults=DEFAULT_POLICY, rounds=2, scrub_every=50),
            )
