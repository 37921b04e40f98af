"""ResilienceManager: quarantine, repair taxonomy, health, degraded mode.

Each test plants poison (or runtime fault policy) against a live DGAP
instance and checks the repair's contract from the table in
``repro/resilience/scrub.py``: EXACT repairs restore the damaged bytes
bit-for-bit, SCRUBBED repairs clear dead content, LOSSY repairs
enumerate every lost edge per vertex and leave the structure
consistent, and health only ever worsens.
"""

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.errors import MediaError, ReadOnlyGraphError
from repro.obs import Tracer, tracing
from repro.pmem.constants import CACHE_LINE, XPLINE
from repro.pmem.faults import FaultPolicy
from repro.resilience import (
    DamageReport,
    HealthState,
    QuarantineEntry,
    QuarantineRegistry,
    RepairOutcome,
    ResilienceManager,
)
from repro.resilience.quarantine import OUTCOME_HEALTH

from .test_recovery_internals import POISON_CASES, plant_poison

CFG = dict(init_vertices=512, init_edges=4096, segment_slots=64, elog_size=96)


def make_graph(faults=None, **over):
    return DGAP(DGAPConfig(**{**CFG, **over}), faults=faults)


def hot_graph(n=60, **over):
    """Graph with vertex 0 holding both array edges and a live log chain."""
    g = make_graph(**over)
    for i in range(n):
        g.insert_edge(0, i)
    return g


def region_bounds(g, name):
    off, dt, cnt = g.pool._directory[name]
    return off, off + dt.itemsize * cnt


class TestHealthLadder:
    def test_worst_is_monotone(self):
        h, d, ro = HealthState.HEALTHY, HealthState.DEGRADED, HealthState.READ_ONLY
        assert h.rank < d.rank < ro.rank  # what ``_set_health`` compares

    def test_outcome_health_mapping(self):
        assert OUTCOME_HEALTH[RepairOutcome.EXACT] is HealthState.HEALTHY
        assert OUTCOME_HEALTH[RepairOutcome.SCRUBBED] is HealthState.HEALTHY
        assert OUTCOME_HEALTH[RepairOutcome.LOSSY] is HealthState.DEGRADED
        assert OUTCOME_HEALTH[RepairOutcome.UNRECOVERABLE] is HealthState.READ_ONLY

    def test_registry_worst_outcome(self):
        """The registry only collects; the worst rung its outcomes map to
        is the health the manager's ladder ends on."""
        reg = QuarantineRegistry()
        reg.add(QuarantineEntry(0, 64, "x", "edge-array", RepairOutcome.EXACT))
        reg.add(QuarantineEntry(64, 64, "x", "edge-array", RepairOutcome.LOSSY))
        worst = max((OUTCOME_HEALTH[e.outcome] for e in reg.entries), key=lambda h: h.rank)
        assert len(reg) == 2 and worst is HealthState.DEGRADED

    def test_manager_health_never_improves(self):
        mgr = ResilienceManager(make_graph())
        mgr._set_health(HealthState.DEGRADED)
        mgr._set_health(HealthState.HEALTHY)
        assert mgr.health is HealthState.DEGRADED
        assert mgr.graph.health is HealthState.DEGRADED


class TestDamageReportAPI:
    def test_aggregates_and_inexact_ranges(self):
        exact = QuarantineEntry(0, 64, "edges.g0", "edge-array", RepairOutcome.EXACT)
        lossy = QuarantineEntry(
            64, 64, "edges.g0", "edge-array", RepairOutcome.LOSSY,
            vertices=(3,), lost_edges=2, lost_by_vertex=((3, 2),),
        )
        rep = DamageReport(health=HealthState.DEGRADED, entries=(exact, lossy))
        assert rep.n_quarantined == 2
        assert rep.lost_edges == 2
        assert rep.damaged_vertices == (3,)
        assert rep.inexact_ranges() == ((64, 128),)  # EXACT is exempt
        assert "degraded" in rep.summary() and "lossy=1" in rep.summary()


class TestScrubRepairs:
    def test_clean_graph_scrubs_to_nothing(self):
        mgr = ResilienceManager(hot_graph())
        assert mgr.full_scrub() == []
        assert mgr.health is HealthState.HEALTHY
        assert mgr.damage_report().n_quarantined == 0

    def test_vertexarr_exact_repair(self):
        g = hot_graph(dram_placement=False)
        lo, hi = region_bounds(g, f"vertexarr.degree.g{g.ea.gen}")
        xp = (lo // XPLINE + 1) * XPLINE
        assert xp + XPLINE <= hi
        before = bytes(g.pool.device.buf[xp : xp + XPLINE])
        g.pool.device.poison(xp, XPLINE)
        mgr = ResilienceManager(g)
        entries = mgr.full_scrub()
        assert entries and all(e.outcome is RepairOutcome.EXACT for e in entries)
        assert all(e.kind == "vertex-metadata" for e in entries)
        assert bytes(g.pool.device.buf[xp : xp + XPLINE]) == before
        assert not g.pool.device.poisoned_ranges()
        assert mgr.health is HealthState.HEALTHY

    def test_edge_array_lossy_repair(self):
        g = hot_graph()
        deg0 = int(g.va.degree[0])
        ad0 = int(g.va.array_degree[0])
        # Poison the XPLine holding vertex 0's pivot and run start.
        reg_off = g.ea.region.offset
        g.pool.device.poison(reg_off, XPLINE)
        mgr = ResilienceManager(g)
        entries = mgr.full_scrub()
        lossy = [e for e in entries if e.outcome is RepairOutcome.LOSSY]
        assert len(lossy) == 1 and lossy[0].kind == "edge-array"
        lost = dict(lossy[0].lost_by_vertex)
        assert lost and 0 in lost
        assert int(g.va.degree[0]) == deg0 - lost[0]
        assert int(g.va.array_degree[0]) == ad0 - lost[0]
        assert mgr.health is HealthState.DEGRADED
        assert not g.pool.device.poisoned_ranges()
        g.check_invariants()
        # The instance keeps ingesting and the new edge is readable.
        mgr.guarded_insert_edge(0, 999)
        assert 999 in [int(d) for d in g.out_neighbors(0)]

    def test_edge_log_lossy_repair(self):
        g = hot_graph()
        s0 = int(np.flatnonzero(g.logs.counts)[0])
        assert int(g.va.el[0]) >= 0  # vertex 0 has a live chain
        chain0 = int(g.va.degree[0]) - int(g.va.array_degree[0])
        assert chain0 > 0
        eps, reg = g.logs.entries_per_section, g.logs.region
        sec_off = reg.offset + s0 * eps * 3 * reg.itemsize
        g.pool.device.poison(sec_off, XPLINE)
        deg0 = int(g.va.degree[0])
        mgr = ResilienceManager(g)
        entries = mgr.full_scrub()
        lossy = [e for e in entries if e.outcome is RepairOutcome.LOSSY]
        assert len(lossy) == 1 and lossy[0].kind == "edge-log"
        lost = dict(lossy[0].lost_by_vertex)
        assert lost.get(0) == chain0  # the whole section (and chain) died
        assert int(g.va.degree[0]) == deg0 - chain0
        assert mgr.health is HealthState.DEGRADED
        g.check_invariants()
        mgr.guarded_insert_edge(0, 998)
        assert 998 in [int(d) for d in g.out_neighbors(0)]

    def test_idle_ulog_scrubbed(self):
        g = hot_graph()
        lo, hi = region_bounds(g, "ulog.pay.t3")
        xp = (lo // XPLINE + 1) * XPLINE
        assert xp + XPLINE <= hi
        g.pool.device.poison(xp, XPLINE)
        mgr = ResilienceManager(g)
        entries = mgr.full_scrub()
        assert entries and all(e.outcome is RepairOutcome.SCRUBBED for e in entries)
        assert all(e.kind == "undo-log" for e in entries)
        assert mgr.health is HealthState.HEALTHY
        assert not g.pool.device.poisoned_ranges()

    def test_straddling_line_fully_repaired(self):
        """A poisoned line across a region boundary is repaired by two
        partial writes; the manager must still leave the ECC line clean."""
        g = hot_graph()
        lo, hi = region_bounds(g, "ulog.hdr.t0")
        assert hi % CACHE_LINE != 0  # the boundary splits a cache line
        xp = (hi // XPLINE) * XPLINE
        g.pool.device.poison(xp, XPLINE)
        mgr = ResilienceManager(g)
        entries = mgr.full_scrub()
        # The range split into at least two region parts...
        assert len(entries) >= 2
        assert {e.region for e in entries} >= {"ulog.hdr.t0"}
        # ...and no latent poison survives the repair.
        assert not g.pool.device.poisoned_ranges()
        assert mgr.health is HealthState.HEALTHY

    def test_patrol_scrub_reaches_planted_poison(self):
        g = hot_graph()
        target = 8192  # inside the edge region, beyond the first windows
        g.pool.device.poison(target, 1)
        mgr = ResilienceManager(g, patrol_bytes=4096)
        tracer = Tracer(g.pool.stats)
        with tracing(tracer):
            assert mgr.scrub() == []  # window [0, 4096)
            assert mgr.scrub() == []  # window [4096, 8192)
            entries = mgr.scrub()     # window [8192, 12288) covers the plant
        assert entries
        assert not g.pool.device.poisoned_ranges()
        # the patrol reads are charged, and attributed to their spans
        spans = tracer.find("scrub")
        assert [s.self_delta().seq_read_bytes for s in spans] == [4096] * 3
        assert all(s.self_delta().modeled_ns > 0 for s in spans)

    def test_patrol_cursor_wraps(self):
        g = make_graph()
        mgr = ResilienceManager(g, patrol_bytes=g.pool.device.size)
        mgr.scrub()
        assert mgr._patrol_cursor == 0  # wrapped to the start


class TestGuardedOperation:
    def test_guarded_insert_equals_plain_insert_when_clean(self):
        ga, gb = make_graph(), make_graph()
        mgr = ResilienceManager(ga)
        for i in range(80):
            assert mgr.guarded_insert_edge(i % 5, i) == []
            gb.insert_edge(i % 5, i)
        for v in range(5):
            assert [int(d) for d in ga.out_neighbors(v)] == [
                int(d) for d in gb.out_neighbors(v)
            ]

    def test_read_only_refuses_writes_serves_reads(self):
        g = hot_graph()
        mgr = ResilienceManager(g)
        mgr._set_health(HealthState.READ_ONLY)
        with pytest.raises(ReadOnlyGraphError):
            mgr.guarded_insert_edge(0, 1)
        with pytest.raises(ReadOnlyGraphError):
            mgr.check_writable()
        # Analytics still answer, with the report attached.
        result, rep = mgr.analyze(lambda snap: int(snap.to_csr()[1].size))
        assert result == int(g.va.degree[: g.num_vertices].sum())
        assert rep.health is HealthState.READ_ONLY

    def test_degraded_analytics_return_damage_report(self):
        g = hot_graph()
        g.pool.device.poison(g.ea.region.offset, XPLINE)
        mgr = ResilienceManager(g)
        mgr.full_scrub()
        assert mgr.health is HealthState.DEGRADED
        result, rep = mgr.analyze(lambda snap: int(snap.to_csr()[1].size))
        assert rep.health is HealthState.DEGRADED
        assert rep.lost_edges > 0
        assert result == int(g.va.degree[: g.num_vertices].sum())

    def test_guarded_ingest_survives_runtime_faults(self):
        """End-to-end mini-soak: hot ingest under spontaneous decay; every
        insert either lands, or its loss is enumerated in the report."""
        pol = FaultPolicy(read_poison_rate=0.02, seed=2)
        g = make_graph(faults=pol, init_vertices=16, init_edges=512)
        mgr = ResilienceManager(g)
        applied = 0
        for i in range(400):
            try:
                mgr.guarded_insert_edge(i % 4, (7 * i) % 64)
            except ReadOnlyGraphError:
                break
            except MediaError:
                continue  # enumerated skip: provably never landed
            applied += 1
        rep = mgr.damage_report()
        assert len(mgr.registry) > 0  # faults actually fired
        with g.pool.device.suspend_runtime_faults():
            if mgr.health is not HealthState.READ_ONLY:
                g.check_invariants()
            total = int(g.va.degree[: g.num_vertices].sum())
        assert total == applied - rep.lost_edges


class TestRuntimeRepairVerdicts:
    """The crash-time verdict table (``tests/test_recovery_internals.py``)
    replayed against the runtime repair: both sides consult the same
    dead-state rule, so they agree on what may be zeroed and what is lost."""

    @pytest.mark.parametrize("case", POISON_CASES)
    def test_runtime_repair_verdict(self, case):
        build, verdict = POISON_CASES[case]
        g, (off, n) = build()
        g.pool.device.drain_all()
        plant_poison(g, off, n)
        live_regions = (f"edges.g{g.ea.gen}", f"elogs.g{g.ea.gen}")
        entries = ResilienceManager(g).full_scrub()
        assert entries
        outcomes = {e.outcome for e in entries}
        if verdict == "dead":
            assert outcomes == {RepairOutcome.SCRUBBED}
            assert not g.pool.device.buf[off : off + n].any()  # zeroed
            assert g.health is HealthState.HEALTHY
        elif verdict == "lost":
            assert RepairOutcome.UNRECOVERABLE in outcomes
            assert g.health is HealthState.READ_ONLY
        else:
            # live structures are never zeroed as dead state: DRAM
            # metadata (which a crash loses) repairs them structurally
            live = [e for e in entries if e.region in live_regions]
            assert live and all(e.kind in ("edge-array", "edge-log") for e in live)
            assert RepairOutcome.UNRECOVERABLE not in outcomes
            with g.pool.device.suspend_runtime_faults():
                g.check_invariants()
        if verdict != "lost":
            assert not g.pool.device.poisoned_ranges()
