"""ResilienceManager: quarantine, repair taxonomy, health, degraded mode.

Each test plants poison (or runtime fault policy) against a live DGAP
instance and checks the repair's contract from the table in
``repro/resilience/scrub.py``: EXACT repairs restore the damaged bytes
bit-for-bit, SCRUBBED repairs clear dead content, LOSSY repairs
enumerate every lost edge per vertex and leave the structure
consistent, and health only ever worsens.
"""

import copy
import functools
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.errors import MediaError, ReadOnlyGraphError, RecoveryError
from repro.obs import Tracer, tracing
from repro.pmem.constants import CACHE_LINE, XPLINE
from repro.pmem.crash import CrashInjector
from repro.pmem.faults import DEFAULT_POLICY, PERSIST_REORDER, TORN_STORES, FaultPolicy
from repro.resilience import (
    DamageReport,
    HealthState,
    QuarantineEntry,
    QuarantineRegistry,
    RepairOutcome,
    ResilienceManager,
)
from repro.resilience.quarantine import OUTCOME_HEALTH
from .harness import model
from .harness.crashsweep import crash_points
from .harness.readpath_ref import scalar_readpath
from .harness.soaksweep import SoakConfig, soak_sweep

from .stores import make_store
from .test_log_streaming import grown_graph
from .test_recovery_internals import POISON_CASES, plant_poison

CFG = dict(init_vertices=512, init_edges=4096, segment_slots=64, elog_size=96)


def hot_graph(n=60, **over):
    """Graph with vertex 0 holding both array edges and a live log chain."""
    g = make_store(**{**CFG, **over})
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
        mgr = ResilienceManager(make_store(**CFG))
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

    def test_segocc_exact_when_live_scrubbed_when_dead(self):
        g = hot_graph(dram_placement=False)
        dev = g.pool.device
        lo, hi = region_bounds(g, "segocc.g0")
        before = bytes(dev.buf[lo:hi])
        plant_poison(g, lo, hi - lo)
        mgr = ResilienceManager(g)
        live = mgr.full_scrub()
        assert [(e.kind, e.outcome) for e in live] == [("pma-metadata", RepairOutcome.EXACT)]
        assert bytes(dev.buf[lo:hi]) == before  # rewritten from DRAM seg_occ
        g.rebalancer.resize()  # generation 1: segocc.g0 was freed with its generation
        plant_poison(g, lo, hi - lo)
        dead = mgr.full_scrub()
        assert [(e.kind, e.outcome) for e in dead] == [("unallocated", RepairOutcome.SCRUBBED)]
        assert not dev.buf[lo:hi].any()
        assert not dev.poisoned_ranges() and mgr.health is HealthState.HEALTHY

    def test_idle_pmdk_journal_scrubbed(self):
        g = hot_graph(use_undo_log=False)  # rewrites commit through the PMDK tx
        lo, _ = region_bounds(g, "pmdk-journal.g0")
        plant_poison(g, lo + XPLINE, XPLINE)
        mgr = ResilienceManager(g)
        entries = mgr.full_scrub()
        assert [(e.kind, e.outcome) for e in entries] == [("journal", RepairOutcome.SCRUBBED)]
        assert not g.pool.device.poisoned_ranges() and mgr.health is HealthState.HEALTHY
        g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)  # the journal still works
        g.check_invariants()

    def test_pool_header_rebuilt_from_the_one_root_list(self):
        """Every root the constructor writes comes back — the repair
        iterates ``DGAP.geometry_roots``, as the constructor does."""
        g = hot_graph()
        g.rebalancer.resize()  # the header is not the constructor's any more
        dev = g.pool.device
        header = slice(0, CACHE_LINE * 10)  # magic, 64 root slots, allocator cursor
        before = dev.buf[header].copy()
        dev.poison(0, CACHE_LINE * 10)
        entries = ResilienceManager(g).full_scrub()
        assert {(e.kind, e.outcome) for e in entries} == {("pool-metadata", RepairOutcome.SCRUBBED)}
        np.testing.assert_array_equal(dev.buf[header], before)
        assert set(g.geometry_roots()) == {0, 1, 2, 4, 5, 6}  # slot 3 is unused

    def test_edge_array_lossy_repair(self):
        g = hot_graph()
        deg0 = int(g.va.degree[0])
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
        assert int(g.va.array_degree[0]) == int(g.va.degree[0])  # chain merged by the same rewrite
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
        g = make_store(**CFG)
        mgr = ResilienceManager(g, patrol_bytes=g.pool.device.size)
        mgr.scrub()
        assert mgr._patrol_cursor == 0  # wrapped to the start


class TestGuardedOperation:
    def test_guarded_insert_equals_plain_insert_when_clean(self):
        ga, gb = make_store(**CFG), make_store(**CFG)
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

    def test_analyze_releases_its_snapshot(self):
        """A guarded analysis must not pin the store: compaction and
        shutdown refuse to run under an open snapshot."""
        g = make_store(**CFG)
        mgr = ResilienceManager(g)
        for d in range(3):
            mgr.guarded_insert_edge(0, d)
        mgr.analyze(lambda snap: int(snap.to_csr()[1].size))
        g.compact()
        g.shutdown()
        assert rows(DGAP.open(g.pool, g.config)) == {0: [0, 1, 2]}

    def test_soak_subject_shuts_down_after_its_analysis_rounds(self):
        made = []

        def factory(injector, faults):
            made.append(make_store(injector=injector, faults=faults, **CFG))
            return made[-1]

        ops = [("insert", i % 4, i % 16) for i in range(60)]
        rep = soak_sweep(factory, ops, SoakConfig(faults=DEFAULT_POLICY, rounds=2))
        assert all(r.analyzed for r in rep.rounds)
        made[0].shutdown()  # the subject: no round's snapshot is still open

    def test_guarded_ingest_survives_runtime_faults(self):
        """End-to-end mini-soak: hot ingest under spontaneous decay; every
        insert either lands, or its loss is enumerated in the report."""
        pol = FaultPolicy(read_poison_rate=0.02, seed=2)
        g = make_store(faults=pol, **{**CFG, "init_vertices": 16, "init_edges": 512})
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
        live_regions = (g.ea.region.name, g.logs.region.name)
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


# ----------------------------------------------------------------------
# lossy repair: its contract, and a power failure at every step of it
# ----------------------------------------------------------------------
def rows(g):
    """``{vertex: live neighbor sequence}`` of the non-empty rows."""
    with g.consistent_view() as snap:
        indptr, dst = snap.to_csr()
    return {
        v: dst[indptr[v] : indptr[v + 1]].tolist()
        for v in np.flatnonzero(np.diff(indptr)).tolist()
    }


def chain_log_off(g, v):
    """Device offset of the section log holding ``v``'s live chain."""
    logs = g.logs
    sec = g.ea.section_of(int(g.va.start[v]) - 1)
    return logs.region.byte_offset(sec * logs.entries_per_section * 3)


def hub(damage, faults=None, **over):
    """One vertex whose 300-edge run spans five sections; ``damage`` names
    what the returned XPLine offsets hit: the run's second XPLine
    (``array`` — alone, on the all-array run a root rebalance leaves: the
    geometry whose in-place repair a crash turned into duplicated edges)
    and / or the log holding its live chain (``log``)."""
    cfg = dict(CFG, pool_bytes=1 << 20)  # a third of the default: cheap to copy per crash point
    g = make_store(injector=CrashInjector(), faults=faults, **{**cfg, **over})
    for i in range(300):
        g.insert_edge(0, i)
    hits = []
    if "log" in damage:
        while g.va.degree[0] - g.va.array_degree[0] < 5:
            g.insert_edge(0, int(g.va.degree[0]))
        hits.append(chain_log_off(g, 0))
    else:
        g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)
        assert int(g.va.array_degree[0]) == 300
    if "array" in damage:
        hits.append((g.ea.byte_off(int(g.va.start[0])) // XPLINE + 1) * XPLINE)
    g.pool.device.drain_all()
    return g, hits


def three_hubs(damage, faults=None, **over):
    """Three hubs between idle vertices, each with a live chain and rows
    that repeat destinations; ``array`` hits the XPLine holding hub 3's
    pivot (its neighbor's too) and run head, ``log`` hub 5's chain."""
    cfg = dict(init_vertices=8, init_edges=512, segment_slots=64, elog_size=96)
    g = make_store(injector=CrashInjector(), faults=faults, **{**cfg, **over})
    hubs = np.array([1, 3, 5])
    i = 0
    while i < 150 or (g.va.degree[hubs] - g.va.array_degree[hubs]).min() < 2:
        for v in hubs.tolist():
            g.insert_edge(v, (v * i) % 97)
        i += 1
    hits = []
    if "array" in damage:
        hits.append(g.ea.byte_off(int(g.va.start[3]) - 1) // XPLINE * XPLINE)
    if "log" in damage:
        hits.append(chain_log_off(g, 5))
    g.pool.device.drain_all()
    return g, hits


def check_repair_contract(g, hits):
    """Scrub ``hits`` off a live graph and hold the lossy repair to its
    contract: exactly the enumerated edges are gone, per vertex; what
    survives keeps its order; the structure, and the DRAM bookkeeping an
    independent recovery of the repaired image rebuilds, are consistent;
    the degraded store keeps ingesting."""
    want = rows(g)
    for off in hits:
        g.pool.device.poison(off, XPLINE)
    mgr = ResilienceManager(g)
    mgr.full_scrub()
    rep = mgr.damage_report()
    lost = Counter()
    for e in rep.entries:
        lost.update(dict(e.lost_by_vertex))
    assert rep.lost_edges == sum(lost.values()) > 0
    assert mgr.health is HealthState.DEGRADED
    assert not g.pool.device.poisoned_ranges()

    got = rows(g)
    assert set(got) <= set(want)
    for v, row in want.items():
        kept = got.get(v, [])
        assert len(row) - len(kept) == lost[v], f"vertex {v}: loss not as enumerated"
        it = iter(row)
        assert all(d in it for d in kept), f"vertex {v}: survivors out of order"
        assert g.out_degree(v) == len(kept)
    g.check_invariants()

    g.pool.device.drain_all()
    twin = DGAP.open(copy.deepcopy(g.pool), g.config)
    nv = g.num_vertices
    for f in DGAP._META_FIELDS:
        np.testing.assert_array_equal(getattr(twin.va, f)[:nv], getattr(g.va, f)[:nv], err_msg=f)
    np.testing.assert_array_equal(twin.logs.counts, g.logs.counts)
    np.testing.assert_array_equal(twin.logs.live_counts, g.logs.live_counts)
    np.testing.assert_array_equal(twin.ea.seg_occ, g.ea.seg_occ)

    v = next(iter(lost))
    mgr.guarded_insert_edge(v, v)
    assert rows(g)[v] == got.get(v, []) + [v]
    return rep


class TestLossyRepairContract:
    @pytest.mark.parametrize("build", [hub, three_hubs])
    @pytest.mark.parametrize(
        "damage, over, readpath",
        [
            ("array", {}, nullcontext),
            ("log", {}, nullcontext),
            ("array+log", {}, nullcontext),  # one vertex loses to both in one pass
            ("array+log", dict(use_undo_log=False), nullcontext),  # commit through the PMDK tx
            ("array+log", dict(dram_placement=False), nullcontext),  # PM-resident vertex array
            ("array+log", {}, scalar_readpath),  # the reference gather
        ],
        ids=["array", "log", "both", "pmdk-tx", "pm-placement", "scalar"],
    )
    def test_contract(self, build, damage, over, readpath):
        with readpath():
            g, hits = build(damage, **over)
            rep = check_repair_contract(g, hits)
        kinds = {e.kind for e in rep.entries if e.outcome is RepairOutcome.LOSSY}
        assert kinds == {{"array": "edge-array", "log": "edge-log"}[d] for d in damage.split("+")}

    def test_two_holes_in_one_run_are_one_rewrite(self):
        """The window extends to the whole run, so the second damaged
        section is already repaired when its turn comes."""
        g, hits = hub("array")
        windows = g.n_rebalances
        rep = check_repair_contract(g, [hits[0], hits[0] + 2 * XPLINE])
        assert rep.lost_edges == 128 and g.n_rebalances == windows + 1

    def test_repair_too_big_for_the_array_resizes_filtered(self):
        """A chain that outgrew the array escalates the repair to a
        resize, which applies the lost-slot filter (and the lossy gather)
        itself: no unfiltered gather runs between zeroing and commit."""
        cfg = DGAPConfig(init_vertices=4, init_edges=64, segment_slots=64, elog_size=2048)
        g = DGAP(cfg, injector=CrashInjector())
        for i in range(160):
            g.insert_edge(1, i % 4)
        assert g.ea.gen == 0 and int(g.va.degree[1]) > g.ea.capacity
        g.pool.device.drain_all()
        check_repair_contract(g, [chain_log_off(g, 1)])
        assert g.ea.gen == 1

    def test_spent_log_slots_are_scrubbed_not_lossy(self):
        """Damage below the cursor that hits only merged (invalidated)
        entries loses nothing: zeroed, cursor as a rebuild would find it,
        no rewrite."""
        g = grown_graph(864)
        g.rebalancer.rebalance_window(10, 11, 0)  # section 9 is a boundary: entries invalidated
        assert g.logs.counts[9] == 5 and g.logs.live_counts[9] == 0
        g.pool.device.drain_all()
        before, windows = rows(g), g.n_rebalances
        plant_poison(g, g.logs.region.byte_offset(g.logs.gidx(9, 0) * 3), CACHE_LINE)
        mgr = ResilienceManager(g)
        entries = mgr.full_scrub()
        assert [(e.kind, e.outcome) for e in entries] == [("edge-log", RepairOutcome.SCRUBBED)]
        assert mgr.health is HealthState.HEALTHY and g.n_rebalances == windows
        assert rows(g) == before
        model.assert_structure(g)  # cursors match a rebuild

    def test_tombstones_keep_their_worth(self):
        """``live_degree`` of a row that shrank is recounted — lives minus
        tombstones of what survived — not carried over."""
        g, hits = hub("array")
        for d in (70, 200, 250, 299):  # 70 falls in the XPLine that dies
            g.delete_edge(0, d)
        g.pool.device.drain_all()
        for off in hits:
            g.pool.device.poison(off, XPLINE)
        ResilienceManager(g).full_scrub()
        g.pool.device.drain_all()
        twin = DGAP.open(copy.deepcopy(g.pool), g.config)
        assert int(g.va.live_degree[0]) == int(twin.va.live_degree[0])
        assert g.out_degree(0) == int(g.va.degree[0]) - 2 * 4  # tombstones sit in the log / run tail


class TestCrashDuringRepair:
    """A power failure at every persistence event of a lossy repair.

    The repair is a window rewrite under the undo-log protocol, so a
    crashed one reopens either refused (poison still on media — nothing
    was cleared yet) or as a sub-multiset of the pre-damage adjacency
    with the invariants clean: recovery cuts a run at the hole the
    scrubber left, a chain at its first missing entry.  The in-place
    compaction this replaced reopened, at reorder seeds 45 and 56 of the
    ``hub`` geometry, with the old tail of the run behind the new one.
    """

    @pytest.mark.parametrize("build", [hub, three_hubs])
    @pytest.mark.parametrize("damage", ["array", "log"])
    @pytest.mark.parametrize(
        "faults, seeds",
        [(DEFAULT_POLICY, (0,)), (TORN_STORES, (0,)), (PERSIST_REORDER, (45, 56))],
        ids=["default", "torn", "reorder"],
    )
    def test_every_crash_point_reopens_sound(self, build, damage, faults, seeds):
        base, hits = build(damage, faults)
        want = {v: Counter(row) for v, row in rows(base).items()}

        def damaged(inj, seed=0):
            pool = copy.deepcopy(base.pool)
            pool.device.injector, pool.device.faults = inj, faults.with_seed(seed)
            g = DGAP.open(pool, base.config)
            for off in hits:
                pool.device.poison(off, XPLINE)
            return g

        def scrub(g):
            ResilienceManager(g).full_scrub()
            assert g.health is HealthState.DEGRADED  # the repair swept is a lossy one

        for seed in seeds:
            for k, g, crash in crash_points(functools.partial(damaged, seed=seed), scrub):
                assert crash is not None
                try:
                    g2 = DGAP.open(g.pool, g.config)
                except (RecoveryError, MediaError):
                    assert g.pool.device.poisoned_ranges(), f"seed {seed} event {k}: refused a clean image"
                    continue
                for v, row in rows(g2).items():
                    extra = Counter(row) - want.get(v, Counter())
                    assert not extra, (
                        f"seed {seed} event {k}: vertex {v} reopened with "
                        f"duplicated or phantom edges {dict(extra)}"
                    )
                g2.check_invariants()
