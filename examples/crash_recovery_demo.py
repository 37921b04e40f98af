#!/usr/bin/env python3
"""Crash-consistency demo: power-fail DGAP mid-rebalance and recover.

Arms the crash injector to cut power at a persistence event *inside* a
PMA rebalancing operation (the riskiest moment: data is being moved and
a per-thread undo log is protecting it — paper §3.1.4 / Fig. 4), then
reopens the pool and shows that recovery:

* detects the crash via the NORMAL_SHUTDOWN flag,
* restores the half-moved window from the undo log,
* rebuilds the DRAM vertex array from the pivots,
* replays the edge logs,

and that every acknowledged edge survived, in order.

A second leg plants an uncorrectable media error (a poisoned XPLine)
under a live row of the recovered graph, runs the scrubber, keeps
inserting through the guarded write path, and prints the damage report
— including the byte ranges whose repair is not byte-exact.

Run:  python examples/crash_recovery_demo.py
"""

import random

import numpy as np

from repro import DGAP, DGAPConfig, SimulatedCrash
from repro.pmem import XPLINE, CrashInjector
from repro.resilience import ResilienceManager


def main() -> None:
    random.seed(7)
    cfg = DGAPConfig(init_vertices=64, init_edges=2048, segment_slots=64, elog_size=256)
    edges = [(random.randrange(64), random.randrange(64)) for _ in range(6000)]

    # Dry run to find a crash point that lands inside a rebalance.
    probe = DGAP(cfg)
    events_before = probe.pool.device.injector.total_events
    probe.insert_edges(edges)
    print(f"dry run: {probe.n_rebalances} rebalances over "
          f"{probe.pool.device.injector.total_events - events_before} persistence events")

    # Real run: arm the injector somewhere in the middle of the stream.
    inj = CrashInjector()
    g = DGAP(cfg, injector=inj)
    inj.arm(probe.pool.device.injector.total_events // 2)

    acked = []
    try:
        for u, w in edges:
            g.insert_edge(u, w)
            acked.append((u, w))
    except SimulatedCrash as crash:
        print(f"\npower failure injected: {crash}")
        print(f"  acknowledged edges at crash: {len(acked)}")
        print(f"  unflushed cache lines lost:  {g.pool.device.dirty_lines} (reverted)")
    inj.disarm()

    # Reopen: DGAP sees NORMAL_SHUTDOWN == 0 and runs crash recovery.
    before = g.pool.stats.snapshot()
    g2 = DGAP.open(g.pool, cfg)
    recovery_ms = g.pool.stats.delta_since(before).modeled_ns * 1e-6
    print(f"\nrecovered in {recovery_ms:.3f} modeled ms "
          f"(edge-array pivot scan + undo/edge-log replay)")

    # Verify: every acknowledged edge is present, per-vertex order intact.
    want = {}
    for u, w in acked:
        want.setdefault(u, []).append(w)
    extra = 0
    with g2.consistent_view() as snap:
        for v in range(g2.num_vertices):
            got = list(snap.out_neighbors(v))
            expect = want.get(v, [])
            assert got[: len(expect)] == expect, f"vertex {v} lost acknowledged edges!"
            extra += len(got) - len(expect)
    print(f"all {len(acked)} acknowledged edges intact and ordered "
          f"({extra} in-flight edge(s) also persisted — allowed)")

    # The recovered instance is fully operational.
    g2.insert_edge(1, 2)
    print(f"recovered graph accepts new inserts; live edges: {g2.num_edges}")

    # Media fault: an uncorrectable XPLine under the longest array run.
    # The scrub repairs what redundancy allows (pivots from the DRAM
    # vertex array) and drops the run slots it cannot read; the guarded
    # insert repairs and retries through any fault it meets.
    v = int(np.argmax(g2.va.array_degree))
    g2.pool.device.poison(g2.ea.region.offset + int(g2.va.start[v]) * g2.ea.slots.itemsize, XPLINE)
    mgr = ResilienceManager(g2)
    mgr.full_scrub()
    mgr.guarded_insert_edge(v, 3)
    assert 3 in g2.out_neighbors(v)
    g2.check_invariants()
    report = mgr.damage_report()
    print(f"\nmedia fault repaired: {report.summary()}")
    print(f"  vertex {v} keeps taking inserts; live edges: {g2.num_edges}")
    print(f"  ranges not byte-exact to a fault-free twin: {report.inexact_ranges()}")


if __name__ == "__main__":
    main()
