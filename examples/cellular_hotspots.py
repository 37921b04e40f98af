#!/usr/bin/env python3
"""Streaming cellular-network analytics — the paper's motivating workload.

The introduction cites CellIQ-style operators who must "address traffic
hotspots in their networks as they are generated and identified": a
dynamic graph framework has to persist a continuous stream of events
AND run analysis on the *latest* graph, simultaneously.

This example simulates a cellular handoff graph: vertices are cells,
an edge (a -> b) is a device handoff between cells.  Handoffs stream in
windows; after each window we snapshot the live graph and detect
hotspots (PageRank over the handoff graph) and coverage islands
(connected components) — while the next window keeps inserting, exactly
the overlap the Degree Cache makes safe.  Between windows, dashboards
ask point questions of the same live graph through the serving layer.

Run:  python examples/cellular_hotspots.py
"""

import numpy as np

from repro import DGAP, DGAPConfig
from repro.algorithms import connected_components, pagerank
from repro.analysis.view import CSRArraysView
from repro.datasets import rmat_edges, shuffle_edges
from repro.serve import ServeWorkloadConfig, generate_workload, run_serve_workload

N_CELLS = 600
N_WINDOWS = 6
EVENTS_PER_WINDOW = 4_000


def handoff_stream(window: int) -> np.ndarray:
    """One monitoring window of handoff events; skew drifts over time so
    the hotspot moves (R-MAT seeds rotate the hub neighborhood)."""
    edges = rmat_edges(N_CELLS, EVENTS_PER_WINDOW, a=0.6, seed=100 + window)
    return shuffle_edges(edges, seed=window)


def main() -> None:
    g = DGAP(DGAPConfig(
        init_vertices=N_CELLS,
        init_edges=N_WINDOWS * EVENTS_PER_WINDOW,
    ))

    previous_hot: set[int] = set()
    for window in range(N_WINDOWS):
        events = handoff_stream(window)
        g.insert_edges(map(tuple, events))

        # Analysis on a consistent snapshot of the latest graph; the next
        # window's inserts (in a real deployment, a concurrent writer
        # thread) never leak into this task's view.
        with g.consistent_view() as snap:
            view = CSRArraysView(*snap.to_csr())
            ranks = pagerank(view, iterations=20)
            comps = connected_components(view)

        hot = set(np.argsort(ranks)[-5:].tolist())
        n_islands = len(set(comps.tolist()))
        emerging = sorted(hot - previous_hot)
        print(
            f"window {window}: {snap.num_edges:6d} handoffs total | "
            f"hot cells {sorted(hot)} | new hotspots {emerging or '-'} | "
            f"{n_islands} coverage component(s)"
        )
        previous_hot = hot

    # Dashboards: a Zipfian mix of point reads (a cell's handoff count,
    # its neighbours, the busiest cells) beside a trickle of handoff
    # batches.  Reads share one epoch view until a write moves it; the
    # twin check answers every read again from a fresh snapshot.
    cfg = ServeWorkloadConfig(n_ops=200, read_fraction=0.95, seed=7)
    report = run_serve_workload(g, generate_workload(N_CELLS, cfg), cfg, twin_check=True)
    assert report.identity_ok
    print(
        f"dashboards: {report.reads} reads beside {report.writes} handoff batches, "
        f"{report.reuse_ratio:.0%} from a reused view, "
        f"{report.modeled_read_speedup:.1f}x cheaper than a snapshot per read (modeled); "
        f"neighbours p99 {report.stats()['neighbors']['p99_us']:.1f} us"
    )

    print(
        f"\nstreamed {g.num_edges} events; "
        f"{g.n_rebalances} rebalances, {g.n_resizes} resizes, "
        f"modeled PM time {g.pool.stats.modeled_seconds * 1e3:.1f} ms "
        f"({g.num_edges / max(g.pool.stats.modeled_seconds, 1e-12) / 1e6:.2f} MEPS)"
    )

    # Operators restart collectors all the time: a graceful shutdown
    # persists everything and the next session resumes instantly.
    g.shutdown()
    g2 = DGAP.open(g.pool, g.config)
    assert g2.num_edges == g.num_edges
    print("collector restarted from persistent memory — no re-ingestion needed")


if __name__ == "__main__":
    main()
