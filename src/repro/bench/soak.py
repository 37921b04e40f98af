"""Runtime-fault soak: ingest -> scrub -> analyze rounds (PR 7 robustness).

Spontaneous poison and transient read faults fire while a capped stream
is ingested under PMA pressure; the no-silent-corruption oracle inside
:func:`~repro.testing.soak_sweep` compares against a fault-free twin.
The gate guards against a vacuous pass where no fault ever fired.
"""

from __future__ import annotations

from .harness import load_stream, make_store
from .reporting import soak_table


def run(
    dataset="orkut",
    scale=0.05,
    edges=8000,
    rounds=5,
    scrub_every=25,
    patrol_kib=64,
    poison_rate=1e-3,
    transient_rate=1e-2,
    min_fault_points=200,
    seed=0,
):
    from ..pmem.faults import FaultPolicy
    from ..testing import SoakConfig, make_insert_workload, soak_sweep

    stream = load_stream(dataset, scale)[1][:edges]
    nv = int(stream.max()) + 1 if stream.size else 1
    # A tight initial capacity keeps the PMA under pressure so the run
    # exercises log appends, merges, and rebalance windows — the demand
    # bulk-read paths where transient faults surface.
    soak = soak_sweep(
        lambda injector, fl: make_store(nv, max(len(stream) // 2, 256), 1, injector, fl),
        make_insert_workload(stream),
        SoakConfig(
            faults=FaultPolicy(
                read_poison_rate=poison_rate,
                transient_read_rate=transient_rate,
                seed=seed,
            ),
            rounds=rounds,
            scrub_every=scrub_every,
            patrol_bytes=patrol_kib * 1024,
        ),
    )
    title = f"soak sweep — {dataset} ({len(stream)} edges, {rounds} rounds, seed {seed})"
    return title, soak, min_fault_points


def report(result):
    title, soak, _ = result
    yield soak_table(soak, title=title)


def gates(result):
    _, soak, floor = result
    return [("fault points survived (raise rates or edges if short)",
             f">={floor}", soak.fault_points, soak.fault_points >= floor)]
