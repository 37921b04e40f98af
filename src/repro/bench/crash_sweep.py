"""Crash-consistency sweep with the recovery oracle (§3.1.4 robustness).

Replays a capped edge stream — per-edge ops, routed ``EdgeBatch``
dispatches (``batch_size``) or a windowed insert/expire/compact stream
(``expire_window >= 0``) — power-failing at every (or every sampled)
persistence event under the chosen fault policy; the oracle inside
:func:`~repro.testing.crash_sweep` raises on any unrecoverable state it
was not told to expect.
"""

from __future__ import annotations

from typing import Optional

from ..pmem import faults
from .harness import load_stream, make_store
from .reporting import crash_sweep_table

#: ``policy`` name -> the crash-time fault behaviour it sweeps under
SWEEP_POLICIES = {
    "default": faults.DEFAULT_POLICY,
    "torn": faults.TORN_STORES,
    "reorder": faults.PERSIST_REORDER,
    "adversarial": faults.ADVERSARIAL,
}


def run(
    dataset="orkut",
    scale=0.05,
    edges=120,
    shards=1,
    batch_size: Optional[int] = None,
    expire_window=-1,
    window_step=6,
    compact_every=3,
    policy="default",
    poison=0.0,
    transient_rate=0.0,
    points=200,
    exhaustive_threshold=1000,
    seed=0,
):
    from ..testing import (
        SweepConfig,
        crash_sweep,
        make_batched_insert_workload,
        make_insert_workload,
        make_windowed_workload,
    )

    base = SWEEP_POLICIES[policy]
    stream = load_stream(dataset, scale)[1][:edges]
    nv = max(int(stream.max()) + 1 if stream.size else 1, shards)

    if expire_window >= 0:
        workload = make_windowed_workload(
            stream, window=expire_window, step=window_step, compact_every=compact_every,
        )
    elif batch_size:
        workload = make_batched_insert_workload(stream, batch_size=batch_size)
    else:
        workload = make_insert_workload(stream)

    sweep = crash_sweep(
        lambda injector, fl: make_store(nv, max(len(stream), 64), shards, injector, fl),
        workload,
        SweepConfig(
            faults=faults.FaultPolicy(
                torn_stores=base.torn_stores,
                persist_reorder=base.persist_reorder,
                poison_on_crash=poison,
                transient_read_rate=transient_rate,
                seed=seed,
            ),
            exhaustive_threshold=exhaustive_threshold,
            samples=points,
            seed=seed,
        ),
    )
    title = (f"crash sweep — {dataset} ({len(stream)} edges, {shards} "
             f"shard{'s' if shards != 1 else ''}, policy {policy}, seed {seed})")
    return title, sweep


def report(result):
    title, sweep = result
    yield crash_sweep_table(sweep, title=title)
