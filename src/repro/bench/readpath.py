"""Vectorized read-path twin: ``scalar_readpath`` reference vs bulk pmem reads.

The bulk read layer rewrote the merge/rebalance gather->plan->write
passes and the recovery scan/replay as whole-window NumPy operations;
the retained ``scalar_readpath`` reference is result- and
accounting-identical by contract.  Two sub-arms, each run on both
paths: forced whole-array rebalances (:func:`profile.rebalance_arm`)
and crash recovery.  The gate is that contract — identical CPU-visible
bytes, persistent bytes and device accounting, modeled ns included.
Both paths issue the same device ops, so no count separates them: the
wall ratio is printed, not gated.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional

import numpy as np

from ..core.dgap import DGAP
from .harness import DEFAULT_BATCH_SIZE, load_stream, make_store
from .profile import rebalance_arm
from .reporting import format_table

TRIALS = 3


@dataclass
class TwinWall:
    scalar_s: float  #: best-of-TRIALS wall, scalar reference
    vector_s: float  #: best-of-TRIALS wall, vectorized
    identical: bool  #: buf, media and stats equal after the last trial


@dataclass
class ReadPathTwin:
    dataset: str
    scale: float
    arms: Dict[str, TwinWall]  #: "rebalance", "recovery"


def _recovered(dataset, scale, batch_size, scalar: bool):
    """Full ingest, crash, timed ``DGAP.open``; ``(graph, wall_s)``."""
    nv, edges = load_stream(dataset, scale)
    g = make_store(nv, edges.shape[0], scalar_readpath=scalar)
    g.insert_edges(edges, batch_size=batch_size)
    g.pool.crash()
    t0 = perf_counter()
    g2 = DGAP.open(g.pool, g.config)
    return g2, perf_counter() - t0


def _twin(one) -> TwinWall:
    best = {True: float("inf"), False: float("inf")}
    pair = {}
    for _ in range(TRIALS):
        for scalar in (True, False):
            pair[scalar], wall = one(scalar)
            best[scalar] = min(best[scalar], wall)
    ds, dv = pair[True].pool.device, pair[False].pool.device
    identical = (
        np.array_equal(ds.buf, dv.buf)
        and np.array_equal(ds.media, dv.media)
        and vars(ds.stats) == vars(dv.stats)
        and pair[True].num_edges == pair[False].num_edges
    )
    return TwinWall(best[True], best[False], identical)


def run(dataset="orkut", scale=1.0, batch_size: Optional[int] = DEFAULT_BATCH_SIZE) -> ReadPathTwin:
    return ReadPathTwin(dataset, scale, {
        "rebalance": _twin(lambda scalar: rebalance_arm(
            dataset, scale, batch_size, scalar_readpath=scalar)[:2]),
        "recovery": _twin(lambda scalar: _recovered(dataset, scale, batch_size, scalar)),
    })


def report(r: ReadPathTwin):
    for name, t in r.arms.items():
        yield format_table(
            f"read-path twin: {name} arm ({r.dataset}, scale {r.scale:g})",
            ["arm", f"wall s (best of {TRIALS})"],
            [
                ("scalar reference", f"{t.scalar_s:.3f}"),
                ("vectorized", f"{t.vector_s:.3f}"),
                ("speedup (not gated)", f"{t.scalar_s / max(t.vector_s, 1e-12):.2f}x"),
            ],
        )


def gates(r: ReadPathTwin):
    return [
        (f"{name}: bytes, media and device accounting identical across paths",
         "identical", "identical" if t.identical else "DIVERGED", t.identical)
        for name, t in r.arms.items()
    ]
