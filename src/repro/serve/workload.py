"""Zipfian-skewed read/write op streams for the serving layer.

The generator is fully seeded: the same :class:`ServeWorkloadConfig`
always yields the same op stream, so latency reports and the
byte-identity twin are reproducible run to run.

Key choices:

* **Hot-key skew** — vertex picks follow a bounded Zipfian
  (``P(rank r) ∝ r^-theta``), with ranks scattered over the id space
  through a seeded permutation so hot vertices don't cluster at low
  ids (which would bias them into shard 0 under block-mixed striping).
* **Deletes hit live edges only** — the generator mirrors the live
  adjacency multiset and only emits tombstones for edges it knows are
  present.  Every tombstone therefore cancels exactly one stored
  occurrence, keeping ``live_degree`` equal to the visible row length —
  the invariant that makes served degrees (indptr diffs) comparable to
  snapshot degrees.
* **Write ops are batches** — each write op carries one
  :class:`~repro.core.batch.EdgeBatch` mixing inserts with tombstones,
  the unit the ingest path already streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.batch import EdgeBatch

#: read-class mix (weights, normalized at use).
READ_MIX: Tuple[Tuple[str, float], ...] = (
    ("degree", 0.25),
    ("neighbors", 0.40),
    ("edge_exists", 0.20),
    ("k_hop", 0.10),
    ("top_k_degree", 0.05),
)
#: hop depth of every ``k_hop`` read and size of every ``top_k_degree`` read.
K_HOP_DEPTH = 2
TOP_K = 8
#: edges per write op.
WRITE_BATCH = 64
#: share of a write batch emitted as tombstones (of live edges).
DELETE_FRACTION = 0.15
#: open-loop offered load.
ARRIVAL_RATE_OPS_PER_S = 200_000.0
#: Zipfian skew exponent of every key draw (the YCSB default).
ZIPF_THETA = 0.99


@dataclass
class ServeWorkloadConfig:
    """Knobs for one generated op stream (all seeded)."""

    n_ops: int = 2000
    #: fraction of ops that are reads (the rest are write batches).
    read_fraction: float = 0.9
    #: closed-loop client count.
    n_clients: int = 8
    #: "closed" (think-free clients) or "open" (Poisson arrivals).
    mode: str = "closed"
    seed: int = 0


class ZipfianSampler:
    """Bounded Zipfian over ``n`` ids via inverse-CDF ``searchsorted``.

    ``theta <= 0`` degenerates to uniform.  A seeded permutation maps
    popularity ranks to ids so the hot set is spread across the id
    space (and, downstream, across shards).
    """

    def __init__(self, n: int, theta: float, rng: np.random.Generator) -> None:
        if n <= 0:
            raise ValueError("ZipfianSampler needs n >= 1")
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-float(theta)) if theta > 0 else np.ones(n)
        cdf = np.cumsum(weights)
        self._cdf = cdf / cdf[-1]
        self._perm = rng.permutation(n)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        u = rng.random(size)
        return self._perm[np.searchsorted(self._cdf, u, side="left")]

    def one(self, rng: np.random.Generator) -> int:
        return int(self.sample(rng, 1)[0])


def generate_workload(num_vertices: int, config: ServeWorkloadConfig) -> List[tuple]:
    """Seeded op stream: ``("degree", v)``, ``("neighbors", v)``,
    ``("edge_exists", u, w)``, ``("k_hop", v, depth)``,
    ``("top_k_degree", k)`` and ``("write", EdgeBatch)`` tuples.

    The mirror adjacency starts empty: run the stream against a graph
    whose pre-loaded edges the generator does not delete, or start
    empty — either way tombstones only ever target edges this stream
    itself inserted, so they always cancel a live occurrence.
    """
    rng = np.random.default_rng(config.seed)
    zipf = ZipfianSampler(num_vertices, ZIPF_THETA, rng)
    classes = [name for name, _ in READ_MIX]
    weights = np.array([w for _, w in READ_MIX], dtype=np.float64)
    weights /= weights.sum()

    # live multiset mirror: src -> list of currently-live destinations
    live: Dict[int, List[int]] = {}
    live_srcs: List[int] = []  # srcs with at least one live edge

    ops: List[tuple] = []
    for _ in range(config.n_ops):
        if rng.random() < config.read_fraction:
            cls = classes[int(rng.choice(len(classes), p=weights))]
            if cls == "degree" or cls == "neighbors":
                ops.append((cls, zipf.one(rng)))
            elif cls == "edge_exists":
                u = zipf.one(rng)
                row = live.get(u)
                if row and rng.random() < 0.5:
                    w = row[int(rng.integers(len(row)))]  # likely-present probe
                else:
                    w = zipf.one(rng)
                ops.append((cls, u, w))
            elif cls == "k_hop":
                ops.append((cls, zipf.one(rng), K_HOP_DEPTH))
            else:
                ops.append(("top_k_degree", TOP_K))
        else:
            srcs = np.empty(WRITE_BATCH, dtype=np.int64)
            dsts = np.empty(WRITE_BATCH, dtype=np.int64)
            tombs = np.zeros(WRITE_BATCH, dtype=bool)
            for j in range(WRITE_BATCH):
                if live_srcs and rng.random() < DELETE_FRACTION:
                    s = live_srcs[int(rng.integers(len(live_srcs)))]
                    row = live[s]
                    d = row.pop(int(rng.integers(len(row))))
                    if not row:
                        del live[s]
                        live_srcs.remove(s)
                    srcs[j], dsts[j], tombs[j] = s, d, True
                else:
                    s, d = zipf.one(rng), zipf.one(rng)
                    if s not in live:
                        live[s] = []
                        live_srcs.append(s)
                    live[s].append(d)
                    srcs[j], dsts[j], tombs[j] = s, d, False
            ops.append(("write", EdgeBatch(srcs, dsts, tombs, validate=False)))
    return ops


__all__ = [
    "ARRIVAL_RATE_OPS_PER_S",
    "READ_MIX",
    "ServeWorkloadConfig",
    "ZipfianSampler",
    "generate_workload",
]
