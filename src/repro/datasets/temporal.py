"""Seeded temporal edge streams: windowed adds plus biased churn deletes.

The paper's evaluation (§4) replays static SNAP graphs as shuffled
insert-only streams; temporal deployments (contact networks, interaction
graphs) instead evolve in *steps* — each step contributes a burst of new
edges while old interactions lapse.  This module generates deterministic
proxies for that regime, mirroring ``registry.DatasetSpec``:

* **adds** come from the same R-MAT recipes as the static proxies (the
  skew is what stresses DGAP's PMA + edge logs), partitioned into
  ``num_steps`` bursts of uneven size — the EnglandCOVID-style step
  structure where per-step volume varies around the mean rather than
  arriving in equal slices;
* **churn deletes** remove a seeded fraction of each step's volume from
  the edges still alive, biased toward *old* copies (age exponent) and
  *busy* endpoints (degree exponent) — lapsing contacts concentrate on
  long-lived links and hubs, which keeps the delete stream pointed at
  the PMA regions where tombstones actually accumulate.

Deletes name live (src, dst) copies, never absent pairs, and each delete
consumes one live copy — duplicate parallel edges are deleted once per
copy.  Sliding-*window* expiry (drop everything older than W steps) is
the consumer's job: :class:`repro.temporal.TemporalWindowGraph` layers
it on top of these streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .rmat import rmat_edges, uniform_edges


@dataclass(frozen=True)
class TemporalStep:
    """One step of a temporal stream: a burst of adds, then churn deletes.

    Within a step the mutation order is: all ``adds`` (append order),
    then all ``deletes``.  Both are ``(N, 2)`` int64 arrays.
    """

    step: int
    adds: np.ndarray
    deletes: np.ndarray


@dataclass(frozen=True)
class TemporalSpec:
    """A seeded temporal-stream recipe (see module docstring)."""

    name: str
    domain: str
    proxy_vertices: int  # at scale 1
    ratio: int  # total adds / |V| over the whole stream
    num_steps: int
    churn: float  # deletes per step, as a fraction of that step's adds
    age_bias: float  # delete-weight exponent on copy age (steps since birth)
    degree_bias: float  # delete-weight exponent on endpoint degree
    #: R-MAT partition parameter ``a`` (skew); None = uniform generator
    rmat_a: float | None
    seed: int

    def sizes(self, scale: float = 1.0) -> Tuple[int, int]:
        """Proxy (num_vertices, total_adds) at the given scale factor."""
        nv = max(256, int(self.proxy_vertices * scale))
        return nv, nv * self.ratio

    def step_counts(self, scale: float = 1.0) -> np.ndarray:
        """Deterministic per-step add volumes (uneven, summing to total).

        EnglandCOVID-style cadence: volumes vary multiplicatively around
        the mean (0.5x–1.5x) instead of arriving in equal slices, so
        window occupancy and expiry pressure fluctuate step to step.
        """
        _, ne = self.sizes(scale)
        rng = np.random.default_rng(self.seed)
        w = 0.5 + rng.random(self.num_steps)
        counts = np.floor(w / w.sum() * ne).astype(np.int64)
        counts[: ne - int(counts.sum())] += 1  # distribute rounding remainder deterministically
        return counts

    def generate(self, scale: float = 1.0) -> List[TemporalStep]:
        """Deterministic list of :class:`TemporalStep` for this proxy."""
        nv, ne = self.sizes(scale)
        if self.rmat_a is None:
            edges = uniform_edges(nv, ne, seed=self.seed)
        else:
            b = c = (1.0 - self.rmat_a) / 3
            edges = rmat_edges(nv, ne, a=self.rmat_a, b=b, c=c, seed=self.seed)
        rng = np.random.default_rng(self.seed + 1)
        edges = edges[rng.permutation(edges.shape[0])]

        counts = self.step_counts(scale)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        del_rng = np.random.default_rng(self.seed + 2)

        # live pool of not-yet-deleted copies, in arrival order, in flat
        # arrays sized for the whole stream (window expiry is not modeled
        # here — the stream deletes only via churn); ``deg`` is its degrees
        src, dst = np.empty(ne, dtype=np.int64), np.empty(ne, dtype=np.int64)
        birth = np.empty(ne, dtype=np.int64)
        deg = np.zeros(nv, dtype=np.int64)
        n = 0

        steps: List[TemporalStep] = []
        for t in range(self.num_steps):
            adds = edges[bounds[t] : bounds[t + 1]]
            a = adds.shape[0]
            src[n : n + a], dst[n : n + a], birth[n : n + a] = adds[:, 0], adds[:, 1], t
            n += a
            deg += np.bincount(adds.ravel(), minlength=nv)

            k = min(int(round(self.churn * a)), n)
            if k > 0:
                age = (t - birth[:n] + 1).astype(np.float64)
                w = age**self.age_bias * (deg[src[:n]] + deg[dst[:n]]) ** self.degree_bias
                idx = del_rng.choice(n, size=k, replace=False, p=w / w.sum())
                gone = np.sort(idx)
                deletes = np.stack([src[gone], dst[gone]], axis=1)
                deg -= np.bincount(deletes.ravel(), minlength=nv)
                keep = np.ones(n, dtype=bool)
                keep[idx] = False
                kept = np.flatnonzero(keep)
                n = kept.size
                src[:n], dst[:n], birth[:n] = src[kept], dst[kept], birth[kept]
            else:
                deletes = np.empty((0, 2), dtype=np.int64)
            steps.append(TemporalStep(step=t, adds=adds, deletes=deletes))
        return steps


#: temporal proxies alongside the static registry: a contact-network
#: style stream (mild skew, many short steps, heavy churn) and social
#: streams reusing the Orkut/LiveJournal R-MAT skew with slower churn.
TEMPORAL_DATASETS: Dict[str, TemporalSpec] = {
    s.name: s
    for s in (
        TemporalSpec("covid-contact", "contact", 1024, 24, 52, 0.40, 1.0, 0.5, 0.45, 201),
        TemporalSpec("orkut-stream", "social", 2048, 32, 24, 0.30, 0.5, 1.0, 0.57, 202),
        TemporalSpec("livejournal-stream", "social", 4096, 18, 24, 0.20, 0.5, 1.0, 0.57, 203),
    )
}


__all__ = [
    "TemporalStep",
    "TemporalSpec",
    "TEMPORAL_DATASETS",
]
