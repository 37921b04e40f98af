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
  the generator's own pool (every add not yet churned), biased toward
  *old* copies (age exponent) and *busy* endpoints (degree exponent) —
  lapsing contacts concentrate on long-lived links and hubs, which keeps
  the delete stream pointed at the PMA regions where tombstones accumulate.

Deletes name pool copies, never absent pairs, and each delete consumes
one copy — duplicate parallel edges are deleted once per copy.  The pool
models no sliding-*window* expiry (drop everything older than W steps):
that is the consumer's job, :class:`repro.temporal.TemporalWindowGraph`,
which skips a churn delete whose copy its window already expired — 70 %
of them on the benchmark's ``temporal-churn`` stream (W = 8).  The weighted
draw is this module's own copy of NumPy 2.x's ``Generator.choice`` loop
(:func:`_choice`), so the streams are repo code, pinned by the digests in
``tests/test_datasets.py``, not a NumPy implementation detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..nputil import run_heads
from .rmat import rmat_edges, shuffle_edges, uniform_edges


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
        edges = shuffle_edges(edges, seed=self.seed + 1)

        counts = self.step_counts(scale)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        del_rng = np.random.default_rng(self.seed + 2)

        # deletes per step, and the pool's high-water mark (adds land first)
        quota, n, cap = [], 0, 0
        for a in counts.tolist():
            n += a
            cap = max(cap, n)
            quota.append(min(int(round(self.churn * a)), n))
            n -= quota[-1]

        # the generator's own pool of not-yet-churned copies, in arrival
        # order, with ``live[s]`` of them born at step s (window expiry is
        # not modeled here); ``deg`` is its degrees.  A copy's degree
        # weight is a gather from ``deg_w``, one ``int ** float`` per value
        # (``mode="clip"``: indices are in range, and "raise" copies ``out``)
        src, dst, pair_deg = (np.empty(cap, dtype=np.int64) for _ in range(3))
        w, cum, cdf = np.empty(cap), np.empty(cap), np.empty(cap)
        live = np.zeros(self.num_steps, dtype=np.int64)
        deg = np.zeros(nv, dtype=np.int64)
        deg_w = np.arange(2 * np.bincount(edges.ravel(), minlength=nv).max() + 1) ** self.degree_bias
        n = 0

        steps: List[TemporalStep] = []
        for t in range(self.num_steps):
            adds = edges[bounds[t] : bounds[t + 1]]
            a = adds.shape[0]
            src[n : n + a], dst[n : n + a] = adds[:, 0], adds[:, 1]
            n += a
            live[t] = a
            deg += np.bincount(adds.ravel(), minlength=nv)

            k = quota[t]
            if k > 0:
                age_w = (t + 1 - np.arange(t + 1)).astype(np.float64) ** self.age_bias
                pd = deg.take(src[:n], out=pair_deg[:n], mode="clip")
                pd += deg.take(dst[:n])
                p = deg_w.take(pd, out=w[:n], mode="clip")
                p *= np.repeat(age_w, live[: t + 1])
                p /= p.sum()
                gone = np.sort(_choice(del_rng, p, k, cum[:n], cdf[:n]))
                deletes = np.stack([src[gone], dst[gone]], axis=1)
                deg -= np.bincount(deletes.ravel(), minlength=nv)
                born = np.searchsorted(np.cumsum(live[: t + 1]), gone, side="right")
                live[: t + 1] -= np.bincount(born, minlength=t + 1)
                keep = np.ones(n, dtype=bool)
                keep[gone] = False
                n -= k
                src[:n], dst[:n] = src[: n + k][keep], dst[: n + k][keep]
            else:
                deletes = np.empty((0, 2), dtype=np.int64)
            steps.append(TemporalStep(step=t, adds=adds, deletes=deletes))
        return steps


def _choice(rng: np.random.Generator, p: np.ndarray, k: int, cum: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """``rng.choice(p.size, k, replace=False, p=p)``, bit for bit, as NumPy 2.x draws it.

    Each round draws the missing count, zeroes what earlier rounds found and
    searches the renormalised running sum, keeping each new index once, in
    first-draw order.  Unlike NumPy, ``p`` is neither re-validated nor copied
    (it is zeroed in place), and a later round re-adds only from its first
    zeroed index, seeded with the unchanged prefix sum: the same additions.
    """
    found = np.empty(k, dtype=np.int64)
    np.cumsum(p, out=cum)
    m = 0
    while True:
        x = rng.random(k - m)
        new = np.divide(cum, cum[-1], out=cdf).searchsorted(x, side="right")
        order = np.argsort(new, kind="stable")
        first = order[run_heads(new[order])]  # each value's first draw
        new = new[np.sort(first)]
        found[m : m + new.size] = new
        m += new.size
        if m == k:
            return found
        p[new] = 0.0
        j = int(new.min())
        if j == 0:
            np.cumsum(p, out=cum)
        else:  # cum[j-1] + p[j] + p[j+1] + ..., with p[j-1] borrowed as the seed
            held, p[j - 1] = p[j - 1], cum[j - 1]
            np.cumsum(p[j - 1 :], out=cum[j - 1 :])
            p[j - 1] = held


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
