"""Betweenness Centrality — Brandes' single-source dependency (paper Table 1).

GAPBS's BC approximates full betweenness by accumulating Brandes
dependencies from sampled sources; the paper feeds a single source
vertex.  Forward phase: BFS levels with shortest-path counts (sigma);
backward phase: per-level dependency (delta) accumulation.  Directed
semantics, like GAPBS.

BC is the most compute- and memory-intensive kernel and touches large
parts of the graph — which is why DGAP catches up with the DRAM-cached
systems here (Fig. 8, §4.3).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..analysis.view import CSRArraysView
from ..obs.tracer import kernel_span
from .common import gather_edges

_BC_SERIAL = 0.02


def betweenness_centrality(view: CSRArraysView, source: int = 0) -> np.ndarray:
    """|V|-sized array of Brandes dependency scores from ``source``."""
    with kernel_span("bc", view):
        return _betweenness_centrality(view, source)


def _betweenness_centrality(view: CSRArraysView, source: int) -> np.ndarray:
    nv = view.num_vertices
    out_indptr, out_dsts = view.out_csr()
    # ID_DTYPE ids would be re-cast to intp at every fancy index below
    out_dsts = out_dsts.astype(np.intp)

    depth = np.full(nv, -1, dtype=np.int64)
    sigma = np.zeros(nv, dtype=np.float64)
    depth[source] = 0
    sigma[source] = 1.0
    levels: List[np.ndarray] = [np.array([source], dtype=np.int64)]
    #: per level: the (u, w) edges landing on the next level, plus the
    #: total gathered edge count (for the backward pass's accounting)
    level_edges: List[tuple] = []

    # -- forward: BFS levels + path counts ---------------------------------
    d = 0
    frontier = levels[0]
    while frontier.size:
        owners, nbrs = gather_edges(out_indptr, out_dsts, frontier)
        view.account_frontier(frontier.size, int(owners.size), serial_fraction=_BC_SERIAL)
        fresh = depth[nbrs] < 0
        # dedupe via a bitmap: same sorted result as np.unique, no sort
        discovered = np.zeros(nv, dtype=bool)
        discovered[nbrs[fresh]] = True
        nxt = np.flatnonzero(discovered)
        depth[nxt] = d + 1
        # sigma[w] += sigma[u] over edges u->w landing on the next level;
        # depth d+1 is assigned only in this level, so that edge set is
        # exactly the fresh mask — no second depth gather needed
        u, w = owners[fresh], nbrs[fresh]
        np.add.at(sigma, w, sigma[u])
        view.account_compute(nxt.size * 16, serial_fraction=_BC_SERIAL)
        if nxt.size == 0:
            break
        level_edges.append((u, w, int(owners.size)))
        levels.append(nxt)
        frontier = nxt
        d += 1

    # -- backward: dependency accumulation ----------------------------------
    delta = np.zeros(nv, dtype=np.float64)
    for d in range(len(levels) - 2, -1, -1):
        verts = levels[d]
        # level d's forward gather already produced exactly the edges the
        # backward pass needs (u at depth d -> w at depth d+1), in the
        # same order — reuse them instead of re-gathering and re-masking
        u, w, gathered = level_edges[d]
        # the backward pass reads whole per-vertex edge lists level by
        # level — a scan-shaped sweep over the covered subgraph (this is
        # why the paper sees DGAP catch the DRAM systems on BC, §4.3)
        view.account_partial_scan(verts.size, gathered, serial_fraction=_BC_SERIAL)
        contrib = sigma[u] / sigma[w] * (1.0 + delta[w])
        np.add.at(delta, u, contrib)
        view.account_compute(verts.size * 24, serial_fraction=_BC_SERIAL)

    delta[source] = 0.0
    return delta


__all__ = ["betweenness_centrality"]
