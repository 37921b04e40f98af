"""Betweenness Centrality — Brandes' single-source dependency (paper Table 1).

GAPBS's BC approximates full betweenness by accumulating Brandes
dependencies from sampled sources; the paper feeds a single source
vertex.  Forward phase: BFS levels with shortest-path counts (sigma);
backward phase: per-level dependency (delta) accumulation.  Directed
semantics, like GAPBS.

The forward phase is direction-optimizing.  GAPBS's ``bc.cc`` always
pushes (expands the frontier's out-edges); here a level *pulls* — every
unvisited vertex sums sigma over its in-neighbours at the current depth
— when its view prices that lower than the push
(:func:`~repro.algorithms.common.pull_if_cheaper`: frontier accounting
of the unvisited side's vertices and in-edges against the frontier's
vertices and out-edges; no early exit, every parent's sigma is needed).
A level discovers the same vertices either way, so each costs the
cheaper of its two charges.

The backward pass re-reads, level by level, the edges landing on the
next level.  GAPBS reads them from the out-rows of level d; they are
also, as one multiset, the in-rows of level d+1 filtered to depth d, and
when level d+1 is narrow those rows hold them in far fewer bytes.  Each
backward level is charged for the side its view prices lower (the same
helper, with :meth:`~repro.analysis.view.CSRArraysView.partial_scan_ns`
as the price).  The arithmetic does not follow the charge: it always
uses the landing edges in GAPBS row order, recorded by a pushed level
and re-gathered from the out-rows for a pulled one.  sigma holds integer
path counts, so summing it in another order is exact, and the backward
pass consumes the very edges push would have recorded: the scores are
byte-identical to push-only Brandes.

BC is the most compute- and memory-intensive kernel and touches large
parts of the graph — which is why DGAP catches up with the DRAM-cached
systems here (Fig. 8, §4.3).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..analysis.view import CSRArraysView
from ..obs.tracer import annotate, kernel_span
from .common import gather_edges, pull_if_cheaper

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
    out_deg, in_deg = view.out_degrees(), view.in_degrees()
    in_csr = None  # fetched by the first pulled level

    depth = np.full(nv, -1, dtype=np.int64)
    sigma = np.zeros(nv, dtype=np.float64)
    depth[source] = 0
    sigma[source] = 1.0
    levels: List[np.ndarray] = [np.array([source], dtype=np.int64)]
    #: per level: the (u, w) edges landing on the next level (None when
    #: the level pulled), plus the two sides the backward pass prices:
    #: the level's out-edge count and the next level's in-edge count
    level_edges: List[tuple] = []
    # the unvisited side, kept current level by level
    n_unvisited = nv - 1
    m_unvisited = view.num_edges - int(in_deg[source])
    n_pulled = 0

    # -- forward: BFS levels + path counts ---------------------------------
    d = 0
    frontier = levels[0]
    while frontier.size:
        m_frontier = int(out_deg[frontier].sum())
        pull = pull_if_cheaper(
            view, (frontier.size, m_frontier), (n_unvisited, m_unvisited), _BC_SERIAL
        )
        n_pulled += pull
        if pull:
            if in_csr is None:
                in_indptr, in_srcs = view.in_csr()
                in_csr = (in_indptr, in_srcs.astype(np.intp))
            w, u = gather_edges(*in_csr, np.flatnonzero(depth < 0))
            # an unvisited vertex's parents are its in-neighbours at depth d
            hit = depth[u] == d
        else:
            u, w = gather_edges(out_indptr, out_dsts, frontier)
            hit = depth[w] < 0
        u, w = u[hit], w[hit]
        # dedupe via a bitmap: same sorted result as np.unique, no sort
        discovered = np.zeros(nv, dtype=bool)
        discovered[w] = True
        nxt = np.flatnonzero(discovered)
        depth[nxt] = d + 1
        # sigma[w] += sigma[u] over edges u->w landing on the next level;
        # path counts are integers, so either direction's order is exact
        np.add.at(sigma, w, sigma[u])
        view.account_compute(nxt.size * 16, serial_fraction=_BC_SERIAL)
        if nxt.size == 0:
            break
        m_next = int(in_deg[nxt].sum())
        level_edges.append((None if pull else (u, w), m_frontier, m_next))
        n_unvisited -= nxt.size
        m_unvisited -= m_next
        levels.append(nxt)
        frontier = nxt
        d += 1

    # -- backward: dependency accumulation ----------------------------------
    delta = np.zeros(nv, dtype=np.float64)
    n_in = 0
    for d in range(len(levels) - 2, -1, -1):
        verts = levels[d]
        edges, m_out, m_in = level_edges[d]
        # the edges landing on depth d+1 are the out-rows of depth d
        # filtered to depth d+1 and, as one multiset, the in-rows of depth
        # d+1 filtered to depth d: the level-ordered sweep (a scan-shaped
        # re-read of the covered subgraph, why the paper sees DGAP catch
        # the DRAM systems on BC, §4.3) is charged for the cheaper side
        n_in += pull_if_cheaper(
            view, (verts.size, m_out), (levels[d + 1].size, m_in), _BC_SERIAL, sweep=True
        )
        if edges is None:
            # a pulled level re-gathers its out-rows: the edges landing
            # on depth d+1 are exactly, and in the order, push records
            owners, nbrs = gather_edges(out_indptr, out_dsts, verts)
            keep = depth[nbrs] == d + 1
            edges = owners[keep], nbrs[keep]
        u, w = edges
        contrib = sigma[u] / sigma[w] * (1.0 + delta[w])
        np.add.at(delta, u, contrib)
        view.account_compute(verts.size * 24, serial_fraction=_BC_SERIAL)

    annotate(levels=len(levels), levels_pulled=n_pulled, backward_in=n_in)
    delta[source] = 0.0
    return delta


__all__ = ["betweenness_centrality"]
