"""Breadth-First Search — direction-optimizing [Beamer'12], priced per level.

Each level either pushes (expands the frontier's out-edges) or pulls
(every unvisited vertex probes its in-edges for a frontier parent and
stops at the first one, as GAPBS's bottom-up step ``break``s).  GAPBS
switches on its DRAM-tuned alpha/beta constants; here a level takes the
direction its view's :class:`~repro.analysis.view.StorageGeometry`
prices lower (:func:`~repro.algorithms.common.pull_if_cheaper`) — on PM
a row probe costs as much as ~60 streamed edges, which moves the
crossover well away from DRAM's.  A level discovers the same vertices
either way, so depths are direction-independent and each level costs
the cheaper of its two charges.  Returns the parent array (−1 for
unreached; the source is its own parent), as in paper Table 1.

BFS touches random vertices' edge lists — the pattern where adjacency
lists (GraphOne/XPGraph in DRAM) beat CSR-family layouts, Fig. 8.
"""

from __future__ import annotations

import numpy as np

from ..analysis.view import CSRArraysView
from ..obs.tracer import annotate, kernel_span
from .common import BOTTOM_UP_EDGE_SHARE, gather_edges, pull_if_cheaper

_BFS_SERIAL = 0.03


def bfs(view: CSRArraysView, source: int = 0) -> np.ndarray:
    with kernel_span("bfs", view):
        return _bfs(view, source)


def _bfs(view: CSRArraysView, source: int) -> np.ndarray:
    nv = view.num_vertices
    out_indptr, out_dsts = view.out_csr()
    # ID_DTYPE ids would be re-cast to intp at every fancy index below
    out_dsts = out_dsts.astype(np.intp)
    out_deg, in_deg = view.out_degrees(), view.in_degrees()
    in_csr = None  # fetched by the first pulled level

    parent = np.full(nv, -1, dtype=np.int64)
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    # the unvisited side, kept current level by level
    n_unvisited = nv - 1
    m_unvisited = view.num_edges - int(in_deg[source])
    levels = n_pulled = 0

    while frontier.size:
        push = (frontier.size, int(out_deg[frontier].sum()))
        pull = (n_unvisited, int(m_unvisited * BOTTOM_UP_EDGE_SHARE))
        if pull_if_cheaper(view, push, pull, _BFS_SERIAL):
            if in_csr is None:
                in_indptr, in_srcs = view.in_csr()
                in_csr = (in_indptr, in_srcs.astype(np.intp))
            in_frontier = np.zeros(nv, dtype=bool)
            in_frontier[frontier] = True
            owners, nbrs = gather_edges(*in_csr, np.flatnonzero(parent < 0))
            hits = np.flatnonzero(in_frontier[nbrs])
            # owners ascend, so a candidate's first hit opens its run
            first = np.ones(hits.size, dtype=bool)
            first[1:] = owners[hits[1:]] != owners[hits[:-1]]
            hits = hits[first]
            next_frontier = owners[hits]
            parent[next_frontier] = nbrs[hits]
            n_pulled += 1
        else:
            owners, nbrs = gather_edges(out_indptr, out_dsts, frontier)
            fresh = parent[nbrs] < 0
            parent[nbrs[fresh]] = owners[fresh]
            # dedupe via a bitmap: same sorted result as np.unique, no sort
            discovered = np.zeros(nv, dtype=bool)
            discovered[nbrs[fresh]] = True
            next_frontier = np.flatnonzero(discovered)

        view.account_compute(next_frontier.size * 8, serial_fraction=_BFS_SERIAL)
        n_unvisited -= next_frontier.size
        m_unvisited -= int(in_deg[next_frontier].sum())
        levels += 1
        frontier = next_frontier
    annotate(levels=levels, levels_pulled=n_pulled)
    return parent


__all__ = ["bfs"]
