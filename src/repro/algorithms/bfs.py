"""Breadth-First Search — GAPBS direction-optimizing semantics [Beamer'12].

Alternates top-down (expand the frontier's out-edges) and bottom-up
(unvisited vertices probe their in-edges for a visited parent) using
the GAPBS alpha/beta heuristics.  Returns the parent array (−1 for
unreached; the source is its own parent), as in paper Table 1.

BFS touches random vertices' edge lists — the pattern where adjacency
lists (GraphOne/XPGraph in DRAM) beat CSR-family layouts, Fig. 8.
"""

from __future__ import annotations

import numpy as np

from ..analysis.view import CSRArraysView
from ..obs.tracer import kernel_span
from .common import gather_edges

_BFS_SERIAL = 0.03
#: GAPBS's direction-switch heuristics (``bfs.cc`` defaults)
_ALPHA = 15
_BETA = 18


def bfs(view: CSRArraysView, source: int = 0) -> np.ndarray:
    with kernel_span("bfs", view):
        return _bfs(view, source)


def _bfs(view: CSRArraysView, source: int) -> np.ndarray:
    nv = view.num_vertices
    out_indptr, out_dsts = view.out_csr()
    in_indptr, in_srcs = view.in_csr()
    out_deg = view.out_degrees()
    # ID_DTYPE ids would be re-cast to intp at every fancy index below
    out_dsts = out_dsts.astype(np.intp)
    in_srcs = in_srcs.astype(np.intp)

    parent = np.full(nv, -1, dtype=np.int64)
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    edges_to_check = int(out_deg.sum())

    while frontier.size:
        scout = int(out_deg[frontier].sum())
        use_bottom_up = scout > edges_to_check // _ALPHA and frontier.size > nv // (_BETA * 4)

        if use_bottom_up:
            in_frontier = np.zeros(nv, dtype=bool)
            in_frontier[frontier] = True
            cand = np.flatnonzero(parent < 0)
            owners, nbrs = gather_edges(in_indptr, in_srcs, cand)
            hits = in_frontier[nbrs]
            found = np.full(nv, -1, dtype=np.int64)
            found[owners[hits]] = nbrs[hits]  # any parent (last hit wins)
            next_frontier = np.flatnonzero(found >= 0)
            parent[next_frontier] = found[next_frontier]
            # bottom-up probes stop at the first visited in-neighbor:
            # on average a candidate scans well under half its list
            view.account_frontier(
                cand.size, int(owners.size * 0.4), serial_fraction=_BFS_SERIAL
            )
        else:
            owners, nbrs = gather_edges(out_indptr, out_dsts, frontier)
            fresh = parent[nbrs] < 0
            parent[nbrs[fresh]] = owners[fresh]
            # dedupe via a bitmap: same sorted result as np.unique, no sort
            discovered = np.zeros(nv, dtype=bool)
            discovered[nbrs[fresh]] = True
            next_frontier = np.flatnonzero(discovered)
            view.account_frontier(frontier.size, int(owners.size), serial_fraction=_BFS_SERIAL)

        edges_to_check -= scout
        view.account_compute(next_frontier.size * 8, serial_fraction=_BFS_SERIAL)
        frontier = next_frontier
    return parent


__all__ = ["bfs"]
