"""Connected Components — Shiloach–Vishkin (GAPBS ``cc_sv``, paper Table 1).

Treats edges as undirected (both endpoints hook).  Each round hooks
every edge's larger-labelled root under the smaller label, then
compresses trees by pointer jumping; converges in O(log V) rounds.

The paper observes CC scales poorly on *all* systems because of the
GAPBS implementation's ``parallel for`` scheduling (§4.3.1); we model
that as a larger serial fraction on the per-round scan rather than
inheriting a compiler artifact (DESIGN.md §9).
"""

from __future__ import annotations

import numpy as np

from ..analysis.view import CSRArraysView
from ..obs.tracer import kernel_span

#: the modeled scheduling bottleneck (gives ~4-6x speedup at 16 threads,
#: matching Table 4 across systems).
_CC_SERIAL = 0.12


def connected_components(view: CSRArraysView, max_rounds: int = 64) -> np.ndarray:
    """|V|-sized array of component labels (the minimum vertex id reachable)."""
    with kernel_span("cc", view):
        return _connected_components(view, max_rounds)


def _connected_components(view: CSRArraysView, max_rounds: int) -> np.ndarray:
    nv = view.num_vertices
    _, dsts = view.out_csr()
    srcs = view.out_src_ids()  # intp, cached across kernels
    dsts = dsts.astype(np.intp)  # ID_DTYPE would re-cast per gather

    comp = np.arange(nv, dtype=np.int64)
    for _ in range(max_rounds):
        lu = comp[srcs]
        lv = comp[dsts]
        m = np.minimum(lu, lv)
        new = comp.copy()
        np.minimum.at(new, lu, m)
        np.minimum.at(new, lv, m)
        # pointer jumping (path compression)
        while True:
            nxt = new[new]
            if np.array_equal(nxt, new):
                break
            new = nxt
        view.account_full_scan(serial_fraction=_CC_SERIAL)
        view.account_compute(nv * 8 * 2, serial_fraction=_CC_SERIAL)
        if np.array_equal(new, comp):
            break
        comp = new
    return comp


__all__ = ["connected_components"]
