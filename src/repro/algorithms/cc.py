"""Connected Components — Shiloach–Vishkin (GAPBS ``cc_sv``, paper Table 1).

Treats edges as undirected (both endpoints hook).  Each round hooks
every edge's larger-labelled root under the smaller label, then
compresses trees by pointer jumping; converges in O(log V) rounds.

The paper observes CC scales poorly on *all* systems because of the
GAPBS implementation's ``parallel for`` scheduling (§4.3.1); we model
that as a larger serial fraction on the per-round scan rather than
inheriting a compiler artifact (DESIGN.md §9).

On a view whose store carries the last run's labels (``view.carry``)
and whose ``mark`` still equals theirs, every row only grew by live
appends since, so components can only have merged: the kernel reads
just the appended suffixes and hooks the old components' roots over
them (DESIGN.md §9).  The labels are the minimum vertex id per weak
component either way.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..analysis.view import CSRArraysView
from ..nputil import distinct, multi_arange
from ..obs.tracer import annotate, kernel_span

#: the modeled scheduling bottleneck (gives ~4-6x speedup at 16 threads,
#: matching Table 4 across systems).
_CC_SERIAL = 0.12
#: Shiloach–Vishkin rounds before a run gives up converging (its labels
#: are then not carried to the next view).
MAX_ROUNDS = 64


def connected_components(view: CSRArraysView) -> np.ndarray:
    """|V|-sized array of component labels (the minimum vertex id reachable)."""
    with kernel_span("cc", view):
        return _connected_components(view)


def _connected_components(view: CSRArraysView) -> np.ndarray:
    nv = view.num_vertices
    lengths = view.out_degrees()
    carry = view.carry
    prev = None if carry is None else carry.get("cc")
    tail = None if prev is None else _appended(view, prev, lengths)
    if tail is None:
        comp, done = _from_scratch(view)
        annotate(incremental=False, appended_edges=0)
    else:
        grown, srcs, dsts = tail
        view.account_frontier(grown.size, srcs.size, serial_fraction=_CC_SERIAL)
        comp, done = _merge(prev[0], nv, srcs, dsts)
        view.account_compute(nv * 8 * 2, serial_fraction=_CC_SERIAL)
        annotate(incremental=True, appended_edges=int(srcs.size))
    if carry is not None and done:
        carry["cc"] = (comp.copy(), view.mark, lengths)
    return comp


def _appended(
    view: CSRArraysView, prev, lengths: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(grown rows, appended sources, appended destinations)`` since the
    carried labels, or None when rows may have lost entries since (the
    mark moved) or the view is older than the labels (a row is shorter)."""
    _, mark, old_lengths = prev
    nv = view.num_vertices
    if mark != view.mark or nv < old_lengths.size:
        return None
    extra = lengths.copy()
    extra[: old_lengths.size] -= old_lengths
    if (extra < 0).any():
        return None
    grown = np.flatnonzero(extra)
    counts = extra[grown]
    indptr, dsts = view.out_csr()
    idx = multi_arange(indptr[grown] + lengths[grown] - counts, counts)
    return grown, np.repeat(grown, counts), dsts[idx].astype(np.intp)


def _from_scratch(view: CSRArraysView) -> Tuple[np.ndarray, bool]:
    _, dsts = view.out_csr()
    srcs = view.out_src_ids()  # intp, cached across kernels
    dsts = dsts.astype(np.intp)  # ID_DTYPE would re-cast per gather

    def charge() -> None:
        view.account_full_scan(serial_fraction=_CC_SERIAL)
        view.account_compute(view.num_vertices * 8 * 2, serial_fraction=_CC_SERIAL)

    return _hook_and_jump(
        np.arange(view.num_vertices, dtype=np.int64), srcs, dsts, charge
    )


def _merge(
    labels: np.ndarray, nv: int, srcs: np.ndarray, dsts: np.ndarray
) -> Tuple[np.ndarray, bool]:
    """Old labels merged over the appended edges.

    Each old label is its component's minimum id and its own root, so
    the appended edges join roots: hook and jump over just the roots they
    touch (indexed in ascending id order, so a smaller index is a smaller
    id), then relabel every vertex through the merged roots.
    """
    comp = np.arange(nv, dtype=np.int64)
    comp[: labels.size] = labels
    ru, rv = comp[srcs], comp[dsts]
    roots = distinct(np.concatenate([ru, rv]))
    local, done = _hook_and_jump(
        np.arange(roots.size, dtype=np.int64),
        np.searchsorted(roots, ru),
        np.searchsorted(roots, rv),
    )
    relabel = np.arange(nv, dtype=np.int64)
    relabel[roots] = roots[local]
    return relabel[comp], done


def _hook_and_jump(
    comp: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    charge: Callable[[], None] = lambda: None,
) -> Tuple[np.ndarray, bool]:
    """Shiloach–Vishkin rounds from ``comp``: ``(labels, converged)``."""
    for _ in range(MAX_ROUNDS):
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
        charge()
        if np.array_equal(new, comp):
            return comp, True
        comp = new
    return comp, False


__all__ = ["connected_components"]
