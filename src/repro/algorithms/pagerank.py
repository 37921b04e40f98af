"""PageRank — GAPBS ``pr.cc`` semantics (paper Table 1).

Pull-based, a fixed number of iterations (the paper runs 20), damping
0.85.  Dangling vertices contribute nothing (GAPBS's simple variant).
Each iteration sweeps every vertex's incoming edges — the access
pattern that favours CSR-like layouts and penalizes pointer chasing
(Fig. 7's story).
"""

from __future__ import annotations

import numpy as np

from ..analysis.view import CSRArraysView
from ..obs.tracer import kernel_span

#: PR touches every edge every iteration but has near-perfect parallel
#: structure; the small serial part is the convergence reduction.
_PR_SERIAL = 0.015
#: GAPBS's damping factor.
DAMPING = 0.85


def pagerank(view: CSRArraysView, iterations: int = 20) -> np.ndarray:
    """|V|-sized array of ranks after ``iterations`` sweeps."""
    with kernel_span("pr", view):
        return _pagerank(view, iterations)


def _pagerank(view: CSRArraysView, iterations: int) -> np.ndarray:
    nv = view.num_vertices
    in_indptr, in_srcs = view.in_csr()
    out_deg = view.out_degrees().astype(np.float64)
    # dangling vertices contribute nothing: zero inverse degree
    inv_deg = np.where(out_deg > 0, 1.0 / np.where(out_deg > 0, out_deg, 1.0), 0.0)
    in_srcs = in_srcs.astype(np.intp)  # ID_DTYPE would re-cast per gather

    score = np.full(nv, 1.0 / nv)
    base = (1.0 - DAMPING) / nv
    acc = np.zeros(in_srcs.size + 1)
    for _ in range(iterations):
        contrib = score * inv_deg
        # per-dst segment sums over the dst-sorted in-CSR: prefix sums
        # differenced at the indptr boundaries (cheaper than a scatter)
        np.cumsum(contrib[in_srcs], out=acc[1:])
        sums = acc[in_indptr[1:]] - acc[in_indptr[:-1]]
        score = base + DAMPING * sums
        view.account_full_scan(serial_fraction=_PR_SERIAL)
        view.account_compute(nv * 8 * 3, serial_fraction=_PR_SERIAL)
    return score


__all__ = ["pagerank"]
