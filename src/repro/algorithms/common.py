"""Shared helpers for the vectorized graph kernels."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..analysis.view import CSRArraysView
from ..nputil import multi_arange

#: Share of the unvisited side's in-edges a bottom-up BFS level reads: a
#: candidate stops at its first frontier in-neighbour (GAPBS's ``break``),
#: so on average it scans well under half its list.  BC's pulled levels
#: read every in-edge (each parent's sigma is needed).
BOTTOM_UP_EDGE_SHARE = 0.4


def gather_edges(indptr: np.ndarray, targets: np.ndarray, vertices: np.ndarray):
    """All edges of ``vertices``: returns (owners, neighbors)."""
    counts = indptr[vertices + 1] - indptr[vertices]
    idx = multi_arange(indptr[vertices], counts)
    owners = np.repeat(vertices, counts)
    return owners, targets[idx]


def pull_if_cheaper(
    view: CSRArraysView,
    push: Tuple[int, int],
    pull: Tuple[int, int],
    serial_fraction: float,
    *,
    sweep: bool = False,
) -> bool:
    """Charge one BFS/BC level for the side its view prices lower, and
    say whether that is the pull (the in-edge side).

    ``push`` and ``pull`` are ``(vertices, edges)`` read on each side.  A
    forward level probes edge lists at random: ``push`` is (|frontier|,
    their out-edges), ``pull`` (|unvisited|, the in-edges a pull reads),
    priced by :meth:`CSRArraysView.frontier_ns`.  A BC backward level
    (``sweep``) re-reads the edges landing on the next level in a
    scan-shaped sweep: ``push`` is (|L_d|, their out-edges), ``pull``
    (|L_d+1|, their in-edges), priced by
    :meth:`CSRArraysView.partial_scan_ns`.  Each price is what the
    matching ``account_*`` hook charges under the view's own geometry,
    and either side reads the same landing edges, so each level costs the
    lower of its two charges and no run costs more than under any other
    rule.  A tie goes to the push, GAPBS's side.
    """
    if sweep:
        pulls = view.partial_scan_ns(*pull) < view.partial_scan_ns(*push)
        view.account_partial_scan(*(pull if pulls else push), serial_fraction=serial_fraction)
    else:
        pulls = view.frontier_ns(*pull) < view.frontier_ns(*push)
        view.account_frontier(*(pull if pulls else push), serial_fraction=serial_fraction)
    return pulls


__all__ = ["BOTTOM_UP_EDGE_SHARE", "multi_arange", "gather_edges", "pull_if_cheaper"]
