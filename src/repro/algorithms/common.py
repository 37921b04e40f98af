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
) -> bool:
    """Charge one BFS/BC level for the direction its view prices lower,
    and say whether that is the pull.

    ``push`` is ``(|frontier|, their out-edges)``, ``pull`` is
    ``(|unvisited|, the in-edges a pull reads)``.  Both are priced by
    :meth:`CSRArraysView.frontier_ns` — the value ``account_frontier``
    charges — under the view's own geometry.  A level discovers the same
    vertices whichever way it runs, so each level costs the lower of its
    two charges and no run costs more than under any other rule.
    """
    pulls = view.frontier_ns(*pull) < view.frontier_ns(*push)
    view.account_frontier(*(pull if pulls else push), serial_fraction=serial_fraction)
    return pulls


__all__ = ["BOTTOM_UP_EDGE_SHARE", "multi_arange", "gather_edges", "pull_if_cheaper"]
