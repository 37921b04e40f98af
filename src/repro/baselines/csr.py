"""Static Compressed Sparse Row on persistent memory (paper §4.1).

The GAPBS CSR ported to PM: immutable, built in one pass with
non-temporal streaming stores, and the analysis-performance baseline
every Fig. 7/8 number is normalized to.  ``insert_edge`` after
construction raises — CSR "cannot be updated" (§4.1) — which is exactly
why it exists as a baseline rather than a contender.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..analysis.view import CSR_PM_GEOMETRY, CSRArraysView
from ..errors import ImmutableGraphError
from ..pmem.latency import OPTANE_ADR, LatencyModel
from ..pmem.pool import PMemPool
from .interfaces import DynamicGraphSystem, adjacency_to_csr


class StaticCSR(DynamicGraphSystem):
    """Immutable CSR, built once on PM."""

    name = "csr"
    insert_serial_fraction = 0.0

    def __init__(
        self,
        num_vertices: int,
        edges: np.ndarray,
        profile: LatencyModel = OPTANE_ADR,
    ):
        super().__init__()
        edges = np.asarray(edges, dtype=np.int64)
        self.num_vertices = num_vertices
        ne = edges.shape[0]
        pool_bytes = max(1 << 20, (num_vertices + 1) * 8 + ne * 4 + (1 << 16))
        self.pool = PMemPool(pool_bytes, profile=profile, name="csr")

        # source-sorted, the destination column is one piece that fills
        # every slot from vertex 0's on
        order = np.argsort(edges[:, 0], kind="stable")
        indptr, sorted_dst = adjacency_to_csr(
            np.bincount(edges[:, 0], minlength=num_vertices),
            [(0, (edges[order, 1],))],
        )

        self.indptr_region = self.pool.alloc_array("indptr", np.int64, num_vertices + 1)
        self.indptr_region.nt_write_slice(0, indptr)
        self.dsts_region = self.pool.alloc_array("dsts", np.int32, max(ne, 1))
        if ne:
            self.dsts_region.nt_write_slice(0, sorted_dst)
        self.pool.device.sfence()
        self._ne = ne
        self._sw_edges = ne

    # -- updates ------------------------------------------------------------
    def insert_edge(self, src: int, dst: int) -> None:
        raise ImmutableGraphError("static CSR cannot be updated without a rebuild")

    # -- analysis -------------------------------------------------------------
    def _build_view(self) -> CSRArraysView:
        # Immutable: the view epoch never advances, so the base class
        # serves every call after the first from the cached view.
        indptr = self.indptr_region.view
        dsts = self.dsts_region.view[: self._ne]
        return CSRArraysView(indptr, dsts, CSR_PM_GEOMETRY)

    def _devices(self):
        return (self.pool.device,)


__all__ = ["StaticCSR"]
