"""DGAP wrapped in the common compared-system interface.

All insert costs come from the simulated substrate (no software-path
calibration constant — the whole point of DGAP is that its protocol
*is* the cost).  The analysis geometry is derived from the live PMA
state: gap overhead = how much of the edge array a full scan streams
beyond the useful edges; chain share = pending edge-log entries per
edge.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import costs
from ..analysis.view import CSRArraysView, StorageGeometry
from ..config import DGAPConfig
from ..core.batch import EdgeBatch
from ..core.dgap import DGAP
from ..core.edge_log import ENTRY_BYTES
from .interfaces import DynamicGraphSystem


class DGAPSystem(DynamicGraphSystem):
    """The paper's contribution, as a compared system."""

    name = "dgap"
    #: rebalances briefly lock whole section windows (paper: |log v|
    #: section locks; Table 3 shows ~2.9-3.4x at 16 threads before the
    #: media-bandwidth ceiling).
    insert_serial_fraction = 0.04
    sw_overhead_ns = 0.0

    def __init__(
        self,
        num_vertices: int,
        expected_edges: int,
        config: Optional[DGAPConfig] = None,
    ):
        super().__init__()
        self.config = config or DGAPConfig(
            init_vertices=num_vertices, init_edges=expected_edges
        )
        self.graph = DGAP(self.config)
        #: what kernels carry from one of this store's views to the next
        #: (DESIGN.md §7); every view built here shares it
        self._carry: dict = {}

    # -- updates ------------------------------------------------------------
    def insert_edge(self, src: int, dst: int) -> None:
        self.graph.insert_edge(src, dst)
        self._sw_edges += 1

    def insert_batch(self, batch: EdgeBatch) -> int:
        """Hand the whole batch to DGAP's section-grouped pipeline."""
        n = self.graph.insert_edges(batch)
        self._sw_edges += n
        return n

    # -- analysis -------------------------------------------------------------
    @property
    def view_epoch(self) -> int:
        """DGAP's own structure epoch keys whole-view reuse."""
        return int(self.graph.structure_epoch)

    def view_counters(self):
        """Whole-view reuse + incremental-materialization counters."""
        c = self.graph.view_cache.stats[0].as_dict()
        c["whole_view_hits"] = self.view_stats.hits
        c["view_builds"] = self.view_stats.builds
        c["sections_total"] = int(self.graph.ea.n_sections)
        return c

    def _build_view(self) -> CSRArraysView:
        if self.view_caching:
            (indptr, dsts), inn = self.graph.view_cache.materialize()
            derived = {"in": inn}
        else:
            # From-scratch path.  No defensive copy: to_csr builds its
            # arrays by fancy indexing / fresh allocation and never
            # returns views into the persistent buffers (the aliasing
            # test in tests/test_view_cache.py pins this).
            with self.graph.consistent_view() as snap:
                indptr, dsts = snap.to_csr()
            derived = None
        ne = max(1, int(indptr[-1]))
        nv = self.graph.num_vertices
        live_log = float(self.graph.logs.live_counts.sum())
        chain_share = live_log / ne
        # Full scans read each vertex's run via the vertex array: gaps
        # are skipped, but run boundaries waste partial cache lines
        # (~16 B per vertex — low-degree vertices pack several runs per
        # line), and the per-section edge logs are streamed for their
        # pending entries.
        scan_overhead = (nv * 16.0 + live_log * ENTRY_BYTES) / (ne * costs.EDGE_BYTES)
        geometry = StorageGeometry(
            name="dgap",
            edge_bytes=costs.EDGE_BYTES,
            scan_overhead=scan_overhead,
            # per-vertex degree-cache + start lookups are DRAM; the PM
            # random access per frontier vertex includes the chance of a
            # run straddling cache lines and the el-pointer check.
            scan_rnd_per_vertex=0.0,
            frontier_rnd_per_vertex=1.35,
            frontier_rnd_ns=costs.PM_RND_NS,
            chain_rnd_per_edge=chain_share,
            chain_rnd_ns=costs.PM_RND_NS,
        )
        # the mark moves exactly when a row may have lost an entry since
        # an older view: a tombstone raises the count, a filtered rewrite
        # (compaction, lossy repair) moves history_epoch
        mark = (self.graph.history_epoch, self.graph.tombstone_count())
        return CSRArraysView(indptr, dsts, geometry, derived, carry=self._carry, mark=mark)

    def _devices(self):
        return (self.graph.pool.device,)


__all__ = ["DGAPSystem"]
