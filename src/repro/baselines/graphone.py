"""GraphOne-FD: DRAM edge list + adjacency archive, flushed to PM (§4.1).

GraphOne [33] appends new edges to an in-DRAM circular edge list and
archives them into a DRAM blocked adjacency list in the background;
durability comes from flushing the edge list to non-volatile storage.
The paper's port ("GraphOne-FD", Flushing-DRAM) flushes to PM every
2^16 inserts and leaves analysis entirely in DRAM — fast on BFS-style
random access (Fig. 8's winner), but its adjacency list's poor cache
locality loses the full-scan kernels to DGAP despite running from DRAM
(the paper's own Fig. 7 observation).

A window of up to 2^16 acknowledged-but-unflushed edges can be lost on
a crash — the data-loss risk the paper accepts to make GO-FD fast.
"""

from __future__ import annotations

from typing import List

from ..analysis import costs
from ..analysis.view import CSRArraysView, StorageGeometry
from ..core.batch import EdgeBatch, extend_adjacency
from ..pmem.device import PMemDevice
from ..pmem.latency import DRAM
from ..pmem.pool import PMemPool
from .interfaces import AL_BLOCK_EDGES, DynamicGraphSystem, block_list_csr

#: durable-phase flush period (paper: every 2^16 inserts).
FLUSH_PERIOD = 1 << 16
#: archiving batch (edge list -> adjacency list) granularity.
ARCHIVE_BATCH = 1 << 10


class GraphOneFD(DynamicGraphSystem):
    """GraphOne with periodic PM flushing of the durable edge list."""

    name = "graphone"
    #: archiving and the durable phase serialize (Table 3: ~2.3x at 16T).
    insert_serial_fraction = 0.40
    #: atomics + hash lookups + memory management per edge, calibrated to
    #: Fig. 6 Orkut (1.23 MEPS) after substrate costs.
    sw_overhead_ns = 560.0

    def __init__(self, num_vertices: int, expected_edges: int):
        super().__init__()
        self.num_vertices = num_vertices
        self.pool = PMemPool(max(1 << 20, expected_edges * 16 + (1 << 20)), name="graphone-pm")
        self.dram = PMemDevice(1 << 20, profile=DRAM, name="graphone-dram")
        self.adj: List[List[int]] = [[] for _ in range(num_vertices)]
        self._since_flush = 0
        self._since_archive = 0
        self.flushes = 0

    # -- updates ------------------------------------------------------------
    def insert_edge(self, src: int, dst: int) -> None:
        self.adj[src].append(dst)
        self._note_mutation()  # analysis reads adj directly
        self._sw_edges += 1
        self._since_flush += 1
        self._since_archive += 1
        if self._since_archive >= ARCHIVE_BATCH:
            self._archive(self._since_archive)
            self._since_archive = 0
        if self._since_flush >= FLUSH_PERIOD:
            self._flush(self._since_flush)
            self._since_flush = 0

    def insert_batch(self, batch: EdgeBatch) -> int:
        """Natural batch path: bulk adjacency extend + boundary-exact
        archive/flush chunks (accounting-identical to the per-edge loop,
        which always archives exactly ``ARCHIVE_BATCH`` and flushes
        exactly ``FLUSH_PERIOD`` edges at a time)."""
        n = len(batch)
        if n == 0:
            return 0
        extend_adjacency(self.adj, batch.src, batch.dst)
        self._note_mutation()
        self._sw_edges += n
        n_arch, self._since_archive = divmod(self._since_archive + n, ARCHIVE_BATCH)
        for _ in range(n_arch):
            self._archive(ARCHIVE_BATCH)
        n_flush, self._since_flush = divmod(self._since_flush + n, FLUSH_PERIOD)
        for _ in range(n_flush):
            self._flush(FLUSH_PERIOD)
        return n

    def _archive(self, n: int) -> None:
        # edge-list append + adjacency-list insert: head lookup + block
        # write, occasionally a block allocation/link — all DRAM.
        self.dram.account_rnd_read(n, 8)  # head lookup
        self.dram.account_rnd_write(n, 4)  # AL write
        self.dram.account_rnd_write(n // AL_BLOCK_EDGES + 1, 8)

    def _flush(self, n: int) -> None:
        """Durable phase: stream the edge-list window to PM."""
        self.pool.device.account_seq_write(n * 16)
        self.pool.device.sfence()
        self.flushes += 1

    def finalize(self) -> None:
        if self._since_archive:
            self._archive(self._since_archive)
            self._since_archive = 0
        if self._since_flush:
            self._flush(self._since_flush)
            self._since_flush = 0

    # -- analysis -------------------------------------------------------------
    def _build_view(self) -> CSRArraysView:
        indptr, dsts, chain = block_list_csr(self.adj)
        geometry = StorageGeometry(
            name="graphone",
            seq_ns_per_byte=costs.DRAM_SEQ_NS_PER_BYTE,  # analysis from DRAM
            edge_bytes=costs.EDGE_BYTES,
            # block chains: one DRAM line per 16-edge block + head lookup
            scan_rnd_per_vertex=chain,
            scan_rnd_ns=costs.DRAM_RND_NS,
            # BFS touches a vertex's first block(s) only; full-coverage
            # frontier reads (BC's backward pass) chase one DRAM line
            # per 16-edge block
            frontier_rnd_per_vertex=1.2,
            frontier_rnd_ns=costs.DRAM_RND_NS,
            chain_rnd_per_edge=1.0 / AL_BLOCK_EDGES,
            chain_rnd_ns=costs.DRAM_RND_NS,
        )
        return CSRArraysView(indptr, dsts, geometry)

    def _devices(self):
        return (self.pool.device, self.dram)


__all__ = ["GraphOneFD", "FLUSH_PERIOD"]
