"""Blocked Adjacency List on persistent memory (paper §4.1).

Per-vertex chains of fixed 256-byte blocks (one XPLine: an 8-byte next
pointer + up to 62 4-byte edges).  Appends are one small persistent
random write; growing a chain allocates and links a new block under a
PMDK transaction — the journaling the paper blames for BAL losing to
DGAP on insertions "in many cases" despite its append-friendly shape.
The head-pointer table lives on PM (it's the recovery root); tail
cursors are DRAM.

Analysis pays the classic pointer-chasing tax: one random PM line per
block plus padding bytes — the Fig. 7 "poor graph analysis" extreme.
Locking is vertex-grained (finer than DGAP's sections), which is why
the paper sees BAL scale slightly better with many writer threads
(§4.2.1); we model that as a near-zero serial fraction.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..analysis.view import CSRArraysView, StorageGeometry
from ..analysis import costs
from ..errors import VertexRangeError
from ..pmem.pool import PMemPool
from ..pmem.tx import TransactionManager
from .interfaces import DynamicGraphSystem, adjacency_to_csr

BLOCK_BYTES = 256
BLOCK_EDGES = (BLOCK_BYTES - 8) // 4  # 62


class BlockedAdjacencyList(DynamicGraphSystem):
    """Per-vertex block chains on PM."""

    name = "bal"
    insert_serial_fraction = 0.015  # vertex-grained locks: near-perfect scaling
    #: small residual software path (vertex lookup, tail bookkeeping);
    #: the substrate covers the persistence costs.
    sw_overhead_ns = 25.0

    def __init__(self, num_vertices: int, expected_edges: int):
        super().__init__()
        self.num_vertices = num_vertices
        blocks = expected_edges // BLOCK_EDGES + num_vertices + 16
        pool_bytes = blocks * BLOCK_BYTES * 2 + num_vertices * 8 + (1 << 20)
        self.pool = PMemPool(pool_bytes, name="bal")
        self.heads = self.pool.alloc_array("heads", np.int64, num_vertices, initial=0)
        self.txm = TransactionManager(self.pool, capacity=4096, name="bal-journal")

        # DRAM bookkeeping
        self.tail_off = np.full(num_vertices, -1, dtype=np.int64)
        self.tail_count = np.zeros(num_vertices, dtype=np.int64)
        self.degree = np.zeros(num_vertices, dtype=np.int64)
        self.block_lists: List[List[int]] = [[] for _ in range(num_vertices)]

    # -- updates ------------------------------------------------------------
    def insert_edge(self, src: int, dst: int) -> None:
        if not (0 <= src < self.num_vertices and 0 <= dst < self.num_vertices):
            raise VertexRangeError(f"edge ({src}, {dst}) outside [0, {self.num_vertices})")
        dev = self.pool.device
        tail = int(self.tail_off[src])
        cnt = int(self.tail_count[src])
        if tail < 0 or cnt == BLOCK_EDGES:
            # Grow the chain: journaled allocation + link (the expensive path).
            with self.txm.tx() as t:
                off = self.pool.alloc(BLOCK_BYTES)
                if tail < 0:
                    t.add_region(self.heads, src, 1)
                    self.heads.write(src, off + 1, payload=0, persist=True)
                else:
                    t.add(tail, 8)  # previous block's next pointer
                    dev.store(tail, np.int64(off + 1).tobytes(), payload=0)
                    dev.persist(tail, 8)
            self.block_lists[src].append(off)
            self.tail_off[src] = tail = off
            self.tail_count[src] = cnt = 0
        pos = tail + 8 + cnt * 4
        dev.store(pos, np.int32(dst).tobytes(), payload=4)
        dev.persist(pos, 4)
        self.tail_count[src] = cnt + 1
        self.degree[src] += 1
        self._note_mutation()
        self._sw_edges += 1

    # -- analysis -------------------------------------------------------------
    def _build_view(self) -> CSRArraysView:
        nv = self.num_vertices
        buf = self.pool.device.buf

        def blocks(v):
            remaining = int(self.degree[v])
            for off in self.block_lists[v]:
                take = min(remaining, BLOCK_EDGES)
                yield buf[off + 8 : off + 8 + take * 4].view(np.int32)
                remaining -= take

        indptr, dsts = adjacency_to_csr(self.degree, ((v, blocks(v)) for v in range(nv)))
        total_blocks = sum(len(b) for b in self.block_lists)
        used_edges = max(1, int(indptr[-1]))
        geometry = StorageGeometry(
            name="bal",
            # whole blocks are read: padding + header bytes per edge
            edge_bytes=total_blocks * BLOCK_BYTES / used_edges,
            # pointer chase: one random PM line per block; allocation
            # order makes consecutive blocks partially prefetchable
            # during full scans
            scan_rnd_per_vertex=0.6 * total_blocks / nv,
            scan_rnd_ns=costs.PM_RND_NS,
            # head-table lookup + the block chain itself
            frontier_rnd_per_vertex=1.0
            + max(1.0, total_blocks / max(1, np.count_nonzero(self.degree))),
            frontier_rnd_ns=costs.PM_RND_NS,
        )
        return CSRArraysView(indptr, dsts, geometry)

    def _devices(self):
        return (self.pool.device,)


__all__ = ["BlockedAdjacencyList", "BLOCK_BYTES", "BLOCK_EDGES"]
