"""LLAMA: multi-versioned CSR with batched snapshots (paper §4.1, [42]).

Updates buffer in a DRAM delta map; every ``batch_edges`` inserts (1% of
the expected edges: the paper snapshots each 1% of the graph, 90
snapshots after warm-up) a new immutable snapshot is written to PM: the
batch's edges as per-vertex *fragments* plus a copy-on-write **vertex
table** of |V| entries — the O(|V|)-per-snapshot cost that makes LLAMA's
insert throughput collapse on vertex-heavy graphs (CitPatents in
Table 3).  Every ``FLATTEN_EVERY`` snapshots LLAMA coalesces each
vertex's fragments into one (the multiversion arrays' periodic
flattening), bounding chain lengths.

Analysis reads the *latest snapshot only*: the pending delta is
invisible, so LLAMA's analysis can miss up to one batch of edges —
the staleness the paper calls out.  Scans stream fragments in snapshot
order (prefetch-friendly); frontier reads chase each touched vertex's
fragment chain at random-read cost, which is why LLAMA loses worst on
BFS/BC (Fig. 8).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..analysis import costs
from ..analysis.view import CSRArraysView, StorageGeometry
from ..core.batch import EdgeBatch
from ..pmem.device import PMemDevice
from ..pmem.latency import DRAM
from ..pmem.pool import PMemPool
from .interfaces import DynamicGraphSystem, adjacency_to_csr

#: prefetch discount on fragment-boundary stalls during sequential scans.
_SCAN_FRAG_DISCOUNT = 0.35
#: snapshots between two flattenings of every vertex's fragments.
FLATTEN_EVERY = 8


class LLAMA(DynamicGraphSystem):
    """Multi-versioned CSR snapshots on PM."""

    name = "llama"
    #: snapshot creation is single-threaded in LLAMA's writer (Table 3:
    #: ~1.3x speedup at 16 threads).
    insert_serial_fraction = 0.72
    #: delta-map management + snapshot bookkeeping per edge, calibrated
    #: to Fig. 6 Orkut (1.84 MEPS) after substrate costs.
    sw_overhead_ns = 430.0

    def __init__(self, num_vertices: int, expected_edges: int):
        super().__init__()
        self.num_vertices = num_vertices
        self.batch_edges = max(1, expected_edges // 100)
        pool_bytes = expected_edges * 4 * 4 + num_vertices * 8 * 8 + (1 << 20)
        self.pool = PMemPool(pool_bytes, name="llama")
        self.dram = PMemDevice(1 << 20, profile=DRAM, name="llama-dram")

        self._delta: List[tuple] = []
        self._frags: Dict[int, List[np.ndarray]] = {}
        self._degree = np.zeros(num_vertices, dtype=np.int64)  # snapshotted degree
        self.n_snapshots = 0

    # -- updates ------------------------------------------------------------
    def insert_edge(self, src: int, dst: int) -> None:
        self._delta.append((src, dst))
        self._sw_edges += 1
        if len(self._delta) >= self.batch_edges:
            self._create_snapshot()

    def insert_batch(self, batch: EdgeBatch) -> int:
        """Natural batch path: fill the delta map to each snapshot
        boundary, snapshotting exactly ``batch_edges`` at a time — the
        same delta contents and flatten cadence as the per-edge loop."""
        n = len(batch)
        if n == 0:
            return 0
        self._sw_edges += n
        src_l, dst_l = batch.src.tolist(), batch.dst.tolist()
        pos = 0
        while pos < n:
            take = min(self.batch_edges - len(self._delta), n - pos)
            self._delta.extend(zip(src_l[pos : pos + take], dst_l[pos : pos + take]))
            pos += take
            if len(self._delta) >= self.batch_edges:
                self._create_snapshot()
        return n

    def finalize(self) -> None:
        """Snapshot any pending delta so analysis sees the full graph."""
        if self._delta:
            self._create_snapshot()

    def _create_snapshot(self) -> None:
        edges = np.asarray(self._delta, dtype=np.int64)
        self._delta.clear()
        self.n_snapshots += 1
        # Analysis sees snapshots only, so the view epoch advances here
        # (not per insert) — preserving LLAMA's analysis-staleness
        # semantics: views between snapshots reuse the last one.
        self._note_mutation()
        # group the batch by source: per-vertex fragments, written
        # sequentially (one streaming store for the whole delta)
        order = np.argsort(edges[:, 0], kind="stable")
        srcs = edges[order, 0]
        dsts = edges[order, 1].astype(np.int32)
        bounds = np.flatnonzero(np.diff(srcs)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(srcs)]])
        for a, b in zip(starts, ends):
            v = int(srcs[a])
            self._frags.setdefault(v, []).append(dsts[a:b])
            self._degree[v] += b - a
        self.pool.device.account_seq_write(len(srcs) * 4)
        # copy-on-write vertex table: the O(|V|) per-snapshot cost
        self.dram.account_rnd_read(self.num_vertices, 16)
        self.pool.device.account_seq_write(self.num_vertices * 8)
        if self.n_snapshots % FLATTEN_EVERY == 0:
            self._flatten()

    def _flatten(self) -> None:
        """Coalesce every vertex's fragments into one (bounds chain length)."""
        nbytes = 0
        for v, frags in self._frags.items():
            if len(frags) > 1:
                merged = np.concatenate(frags)
                self._frags[v] = [merged]
                nbytes += merged.size * 4
        if nbytes:
            self.pool.device.account_seq_read(nbytes)
            self.pool.device.account_seq_write(nbytes)

    # -- analysis -------------------------------------------------------------
    def _build_view(self) -> CSRArraysView:
        nv = self.num_vertices
        indptr, dsts = adjacency_to_csr(self._degree, self._frags.items())
        total_frags = sum(len(frags) for frags in self._frags.values())
        touched = max(1, len(self._frags))
        geometry = StorageGeometry(
            name="llama",
            edge_bytes=costs.EDGE_BYTES,
            # snapshot-ordered scans prefetch well across fragments
            scan_rnd_per_vertex=total_frags / nv * _SCAN_FRAG_DISCOUNT + 1.0 * _SCAN_FRAG_DISCOUNT,
            scan_rnd_ns=costs.PM_RND_NS,
            # frontier reads chase the whole chain + the version table,
            # and every edge read passes the multi-version indirection
            # (the BC catastrophe of Fig. 8)
            frontier_rnd_per_vertex=0.75 * total_frags / touched + 1.0,
            frontier_rnd_ns=costs.PM_RND_NS,
            chain_rnd_per_edge=0.35,
            chain_rnd_ns=costs.PM_RND_NS,
        )
        return CSRArraysView(indptr, dsts, geometry)

    def _devices(self):
        return (self.pool.device, self.dram)


__all__ = ["LLAMA"]
