"""Graph views: the bridge between kernels and storage frameworks.

The four GAPBS kernels (PR, BFS, BC, CC) are framework-agnostic: they
*compute* on materialized CSR arrays (NumPy — the only way to run graph
kernels at tolerable speed in Python) and *account* their memory access
pattern through three hooks:

* :meth:`CSRArraysView.account_full_scan` — one sweep over every
  vertex's edges (a PR/CC iteration);
* :meth:`CSRArraysView.account_frontier` — random access to a subset of
  vertices' edge lists (a BFS/BC level);
* :meth:`CSRArraysView.account_partial_scan` — a level-ordered sweep
  over part of the graph (a BC backward level).

The charge is for the reads the modeled engine makes, not for the NumPy
arrays the kernel happens to index: a kernel may compute from edges it
recorded earlier, or from the out-rows, while it is charged for reading
the same edges from whichever side its view prices lower
(``frontier_ns`` / ``partial_scan_ns``, each equal to its hook's charge).

Each framework's :class:`StorageGeometry` translates the pattern into
modeled time: a CSR scan streams |E| PM bytes; a blocked adjacency list
pays a random line per block; DGAP also scans its PMA gaps and walks
edge-log chains; LLAMA chases per-snapshot fragments; the DRAM-cached
systems (GraphOne, XPGraph) pay DRAM latencies.  This is what makes
Fig. 7/8's *who-wins-where* reproducible: identical kernels (as in the
paper, which uses the same GAPBS code for every system), different
storage-access costs.  Geometry parameters are derived from the live
simulated structures where possible (actual gap ratios, block fills,
fragment counts) and from the calibrated constants in ``costs.py``
otherwise.

Thread scaling (Table 4) is modeled per Amdahl: each charge is split
into a parallelizable part and a serial part (``serial_fraction``), and
:meth:`AnalysisClock.seconds` evaluates the time at a given thread
count.  The CC kernel declares a larger serial fraction, reproducing
the paper's observation that CC scales poorly on every framework due to
its ``parallel for`` scheduling (§4.3.1) — a compiler artifact we model
rather than inherit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import costs

#: CSR index conventions, shared by every view and kernel: vertex ids
#: (dsts, srcs and the derived id arrays) are 4-byte — the paper stores
#: 4 B destination ids and no simulated graph approaches 2^31 vertices —
#: while indptr offsets are 8-byte (edge counts can exceed int32).
ID_DTYPE = np.int32
INDPTR_DTYPE = np.int64


def build_in_csr(
    out_indptr: np.ndarray, out_dsts: np.ndarray, nv: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference in-CSR: ``(in_indptr, in_srcs)`` from an out-CSR.

    ``in_srcs`` is ordered by (dst, src, insertion order) via one stable
    sort — the single source of truth the incremental delta merge in
    :mod:`repro.analysis.viewcache` must reproduce bit-for-bit (float
    summation order in PR's ``bincount`` depends on it).
    """
    return build_in_csr_from(
        out_indptr, out_dsts, np.arange(nv, dtype=ID_DTYPE), nv
    )


def build_in_csr_from(
    out_indptr: np.ndarray,
    out_dsts: np.ndarray,
    src_ids: np.ndarray,
    dst_nv: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """In-CSR where row ``i`` carries source id ``src_ids[i]``.

    Generalizes :func:`build_in_csr` for sharded builds: a shard's rows
    are local ids but its sources live in the *global* id space, and its
    destinations span the global domain of ``dst_nv`` vertices.  With
    ``src_ids == arange(nv)`` and ``dst_nv == nv`` this is byte-identical
    to the unsharded builder.  ``src_ids`` must ascend for the
    (dst, src, insertion) order contract to hold.
    """
    srcs = np.repeat(np.asarray(src_ids, dtype=ID_DTYPE), np.diff(out_indptr))
    order = np.argsort(out_dsts, kind="stable")
    counts = np.bincount(out_dsts, minlength=dst_nv)
    in_indptr = np.zeros(dst_nv + 1, dtype=INDPTR_DTYPE)
    np.cumsum(counts, out=in_indptr[1:])
    return in_indptr, srcs[order]


def merge_in_streams(
    a_dst: np.ndarray, a_srcs: np.ndarray, b_dst: np.ndarray, b_srcs: np.ndarray, nv: int
) -> np.ndarray:
    """``in_srcs`` of two in-streams merged, each given as its entries'
    ``(dst, src)`` columns in :func:`build_in_csr` order.

    No ``(dst, src)`` key may occur in both streams (a source is wholly
    in one: a shard's, or a view patch's stale / clean side), so one
    ``searchsorted`` on ``dst * nv + src`` places every entry of ``b``
    and the result is in ``(dst, src, insertion)`` order again — what
    one stable sort of the union would give.  ``nv`` only has to exceed
    every source id.
    """
    a_key = a_dst * nv + a_srcs
    b_key = b_dst * nv + b_srcs
    pos_b = np.searchsorted(a_key, b_key, side="left") + np.arange(b_key.size)
    total = a_key.size + b_key.size
    srcs = np.empty(total, dtype=ID_DTYPE)
    a_mask = np.ones(total, dtype=bool)
    a_mask[pos_b] = False
    srcs[pos_b] = b_srcs
    srcs[a_mask] = a_srcs
    return srcs


class AnalysisClock:
    """Accumulated modeled analysis time, split for Amdahl scaling."""

    __slots__ = ("par_ns", "ser_ns")

    def __init__(self) -> None:
        self.par_ns = 0.0
        self.ser_ns = 0.0

    def charge(self, ns: float, serial_fraction: float = 0.0) -> None:
        self.ser_ns += ns * serial_fraction
        self.par_ns += ns * (1.0 - serial_fraction)

    def seconds(self, threads: int = 1) -> float:
        return (self.ser_ns + self.par_ns / max(1, threads)) * 1e-9

    def reset(self) -> None:
        self.par_ns = 0.0
        self.ser_ns = 0.0


@dataclass(frozen=True)
class StorageGeometry:
    """How expensive it is to read edges out of one framework's layout."""

    name: str
    #: stream cost per byte of edge payload (PM or DRAM rate).
    seq_ns_per_byte: float = costs.PM_SEQ_NS_PER_BYTE
    #: bytes read per edge during streams (>= the 4 B id when headers /
    #: padding are interleaved, e.g. BAL's 256 B blocks at partial fill).
    edge_bytes: float = costs.EDGE_BYTES
    #: multiplier on streamed bytes during full scans (PMA gaps, version
    #: padding); 0.3 means 30% extra bytes.
    scan_overhead: float = 0.0
    #: random accesses per vertex during a full scan (fragment chains,
    #: per-vertex head lookups that miss cache) and their latency.
    scan_rnd_per_vertex: float = 0.0
    scan_rnd_ns: float = costs.PM_RND_NS
    #: random accesses per vertex during frontier expansion (one per
    #: vertex for a flat CSR; more for block/fragment chains).
    frontier_rnd_per_vertex: float = 1.0
    frontier_rnd_ns: float = costs.PM_RND_NS
    #: extra random 12 B reads per edge during *frontier* access (DGAP's
    #: pending edge-log back-pointer walks).  Full scans read the logs
    #: sequentially instead — fold those bytes into ``scan_overhead``.
    chain_rnd_per_edge: float = 0.0
    chain_rnd_ns: float = costs.PM_RND_NS

    def scan_ns(self, n_vertices: int, n_edges: int) -> float:
        ns = n_edges * self.edge_bytes * (1.0 + self.scan_overhead) * self.seq_ns_per_byte
        ns += n_vertices * self.scan_rnd_per_vertex * self.scan_rnd_ns
        return ns

    def frontier_ns(self, n_vertices: int, n_edges: int) -> float:
        ns = n_vertices * self.frontier_rnd_per_vertex * self.frontier_rnd_ns
        ns += n_edges * self.edge_bytes * self.seq_ns_per_byte
        ns += n_edges * self.chain_rnd_per_edge * self.chain_rnd_ns
        return ns


#: flat CSR on persistent memory — the analysis-optimal baseline.
CSR_PM_GEOMETRY = StorageGeometry(name="csr-pm")


class CSRArraysView:
    """Storage-aware view over explicit ``(indptr, dsts)`` arrays: the
    CSR every system materializes, plus access-cost accounting under a
    given :class:`StorageGeometry`.

    Derived arrays (the in-CSR, out- and in-degrees, the repeated-id
    arrays the kernels need) live in a ``_derived`` dict that clones of
    a view *share*: running PR then BFS on views of the same unchanged
    graph builds the in-CSR once.  The :class:`AnalysisClock` is
    per-view, so one caller's ``reset_clock`` never disturbs another's
    accounting.

    A store that keeps its views' history hands each one a ``carry``
    dict, shared by every view of that store, where a kernel may leave
    results for the next view's run, and a ``mark``: a value that stays
    equal between two views exactly as long as the newer one's rows only
    grew by appends (DESIGN.md §7).  A view with no carry
    (``carry is None``) is analyzed from scratch.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        dsts: np.ndarray,
        geometry: StorageGeometry = CSR_PM_GEOMETRY,
        derived: Optional[Dict[str, object]] = None,
        *,
        carry: Optional[Dict[str, object]] = None,
        mark: object = None,
    ):
        self.clock = AnalysisClock()
        self._derived: Dict[str, object] = {} if derived is None else derived
        self._indptr = indptr
        self._dsts = dsts
        self.geometry = geometry
        self.carry = carry
        self.mark = mark

    def clone(self) -> "CSRArraysView":
        """Fresh view (own clock) sharing this view's arrays, derived
        cache, carry and mark — the epoch-keyed whole-view reuse handed
        out by
        :meth:`repro.baselines.interfaces.DynamicGraphSystem.analysis_view`."""
        return CSRArraysView(
            self._indptr, self._dsts, self.geometry, derived=self._derived,
            carry=self.carry, mark=self.mark,
        )

    # -- structure ---------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        return int(self._indptr[-1])

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._indptr, self._dsts

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        inn = self._derived.get("in")
        if inn is None:
            indptr, dsts = self.out_csr()
            inn = build_in_csr(indptr, dsts, self.num_vertices)
            self._derived["in"] = inn
        return inn  # type: ignore[return-value]

    def out_degrees(self) -> np.ndarray:
        deg = self._derived.get("out_degrees")
        if deg is None:
            indptr, _ = self.out_csr()
            deg = np.diff(indptr)
            self._derived["out_degrees"] = deg
        return deg  # type: ignore[return-value]

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex, cached: read off the in-CSR's
        indptr when that is already built, else counted from the out-CSR."""
        deg = self._derived.get("in_degrees")
        if deg is None:
            inn = self._derived.get("in")
            if inn is None:
                _, dsts = self.out_csr()
                deg = np.bincount(dsts, minlength=self.num_vertices)
            else:
                deg = np.diff(inn[0])  # type: ignore[index]
            self._derived["in_degrees"] = deg
        return deg  # type: ignore[return-value]

    def out_src_ids(self) -> np.ndarray:
        """Source id of every out-CSR entry, cached.

        Derived id arrays are ``np.intp`` (not ``ID_DTYPE``): the kernels
        use them as fancy-index/scatter operands every iteration, and
        NumPy re-casts any other integer dtype to ``intp`` per call.
        """
        ids = self._derived.get("out_src_ids")
        if ids is None:
            ids = np.repeat(
                np.arange(self.num_vertices, dtype=np.intp), self.out_degrees()
            )
            self._derived["out_src_ids"] = ids
        return ids  # type: ignore[return-value]

    # -- accounting ---------------------------------------------------------------
    def account_full_scan(self, serial_fraction: float = 0.02) -> None:
        ne = self.num_edges
        ns = self.geometry.scan_ns(self.num_vertices, ne)
        ns += ne * costs.COMPUTE_NS_PER_EDGE
        self.clock.charge(ns, serial_fraction)

    def frontier_ns(self, n_vertices: int, n_edges: int) -> float:
        """What :meth:`account_frontier` charges for visiting
        ``n_vertices`` edge lists holding ``n_edges`` edges — the price a
        BFS/BC level compares before it picks a direction."""
        return self.geometry.frontier_ns(n_vertices, n_edges) + n_edges * costs.COMPUTE_NS_PER_EDGE

    def account_frontier(
        self, n_vertices: int, n_edges: int, serial_fraction: float = 0.02
    ) -> None:
        self.clock.charge(self.frontier_ns(n_vertices, n_edges), serial_fraction)

    def partial_scan_ns(self, n_vertices: int, n_edges: int) -> float:
        """What :meth:`account_partial_scan` charges for sweeping
        ``n_vertices`` edge lists holding ``n_edges`` edges — the price a
        BC backward level compares before it picks a side."""
        return self.geometry.scan_ns(n_vertices, n_edges) + n_edges * costs.COMPUTE_NS_PER_EDGE

    def account_partial_scan(
        self, n_vertices: int, n_edges: int, serial_fraction: float = 0.02
    ) -> None:
        """Level-ordered sweep over a subgraph (BC's backward pass): the
        vertices are processed in bulk, so the access pattern costs like
        a scan over that part of the graph, not like random probes."""
        self.clock.charge(self.partial_scan_ns(n_vertices, n_edges), serial_fraction)

    def account_compute(self, nbytes: int, serial_fraction: float = 0.02) -> None:
        """Kernel-side DRAM traffic not proportional to edges (frontier
        bitmaps, per-level bookkeeping) — identical across frameworks."""
        self.clock.charge(nbytes * costs.DRAM_SEQ_NS_PER_BYTE, serial_fraction)

    # -- results --------------------------------------------------------------------
    def seconds(self, threads: int = 1) -> float:
        return self.clock.seconds(threads)

    def reset_clock(self) -> None:
        self.clock.reset()


__all__ = [
    "AnalysisClock",
    "CSRArraysView",
    "StorageGeometry",
    "CSR_PM_GEOMETRY",
    "ID_DTYPE",
    "INDPTR_DTYPE",
    "build_in_csr",
    "build_in_csr_from",
    "merge_in_streams",
]
