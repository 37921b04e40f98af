"""Common interface for every compared graph system (paper §4.1).

Each system executes its real storage protocol against the simulated
substrate: persistent structures live in a :class:`PMemPool` (modeled
Optane costs), DRAM-side structures in a DRAM-profile device.  Modeled
insert time is whatever those devices accrued, plus a per-edge
``sw_overhead_ns`` constant modeling the framework's software path
(atomics, hashing, allocation) — calibrated once against the paper's
Orkut single-thread MEPS (Fig. 6) and documented per system; DGAP needs
none (its costs come entirely from the substrate).

Thread scaling (Table 3) uses :class:`InsertScalingModel`: time at p
threads is ``max(serial + parallel/p, pm_media_bytes / PM_WRITE_BW)`` —
Amdahl over each architecture's serialization (LLAMA's single-threaded
snapshotting, GraphOne/XPGraph archiving) plus the Optane media
write-bandwidth ceiling that caps every system near 6-8 MEPS in the
paper's 16-thread column.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..analysis.view import CSRArraysView
from ..core.batch import DEFAULT_BATCH_SIZE, EdgeBatch, EdgeLike, sub_batches
from ..pmem.device import PMemDevice

#: Aggregate Optane media write bandwidth of the paper's 6-DIMM testbed
#: (interleaved small writes; well below the pure-stream peak).
PM_WRITE_BW_BYTES_PER_S = 2.3e9
#: DRAM adjacency-list block size, in edges (GraphOne's and XPGraph's
#: chained blocks).
AL_BLOCK_EDGES = 16


@dataclass
class InsertProfile:
    """Everything needed to evaluate insert time at any thread count."""

    edges: int
    modeled_ns: float
    pm_media_bytes: int
    serial_fraction: float

    def seconds(self, threads: int = 1) -> float:
        """Modeled ingest seconds at ``threads`` writer threads."""
        ser = self.modeled_ns * self.serial_fraction
        par = self.modeled_ns - ser
        t = (ser + par / max(1, threads)) * 1e-9
        bw_floor = self.pm_media_bytes / PM_WRITE_BW_BYTES_PER_S
        return max(t, bw_floor) if threads > 1 else t

    def meps(self, threads: int = 1) -> float:
        """Throughput in million edges per second at ``threads`` threads."""
        s = self.seconds(threads)
        return self.edges / s / 1e6 if s > 0 else float("inf")


@dataclass
class ViewReuseStats:
    """Epoch-keyed whole-view reuse counters (see ``analysis_view``)."""

    builds: int = 0
    hits: int = 0


class DynamicGraphSystem(ABC):
    """A graph store under evaluation: ingest a stream, analyze snapshots."""

    name: str = "?"
    #: Amdahl serial fraction of the insert path (see module docstring).
    insert_serial_fraction: float = 0.0
    #: per-edge software-path cost (ns) — calibration, documented per system.
    sw_overhead_ns: float = 0.0
    #: epoch-keyed view reuse (and, for DGAP, incremental CSR
    #: maintenance).  A host-wall-clock optimization only: modeled
    #: times and kernel outputs are identical either way.
    view_caching: bool = True

    def __init__(self) -> None:
        self._sw_edges = 0
        self._view_epoch = 0
        self._view_cache: Optional[Tuple[int, CSRArraysView]] = None
        self.view_stats = ViewReuseStats()

    # -- updates ------------------------------------------------------------
    @abstractmethod
    def insert_edge(self, src: int, dst: int) -> None: ...

    def insert_batch(self, batch: EdgeBatch) -> int:
        """Ingest one :class:`EdgeBatch`; returns accepted mutation count.

        The default replays the batch through :meth:`insert_edge` —
        accounting-identical to the historical per-edge stream.  Each
        system overrides this with its architecture's natural batch path
        (archiving chunks, snapshot deltas, log spans), every override
        preserving scalar-equivalent device accounting.
        """
        for s, d in zip(batch.src.tolist(), batch.dst.tolist()):
            self.insert_edge(s, d)
        return len(batch)

    def insert_edges(
        self, edges: EdgeLike, batch_size: Optional[int] = DEFAULT_BATCH_SIZE
    ) -> int:
        """Insert a stream of edges; returns how many were accepted.

        Accepts an :class:`EdgeBatch`, an ``(N, 2)`` ndarray, or any
        iterable of ``(src, dst)`` pairs — no per-tuple unpacking on the
        array paths.  ``batch_size`` splits the stream into consecutive
        sub-batches (default 512; None or <= 0 = one unbounded batch).
        """
        batch = EdgeBatch.coerce(edges)
        if len(batch) == 0:
            return 0
        return sum(self.insert_batch(c) for c in sub_batches(batch, batch_size))

    def finalize(self) -> None:
        """Flush any buffered state (end of an ingest phase)."""

    # -- analysis -------------------------------------------------------------
    @property
    def view_epoch(self) -> int:
        """Monotone version of the *analyzable* graph.

        Bumped by :meth:`_note_mutation` whenever the graph an
        ``analysis_view`` would expose changes.  Systems whose analysis
        lags ingestion (LLAMA's snapshots) bump on snapshot creation
        instead of per insert — preserving their staleness semantics.
        """
        return self._view_epoch

    def _note_mutation(self) -> None:
        self._view_epoch += 1

    def analysis_view(self) -> CSRArraysView:
        """A view over the system's current analyzable graph.

        Epoch-keyed whole-view reuse: if the analyzable graph did not
        change since the last call, the cached view's arrays and derived
        caches (in-CSR, degree/id arrays) are handed out again under a
        fresh clock.  Each caller always gets its own
        :class:`~repro.analysis.view.AnalysisClock`, so accounting is
        unaffected; disable with ``view_caching = False`` to force
        from-scratch materialization on every call.
        """
        epoch = self.view_epoch
        cached = self._view_cache
        if self.view_caching and cached is not None and cached[0] == epoch:
            self.view_stats.hits += 1
            return cached[1].clone()
        view = self._build_view()
        self.view_stats.builds += 1
        if self.view_caching:
            self._view_cache = (epoch, view)
        return view

    @abstractmethod
    def _build_view(self) -> CSRArraysView:
        """Materialize a fresh view of the current analyzable graph."""

    # -- accounting ---------------------------------------------------------------
    @abstractmethod
    def _devices(self) -> Tuple[PMemDevice, ...]: ...

    def modeled_insert_ns(self) -> float:
        """Total modeled ingest time: device costs + software path."""
        ns = sum(d.stats.modeled_ns for d in self._devices())
        return ns + self._sw_edges * self.sw_overhead_ns

    def pm_media_bytes(self) -> int:
        """Bytes written to persistent media (the bandwidth-cap input)."""
        return sum(
            d.stats.media_bytes for d in self._devices() if not d.profile.volatile
        )

    def checkpoint(self) -> "SystemCheckpoint":
        """Snapshot counters (to measure a post-warm-up window)."""
        return SystemCheckpoint(
            self.modeled_insert_ns(), self.pm_media_bytes(), self._sw_edges
        )

    def insert_profile(self, since: Optional["SystemCheckpoint"] = None,
                       edges: Optional[int] = None) -> InsertProfile:
        """Summarize ingest since ``since`` for thread-count evaluation."""
        base = since or SystemCheckpoint(0.0, 0, 0)
        n_edges = edges if edges is not None else self._sw_edges - base.edges
        return InsertProfile(
            edges=n_edges,
            modeled_ns=self.modeled_insert_ns() - base.ns,
            pm_media_bytes=self.pm_media_bytes() - base.media,
            serial_fraction=self.insert_serial_fraction,
        )


@dataclass
class SystemCheckpoint:
    """Counter snapshot delimiting a measured ingest window."""

    ns: float
    media: int
    edges: int


def adjacency_to_csr(degree, rows) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, dsts)`` from per-vertex degrees and adjacency pieces.

    ``rows`` yields ``(vertex, pieces)``; a vertex's pieces (arrays or
    lists of destinations) are copied back to back from the start of its
    slot.  Vertices that ``rows`` skips must have degree 0.
    """
    indptr = np.zeros(len(degree) + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    dsts = np.empty(int(indptr[-1]), dtype=np.int32)
    for v, pieces in rows:
        pos = indptr[v]
        for piece in pieces:
            dsts[pos : pos + len(piece)] = piece
            pos += len(piece)
    return indptr, dsts


def block_list_csr(adj) -> Tuple[np.ndarray, np.ndarray, float]:
    """CSR ``(indptr, dsts)`` of a DRAM blocked adjacency list (one list
    of destinations per vertex) and its mean block chain per vertex: one
    DRAM line per ``AL_BLOCK_EDGES``-edge block plus the head lookup."""
    degree = np.fromiter((len(a) for a in adj), dtype=np.int64, count=len(adj))
    indptr, dsts = adjacency_to_csr(degree, ((v, (a,)) for v, a in enumerate(adj) if a))
    return indptr, dsts, float(np.mean(degree / AL_BLOCK_EDGES + 1.0))


__all__ = [
    "DynamicGraphSystem",
    "InsertProfile",
    "SystemCheckpoint",
    "ViewReuseStats",
    "PM_WRITE_BW_BYTES_PER_S",
    "AL_BLOCK_EDGES",
    "adjacency_to_csr",
    "block_list_csr",
]
