"""DGAP vertex array (paper §3 ①).

Per vertex the paper stores *degree*, *starting index in the edge
array* and an *edge-log pointer*; we additionally keep ``array_degree``
(how many of the vertex's edge slots physically live in the edge array
vs. its edge-log chain) and ``live_degree`` (degree minus tombstones)
— both derivable from persistent state, kept for O(1) access — and
``row_epoch``, the DRAM-only stamp of the last mutation that changed
the vertex's adjacency (``DGAP._touch_rows`` is its one writer; view
caches read it to find stale rows, DESIGN.md §7).

Placement is the paper's headline design decision: these fields are
updated on *every* edge insertion, so DGAP keeps them **in DRAM** and
reconstructs them from the pivots after a crash.  The Table 5 ablation
("No ...&DP") moves them to persistent memory instead, where every
update becomes a persistent in-place cache-line flush; both backends
implement the same interface so the rest of the core is oblivious.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..pmem.pool import PMemPool
from .encoding import check_vertex

#: el_ptr value meaning "no edge-log entries for this vertex".
NO_EL = -1


class VertexArray:
    """DRAM-resident vertex metadata (the default, fast path)."""

    is_dram = True

    def __init__(self, num_vertices: int):
        cap = max(16, num_vertices)
        self._cap = cap
        self.num_vertices = num_vertices
        self.degree = np.zeros(cap, dtype=np.int64)
        self.array_degree = np.zeros(cap, dtype=np.int64)
        self.live_degree = np.zeros(cap, dtype=np.int64)
        self.start = np.zeros(cap, dtype=np.int64)
        self.el = np.full(cap, NO_EL, dtype=np.int64)
        self.row_epoch = np.zeros(cap, dtype=np.int64)
        self._regions: dict = {}  # field -> its PM mirror (the "No DP" ablation's)

    # -- bulk views (valid slices over the active prefix) -------------------
    def starts(self) -> np.ndarray:
        return self.start[: self.num_vertices]

    def degrees(self) -> np.ndarray:
        return self.degree[: self.num_vertices]

    def live_degrees(self) -> np.ndarray:
        return self.live_degree[: self.num_vertices]

    # -- element updates ------------------------------------------------------
    def check(self, v: int) -> None:
        check_vertex(v, self.num_vertices)

    def set_start(self, v: int, value: int) -> None:
        self.start[v] = value

    def set_degree(self, v: int, value: int) -> None:
        self.degree[v] = value

    def set_array_degree(self, v: int, value: int) -> None:
        self.array_degree[v] = value

    def set_live_degree(self, v: int, value: int) -> None:
        self.live_degree[v] = value

    def set_el(self, v: int, value: int) -> None:
        self.el[v] = value

    def bulk_apply_inserts(self, vs, d_degree, d_array_degree, d_live) -> None:
        """Vectorized insert bookkeeping: add per-vertex deltas.

        ``vs`` holds distinct vertex ids; each delta is an array aligned
        with ``vs`` (or a scalar).
        """
        self.degree[vs] += d_degree
        self.array_degree[vs] += d_array_degree
        self.live_degree[vs] += d_live

    def bulk_set_el(self, vs, values) -> None:
        """Set the edge-log chain head of several distinct vertices."""
        self.el[vs] = values

    def bulk_load(
        self,
        start: np.ndarray,
        degree: np.ndarray,
        array_degree: np.ndarray,
        live_degree: np.ndarray,
        el: np.ndarray,
    ) -> None:
        n = self.num_vertices
        self.start[:n] = start
        self.degree[:n] = degree
        self.array_degree[:n] = array_degree
        self.live_degree[:n] = live_degree
        self.el[:n] = el

    def update_window(
        self,
        i0: int,
        j: int,
        start: np.ndarray,
        degree: np.ndarray,
        array_degree: np.ndarray,
        live_degree: np.ndarray,
        el: np.ndarray,
    ) -> None:
        """Bulk metadata update for vertices ``[i0, j)`` after a rebalance."""
        self.start[i0:j] = start
        self.degree[i0:j] = degree
        self.array_degree[i0:j] = array_degree
        self.live_degree[i0:j] = live_degree
        self.el[i0:j] = el

    def rewrite_mirror(self, name: str, off: int, n: int) -> bool:
        """Rewrite bytes ``[off, off + n)`` of region ``name`` from DRAM if
        it is one of this array's live PM mirrors (a DRAM one has none)."""
        for f, r in self._regions.items():
            if r.name == name:
                r.rewrite_from(getattr(self, f), off, n)
                return True
        return False

    # -- growth -----------------------------------------------------------------
    def grow(self, new_num_vertices: int) -> None:
        """Extend the id space (amortized-doubling DRAM reallocation)."""
        if new_num_vertices <= self.num_vertices:
            return
        if new_num_vertices > self._cap:
            new_cap = max(new_num_vertices, self._cap * 2)
            for name in ("degree", "array_degree", "live_degree", "start", "el", "row_epoch"):
                old = getattr(self, name)
                arr = np.full(new_cap, NO_EL if name == "el" else 0, dtype=np.int64)
                arr[: self._cap] = old
                setattr(self, name, arr)
            self._cap = new_cap
        self.num_vertices = new_num_vertices


class PMVertexArray(VertexArray):
    """Vertex metadata on persistent memory (the "No DP" ablation).

    Reads are served from the same NumPy arrays (they alias nothing;
    they are the authoritative DRAM cache), but every mutation is
    mirrored to a PM region with an immediate ``clwb + sfence`` — the
    persistent in-place update pattern whose cost Fig. 1(c) quantifies.
    The PMA metadata (section occupancy) is handled the same way by
    :class:`~repro.core.edge_array.EdgeArray`.

    Only the paper's 16-byte vertex record (degree, start, el) is
    mirrored; ``array_degree``/``live_degree`` are this implementation's
    derivable caches and stay in DRAM in every configuration.
    """

    is_dram = False

    _FIELDS = ("degree", "start", "el")

    def __init__(self, num_vertices: int, pool: PMemPool):
        super().__init__(num_vertices)
        self.pool = pool
        self._gen = 0
        self._alloc_regions()

    def _alloc_regions(self) -> None:
        self._regions = {}
        for f in self._FIELDS:
            # the mirror this one replaces — the outgrown generation's, or
            # in a reopened pool the previous instance's — is read back by
            # nothing (recovery rebuilds and reloads every field)
            for old in self.pool.names(f"vertexarr.{f}."):
                self.pool.free_array(old)
            r = self.pool.alloc_array(f"vertexarr.{f}.g{self._gen}", np.int64, self._cap)
            r.fill(NO_EL if f == "el" else 0)
            self._regions[f] = r

    def _mirror(self, field: str, v: int, value: int) -> None:
        # Persistent in-place update: store 8 bytes, flush, fence.
        self._regions[field].write(v, value, payload=8, persist=True)

    def set_start(self, v: int, value: int) -> None:
        super().set_start(v, value)
        self._mirror("start", v, value)

    def set_degree(self, v: int, value: int) -> None:
        super().set_degree(v, value)
        self._mirror("degree", v, value)

    def set_el(self, v: int, value: int) -> None:
        super().set_el(v, value)
        self._mirror("el", v, value)

    def bulk_load(self, start, degree, array_degree, live_degree, el) -> None:
        super().bulk_load(start, degree, array_degree, live_degree, el)
        n = self.num_vertices
        for f in self._FIELDS:
            self._regions[f].nt_write_slice(0, getattr(self, f)[:n])
        self.pool.device.sfence()

    def update_window(self, i0, j, start, degree, array_degree, live_degree, el) -> None:
        super().update_window(i0, j, start, degree, array_degree, live_degree, el)
        for f in self._FIELDS:
            self._regions[f].write_slice(i0, getattr(self, f)[i0:j], payload=0, persist=True)

    def grow(self, new_num_vertices: int) -> None:
        old_cap = self._cap
        super().grow(new_num_vertices)
        if self._cap != old_cap:
            self._gen += 1
            self._alloc_regions()
            for f in self._FIELDS:
                self._regions[f].nt_write_slice(0, getattr(self, f))
            self.pool.device.sfence()


def make_vertex_array(
    num_vertices: int, dram_placement: bool, pool: Optional[PMemPool] = None
) -> VertexArray:
    """Factory selecting the backend per the ``dram_placement`` ablation switch."""
    if dram_placement:
        return VertexArray(num_vertices)
    if pool is None:
        raise ValueError("PM-backed vertex array requires a pool")
    return PMVertexArray(num_vertices, pool)


__all__ = ["VertexArray", "PMVertexArray", "make_vertex_array", "NO_EL"]
