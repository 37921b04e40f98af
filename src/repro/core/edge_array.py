"""Persistent edge array: a VCSR-style packed memory array (paper §3 ②).

The edge array is an int32 slot region on persistent memory holding
every vertex's *run* — its pivot element followed by its edges in
insertion order — with PMA gaps between runs.  Section (leaf segment)
occupancy counts are DRAM metadata by default, mirrored to PM with
persistent in-place updates under the "No DP" ablation (Table 5).

Generations: a whole-array rewrite — growth, or the root window at the
same capacity — does not move data in place.  It streams the image into
a fresh region and atomically switches the pool root pointer to it
(``Rebalancer._switch``), so a crash before the switch trivially falls
back to the old generation; the switch frees the generation it retires,
and the next one reuses the block.  The constructor therefore writes
nothing: whoever creates a generation stores its whole image.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..pmem.pool import PMemPool
from .encoding import SLOT_DTYPE
from .pma_tree import PMATree


class EdgeArray:
    """One generation of the PM edge array plus its density metadata."""

    def __init__(
        self,
        pool: PMemPool,
        capacity_slots: int,
        segment_slots: int,
        gen: int = 0,
        create: bool = True,
        pm_metadata: bool = False,
    ):
        if capacity_slots % segment_slots:
            raise ValueError("capacity must be a multiple of segment_slots")
        n_sections = capacity_slots // segment_slots
        if n_sections & (n_sections - 1):
            raise ValueError("number of sections must be a power of two")
        self.pool = pool
        self.capacity = capacity_slots
        self.segment_slots = segment_slots
        self.gen = gen
        self.tree = PMATree(n_sections, segment_slots)
        name = f"edges.g{gen}"
        if create:
            self.region = pool.alloc_array(name, SLOT_DTYPE, capacity_slots)
        else:
            self.region = pool.get_array(name)

        #: per-section element counts (pivots + edges physically in the array).
        self.seg_occ = np.zeros(n_sections, dtype=np.int64)
        self.pm_metadata = pm_metadata
        self._occ_region = None
        if pm_metadata:
            occ_name = f"segocc.g{gen}"
            if create or not pool.has_array(occ_name):
                self._occ_region = pool.alloc_array(occ_name, np.int64, n_sections, initial=0)
            else:
                self._occ_region = pool.get_array(occ_name)

    # -- geometry -----------------------------------------------------------
    @property
    def n_sections(self) -> int:
        return self.tree.n_sections

    @property
    def slots(self) -> np.ndarray:
        """Read-only int32 view of the whole array."""
        return self.region.view

    def section_of(self, slot: int) -> int:
        return slot // self.segment_slots

    def byte_off(self, slot: int) -> int:
        return self.region.byte_offset(slot)

    # -- slot mutation ----------------------------------------------------------
    def write_slot(self, slot: int, value, payload: int = 0, persist: bool = True) -> None:
        self.region.write(slot, value, payload=payload, persist=persist)

    def write_slots(self, slots: np.ndarray, values: np.ndarray, payload: int = 4) -> None:
        """Scattered slot writes persisted as one commit group: all
        stores, one flush per distinct cache line, one fence."""
        self.region.write_batch(slots, values, payload_per_unit=payload)

    # -- occupancy bookkeeping ------------------------------------------------------
    def inc_occ(self, section: int, delta: int = 1) -> None:
        self.seg_occ[section] += delta
        if self._occ_region is not None:
            # "No DP": the PMA tree lives on PM — persistent in-place update.
            self._occ_region.write(section, int(self.seg_occ[section]), payload=0, persist=True)

    def inc_occ_counts(self, sections: np.ndarray, counts: np.ndarray) -> None:
        """Bulk occupancy bump: ``counts[i]`` more elements in ``sections[i]``
        (distinct, ascending)."""
        self.seg_occ[sections] += counts
        if self._occ_region is not None:
            for s in sections.tolist():
                self._occ_region.write(s, int(self.seg_occ[s]), payload=0, persist=True)

    def recount(self, lo_slot: int, hi_slot: int) -> None:
        """Vectorized occupancy recount for the sections covering ``[lo, hi)``."""
        s0 = lo_slot // self.segment_slots
        s1 = (hi_slot + self.segment_slots - 1) // self.segment_slots
        view = self.slots[s0 * self.segment_slots : s1 * self.segment_slots]
        counts = np.count_nonzero(view.reshape(s1 - s0, self.segment_slots), axis=1)
        self.seg_occ[s0:s1] = counts
        if self._occ_region is not None:
            self._occ_region.write_slice(s0, self.seg_occ[s0:s1], payload=0, persist=True)

    def recount_all(self) -> None:
        self.recount(0, self.capacity)

    def combined_occupancy(self, log_live_counts: np.ndarray) -> np.ndarray:
        """Array elements + pending live edge-log entries per section —
        the density the PMA tree reasons about (paper: log edges count
        toward their section's density)."""
        return self.seg_occ + log_live_counts


__all__ = ["EdgeArray"]
