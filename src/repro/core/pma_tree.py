"""Packed-Memory-Array density tree (Bender & Hu's adaptive PMA, §2.3).

The edge array is divided into fixed-size leaf *sections* (the paper's
lock/edge-log granularity).  An implicit binary tree sits above them;
each tree level ``h`` (0 = leaf) has an upper density bound ``tau(h)``,
linearly interpolated between the leaf and root bounds (there is no
lower bound: deletions are tombstones, reclaimed by ``compact()``, and
the array never shrinks).  When an insertion pushes a section past
``tau(0)``, :meth:`find_rebalance_window` walks up the tree to the
smallest aligned window whose *combined* density (array elements +
pending edge-log entries) is back within bounds; if even the root is
too dense the caller must resize.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


#: PMA upper density bounds at the leaves and at the root.
TAU_LEAF = 0.92
TAU_ROOT = 0.70


class PMATree:
    """Density bookkeeping over ``n_sections`` leaf sections of ``segment_slots`` slots."""

    def __init__(self, n_sections: int, segment_slots: int):
        if n_sections < 1 or n_sections & (n_sections - 1):
            raise ValueError("n_sections must be a power of two >= 1")
        self.n_sections = n_sections
        self.segment_slots = segment_slots
        #: tree height: number of levels above the leaves.
        self.height = int(n_sections).bit_length() - 1

    # -- thresholds -------------------------------------------------------
    def tau(self, level: int) -> float:
        """Upper density bound at ``level`` (0 = leaf, ``height`` = root)."""
        if self.height == 0:
            return TAU_ROOT
        f = level / self.height
        return TAU_LEAF - (TAU_LEAF - TAU_ROOT) * f

    # -- window selection ---------------------------------------------------
    def window_at(self, section: int, level: int) -> Tuple[int, int]:
        """The aligned window of ``2**level`` sections containing ``section``."""
        width = 1 << level
        lo = section // width * width
        return lo, lo + width

    def find_rebalance_window(
        self,
        occupancy: np.ndarray,
        section: int,
    ) -> Optional[Tuple[int, int, int]]:
        """Smallest aligned window around ``section`` within its level's bound.

        ``occupancy`` holds per-section element counts (edge-array
        elements plus pending edge-log entries — the paper counts both,
        §3 ③).  Returns ``(lo, hi, level)`` for the smallest in-bounds
        window (level 0 means the section itself is within bounds), or
        ``None`` when even the root window is too dense and the caller
        must resize the array.
        """
        for level in range(self.height + 1):
            lo, hi = self.window_at(section, level)
            count = float(occupancy[lo:hi].sum())
            slots = (hi - lo) * self.segment_slots
            if count / slots <= self.tau(level):
                return lo, hi, level
        # Even the root window exceeds its bound: the array must resize.
        return None


__all__ = ["PMATree", "TAU_LEAF", "TAU_ROOT"]
