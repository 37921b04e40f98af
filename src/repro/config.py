"""Configuration for the DGAP framework (paper §3.1.1).

All of the user-specified initialization parameters from the paper are
here with the paper's defaults (ELOG_SZ = 2 KB, ULOG_SZ = 2 KB), plus
the ablation switches used by Table 5:

* ``use_edge_log``   — ③ per-section edge log ("No EL" when False);
* ``use_undo_log``   — ④ per-thread undo log ("No EL&UL" when also
  False: rebalancing falls back to PMDK transactions);
* ``dram_placement`` — ① vertex array + PMA metadata in DRAM ("No
  EL&UL&DP" when False: everything lives on PM and pays persistent
  in-place update costs).

The values the paper fixes are constants where they are used: the 90 %
edge-log merge point (``core.edge_log.MERGE_TENTHS``) and the PMA
density bounds (``core.pma_tree.TAU_LEAF`` / ``TAU_ROOT``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .pmem.constants import KIB


@dataclass
class DGAPConfig:
    """Initialization parameters for one DGAP instance."""

    #: Initial estimate of the number of vertices (pre-allocates the
    #: DRAM vertex array and seeds pivots in the edge array).
    init_vertices: int = 1024

    #: Initial estimate of the number of edges (sizes the PM edge array;
    #: the array resizes automatically when it fills).
    init_edges: int = 16 * 1024

    #: Per-section edge log size in bytes (paper default 2 KB).
    elog_size: int = 2 * KIB

    #: Per-thread undo log size in bytes (paper default 2 KB).
    ulog_size: int = 2 * KIB

    #: Leaf section size of the PMA, in slots.  Sections are the
    #: granularity of edge logs, locks and density accounting.
    segment_slots: int = 512

    #: Total simulated PM pool size in bytes (None = auto-sized with
    #: headroom for several copy-on-write resizes).
    pool_bytes: int | None = None

    #: Take the per-section locks on every operation (real-thread safe).
    #: Off by default: the benchmark drivers are single-threaded (the
    #: virtual-thread scheduler models contention instead) and per-op
    #: Python lock overhead would pollute wall-clock numbers.
    thread_safe: bool = False

    #: How rebalancing distributes gaps among vertex runs:
    #: "proportional" (VCSR's workload-aware weighting — hot vertices get
    #: more room, the paper's design) or "uniform" (classic PMA/PCSR).
    gap_distribution: str = "proportional"

    # ---- ablation switches (Table 5) -----------------------------------
    use_edge_log: bool = True
    use_undo_log: bool = True
    dram_placement: bool = True

    def __post_init__(self) -> None:
        if self.init_vertices <= 0 or self.init_edges <= 0:
            raise ValueError("init_vertices and init_edges must be positive")
        if self.ulog_size < 0:
            raise ValueError("ulog_size must be non-negative")
        if self.segment_slots < 64 or self.segment_slots & (self.segment_slots - 1):
            raise ValueError("segment_slots must be a power of two >= 64")
        if self.gap_distribution not in ("proportional", "uniform"):
            raise ValueError("gap_distribution must be 'proportional' or 'uniform'")

    @property
    def elog_entries(self) -> int:
        """Edge-log capacity in 12-byte entries."""
        from .core.edge_log import ENTRY_BYTES

        return max(1, self.elog_size // ENTRY_BYTES)


__all__ = ["DGAPConfig"]
