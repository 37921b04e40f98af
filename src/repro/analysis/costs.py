"""Calibrated analysis-cost constants.

The kernels' modeled time is ``compute + storage``:

* **compute** — per edge processed, identical for every framework (the
  paper runs the same GAPBS kernel code everywhere): rank gathers,
  frontier bookkeeping, label updates.  Mostly cache-resident DRAM
  work.
* **storage** — reading the edges out of each framework's layout; this
  is where the frameworks differ and what Fig. 7/8 measure.

Calibration: the single reference point is the paper's Table 4 Orkut
T1 column for PageRank (CSR 24.18 s for 20 iterations over 234 M edges
= 5.14 ns per edge-visit).  With ``COMPUTE_NS_PER_EDGE = 1.2`` and PM
edge streams at 1.0 ns/B (per-vertex runs average only ~300 B, far from
Optane's peak streaming bandwidth), CSR lands at 5.2 ns/edge-visit.
Every other number in Tables 4 and Figs. 7/8 is then *predicted* by
each framework's geometry (gaps, blocks, fragments, DRAM vs. PM) — see
EXPERIMENTS.md for the paper-vs-predicted comparison.

The modeled cost of *building* a view lives here too: the store-level
view cache prices each row patch with :func:`view_build_ns` and each
global merge with :func:`merge_ns`, and serving and analysis both read
the result from ``cache.last`` (DESIGN.md §7).
"""

from ..pmem.latency import DRAM, OPTANE_ADR

#: DRAM-side kernel work per edge processed (same for every framework).
COMPUTE_NS_PER_EDGE = 1.2

#: Effective PM read cost for edge-list streams (short per-vertex runs).
PM_SEQ_NS_PER_BYTE = 1.0

#: Effective DRAM read cost for edge-list streams.
DRAM_SEQ_NS_PER_BYTE = 0.12

#: Uncached random access latencies (one cache line): the device
#: profiles' own numbers, not a second copy of them.
PM_RND_NS = OPTANE_ADR.read_rnd_per_line_ns
DRAM_RND_NS = DRAM.read_rnd_per_line_ns

#: Destination-id payload per edge (all evaluated layouts use 4 B ids).
EDGE_BYTES = 4.0

#: modeled cost of handing back a view nothing moved under: one DRAM
#: read of the epoch counter plus the compare.
EPOCH_CHECK_NS = DRAM_RND_NS

#: vertex-table entry width charged for snapshot vector copies
#: (degree + live_degree, 8 bytes each in the simulated layout).
_VT_ENTRY_BYTES = 8.0


def snapshot_open_ns(rows: int) -> float:
    """Opening a Degree-Cache snapshot: two DRAM vector copies of ``rows``
    entries each (every row of the shard, or the rows a refresh scoped
    it to)."""
    return 2.0 * rows * _VT_ENTRY_BYTES * DRAM_SEQ_NS_PER_BYTE


def view_build_ns(builds) -> float:
    """Modeled row patch: per-shard snapshot + patch, shards in parallel.

    ``builds`` holds one :class:`~repro.analysis.viewcache.ShardBuild`
    per shard.  Each shard pays for what it did: the degree copies of
    the rows its snapshot was scoped to, one random PM probe per
    *section* a re-read row starts in (re-read rows cluster in PMA
    sections) and a sequential stream of the entries it read — every
    row, section and entry of the shard for a full build, the stale
    rows' tails for a patch, nothing for a shard nothing changed in —
    and a DRAM pass over the top-list entries it merged or ranked.
    """
    return max(
        snapshot_open_ns(b.rows_copied)
        + b.sections_probed * PM_RND_NS
        + b.entries_streamed * EDGE_BYTES * PM_SEQ_NS_PER_BYTE
        + b.top_entries * _VT_ENTRY_BYTES * DRAM_SEQ_NS_PER_BYTE
        for b in builds
    )


def merge_ns(total_edges: int, n_shards: int) -> float:
    """The O(E) DRAM scatter of ``n_shards`` out-CSRs into the global
    layout; a one-shard store's rows already are that layout."""
    return total_edges * EDGE_BYTES * DRAM_SEQ_NS_PER_BYTE if n_shards > 1 else 0.0
