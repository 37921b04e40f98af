"""Latency cost model for the simulated memory devices.

Python cannot measure real persistent-memory timings, so every device
operation accrues *modeled* nanoseconds from one of these profiles.  The
profiles encode the relative costs that drive every design decision in
the DGAP paper (§2.1.2, §2.4, Fig. 1):

* PM writes are far more expensive than DRAM writes (~7-8x), reads
  ~2-3x slower (asymmetric read/write).
* Small random persistent writes are much slower than large sequential
  ones (256 B XPBuffer write combining).
* Repeatedly flushing the *same* cache line ("in-place update") stalls
  on the previous flush and on-DIMM wear leveling — about 7x worse than
  a sequential stream of flushes (Fig. 1c).

Absolute values are calibrated to the characterization literature cited
by the paper (Izraelevitz et al. 2019; Yang et al., FAST'20; van Renen
et al., DaMoN'19) and are intended to reproduce *ratios*, not absolute
wall-clock numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .constants import CACHE_LINE, XPLINE


#: How many of the most recently flushed lines count as "recent" for
#: the in-place-update penalty.
INPLACE_WINDOW = 8


@dataclass(frozen=True)
class LatencyModel:
    """Per-operation modeled latencies, in nanoseconds.

    All ``*_per_line`` costs are per 64-byte cache line; read costs are
    charged per line for random access and per byte (bandwidth) for
    sequential streams.
    """

    name: str

    #: CPU store reaching the (volatile or ADR-protected) write queue.
    store_per_line_ns: float

    #: ``CLWB``/``CLFLUSHOPT`` of a line that continues a sequential
    #: stream (previous flush hit the same or the adjacent XPLine).
    flush_seq_per_line_ns: float

    #: Flush of a line at a random address (XPBuffer miss -> full media
    #: write of its 256 B XPLine).
    flush_rnd_per_line_ns: float

    #: Extra stall for flushing a line that was itself flushed very
    #: recently (classic persistent in-place update pattern).
    flush_inplace_extra_ns: float

    #: ``SFENCE`` draining outstanding flushes.
    fence_ns: float

    #: Random read latency, per cache line touched.
    read_rnd_per_line_ns: float

    #: Sequential read cost, per byte (i.e. 1/bandwidth).
    read_seq_per_byte_ns: float

    #: Sequential write bandwidth cost per byte for non-temporal streams
    #: (ntstore bypasses the cache and write-combines fully).
    ntstore_per_byte_ns: float

    #: True if CPU caches are inside the power-fail domain (eADR): data
    #: is persistent once globally visible; flushes are not required
    #: (and are modeled as hints with sequential cost only).
    persistent_caches: bool = False

    #: True for plain DRAM: nothing survives a crash regardless of
    #: flushing.  Used by the Fig. 1(b) motivation experiment and by the
    #: DRAM-resident halves of the hybrid baselines.
    volatile: bool = False

    def with_overrides(self, **kw) -> "LatencyModel":
        """Return a copy with selected fields replaced."""
        return replace(self, **kw)

    # ---- convenience cost helpers -------------------------------------
    def seq_read_ns(self, nbytes: int) -> float:
        """Cost of streaming ``nbytes`` sequentially."""
        return nbytes * self.read_seq_per_byte_ns

    def rnd_read_ns(self, naccesses: int, bytes_each: int = CACHE_LINE) -> float:
        """Cost of ``naccesses`` independent random reads."""
        lines = max(1, (bytes_each + CACHE_LINE - 1) // CACHE_LINE)
        return naccesses * lines * self.read_rnd_per_line_ns

    def seq_write_ns(self, nbytes: int) -> float:
        """Cost of a non-temporal sequential stream of ``nbytes``."""
        return nbytes * self.ntstore_per_byte_ns


#: Plain DRAM.  Fast, symmetric-ish, volatile.  ``flush`` costs model a
#: cache-line writeback to the DRAM controller (cheap, never needed for
#: persistence because nothing persists).
DRAM = LatencyModel(
    name="dram",
    store_per_line_ns=4.0,
    flush_seq_per_line_ns=15.0,
    flush_rnd_per_line_ns=25.0,
    flush_inplace_extra_ns=0.0,
    fence_ns=8.0,
    read_rnd_per_line_ns=85.0,
    read_seq_per_byte_ns=0.008,  # ~125 GB/s streaming
    ntstore_per_byte_ns=0.012,
    persistent_caches=False,
    volatile=True,
)

#: Optane DCPMM in App Direct mode on an ADR platform (the paper's
#: evaluation platform: 2nd-gen Xeon, PMDK 1.12).  Writes must be
#: explicitly flushed and fenced to persist.
OPTANE_ADR = LatencyModel(
    name="optane-adr",
    store_per_line_ns=10.0,
    flush_seq_per_line_ns=110.0,
    flush_rnd_per_line_ns=260.0,
    flush_inplace_extra_ns=600.0,
    fence_ns=55.0,
    read_rnd_per_line_ns=305.0,  # ~2-3x DRAM random reads
    read_seq_per_byte_ns=0.025,  # ~40 GB/s streaming reads (6 DIMMs)
    ntstore_per_byte_ns=0.085,  # ~12 GB/s non-temporal stream
    persistent_caches=False,
)

#: Optane on a 3rd-gen Xeon with eADR: CPU caches are power-fail
#: protected, so visibility == persistence and flushes become optional
#: performance hints (§2.1.3).
OPTANE_EADR = OPTANE_ADR.with_overrides(
    name="optane-eadr",
    persistent_caches=True,
    flush_seq_per_line_ns=40.0,
    flush_rnd_per_line_ns=80.0,
    flush_inplace_extra_ns=0.0,
)

__all__ = [
    "LatencyModel",
    "INPLACE_WINDOW",
    "DRAM",
    "OPTANE_ADR",
    "OPTANE_EADR",
    "CACHE_LINE",
    "XPLINE",
]
