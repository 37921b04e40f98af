"""PMDK-style memory pool: named roots + allocation over one device.

Layout::

    [0, 64)        magic + format version
    [64, 576)      64 x u64 root slots (failure-atomic 8-byte values for
                   flags and pointers, e.g. DGAP's NORMAL_SHUTDOWN flag)
    [576, 584)     allocator cursor (bump pointer)
    [4096, ...)    allocations

Named array roots (``alloc_array``/``get_array``) keep their
(offset, dtype, count) directory in the pool object.  A *crash* in this
simulator reverts device bytes but not Python objects, so the directory
survives exactly as PMDK's pool metadata would (PMDK journals its own
metadata); "reopening after a crash" means calling ``get_array`` /
``read_root`` on the same pool and rebuilding everything else from the
bytes, which is what the recovery tests do.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import PoolLayoutError
from .alloc import BumpAllocator, Region
from .constants import CACHE_LINE
from .crash import CrashInjector
from .device import PMemDevice
from .faults import FaultPolicy
from .latency import LatencyModel, OPTANE_ADR

_MAGIC = 0x44474150  # "DGAP"
_N_ROOT_SLOTS = 64
_ROOTS_OFF = 64
_CURSOR_OFF = _ROOTS_OFF + _N_ROOT_SLOTS * 8
#: first allocatable byte; everything below it is the pool header
DATA_OFF = 4096


class PMemPool:
    """One pool over one simulated device."""

    def __init__(
        self,
        size: int,
        profile: LatencyModel = OPTANE_ADR,
        name: str = "pool",
        injector: Optional[CrashInjector] = None,
        faults: Optional[FaultPolicy] = None,
    ):
        self.device = PMemDevice(size, profile=profile, name=name, injector=injector, faults=faults)
        self.name = name
        self._directory: Dict[str, Tuple[int, np.dtype, int]] = {}

        magic = int(self.device.buf[0:8].view(np.uint64)[0])
        if magic != _MAGIC:
            self.device.ntstore(0, np.uint64(_MAGIC).tobytes(), payload=0)
            self.device.sfence()
        self.allocator = BumpAllocator(self.device, DATA_OFF, self.device.size, _CURSOR_OFF)

    @property
    def pools(self) -> Tuple["PMemPool", ...]:
        """A pool is a one-pool group (``ShardPoolGroup.pools``; DESIGN.md §14)."""
        return (self,)

    # -- stats passthrough -------------------------------------------------
    @property
    def stats(self):
        return self.device.stats

    def clocks(self) -> np.ndarray:
        """Modeled ns per device, one entry per pool of the group.

        The one home of "devices tick in parallel": elapsed time over an
        interval is ``(after - before).max()`` of this vector — never a
        delta of maxima, which under-counts when the busiest pool before
        the interval is not the one that works longest inside it.
        """
        return np.array([p.stats.modeled_ns for p in self.pools])

    # -- root slots (8-byte failure-atomic values) ---------------------------
    def _root_off(self, slot: int) -> int:
        if not 0 <= slot < _N_ROOT_SLOTS:
            raise PoolLayoutError(f"root slot {slot} out of range [0, {_N_ROOT_SLOTS})")
        return _ROOTS_OFF + slot * 8

    def read_root(self, slot: int) -> int:
        off = self._root_off(slot)
        return int(self.device.media[off : off + 8].view(np.uint64)[0])

    def write_root(self, slot: int, value: int) -> None:
        """Failure-atomic 8-byte root update (store + clwb + sfence)."""
        off = self._root_off(slot)
        self.device.store(off, np.uint64(value).tobytes(), payload=0)
        self.device.persist(off, 8)

    def header_bytes(self, roots: Dict[int, int]) -> np.ndarray:
        """The header ``[0, DATA_OFF)`` as it must read for these root
        values and the allocator's current cursor (unnamed root slots are
        zero) — what the repair of a damaged header stores back."""
        header = np.zeros(DATA_OFF, dtype=np.uint8)
        words = header.view(np.uint64)
        words[0] = _MAGIC
        for slot, value in roots.items():
            words[self._root_off(slot) // 8] = value
        words[_CURSOR_OFF // 8] = self.allocator.cursor
        return header

    # -- allocation ------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = CACHE_LINE) -> int:
        return self.allocator.alloc(nbytes, align)

    def alloc_array(self, name: str, dtype, count: int, initial=None) -> Region:
        """Allocate and register a named typed array."""
        if name in self._directory:
            raise PoolLayoutError(f"root {name!r} already exists in pool {self.name!r}")
        dt = np.dtype(dtype)
        off = self.alloc(max(count * dt.itemsize, 1), align=max(CACHE_LINE, dt.itemsize))
        self._directory[name] = (off, dt, count)
        region = Region(self.device, off, dt, count, name=name)
        if initial is not None:
            region.fill(initial)
        return region

    def get_array(self, name: str) -> Region:
        """Reopen a previously allocated named array."""
        try:
            off, dt, count = self._directory[name]
        except KeyError:
            raise PoolLayoutError(f"root {name!r} not found in pool {self.name!r}") from None
        return Region(self.device, off, dt, count, name=name)

    def has_array(self, name: str) -> bool:
        return name in self._directory

    def names(self, prefix) -> List[str]:
        """Registered array names starting with ``prefix`` (a str or a tuple of them)."""
        return [name for name in self._directory if name.startswith(prefix)]

    def free_array(self, name: str) -> None:
        """Forget a named array and return its bytes to the allocator."""
        off, dt, count = self._directory.pop(name)
        self.allocator.free(off, max(count * dt.itemsize, 1))

    def grow_array(self, name: str, count: int) -> Region:
        """Re-allocate ``name`` at ``count`` elements, contents not kept:
        in place when it is the pool's tail allocation, else from the
        free list or the tail, the outgrown block freed."""
        dt = self._directory[name][1]
        self.free_array(name)
        return self.alloc_array(name, dt, count)

    def region_of(self, off: int) -> Optional[Tuple[str, int, int]]:
        """Name the allocated region containing byte ``off``.

        Returns ``(name, start, end)`` from the pool directory, or None
        for unallocated/metadata space.  Used by crash recovery to map a
        poisoned media range to the structure it damages.
        """
        for name, (start, dt, count) in self._directory.items():
            end = start + dt.itemsize * count
            if start <= off < end:
                return name, start, end
        return None

    def split_by_region(self, off: int, n: int) -> List[Tuple[int, int, Optional[str]]]:
        """``(off, n, name)`` parts of byte range ``[off, off + n)``, cut at
        region bounds; ``name`` is None for unallocated/metadata space.

        A poisoned line can straddle a dead region and a live one, so
        both the crash-time scrub and the runtime repair judge every
        part by its own region, never the range by its first byte.
        """
        starts = sorted(s for s, _, _ in self._directory.values())
        out: List[Tuple[int, int, Optional[str]]] = []
        cur, end = off, off + n
        while cur < end:
            hit = self.region_of(cur)
            if hit is not None:
                nxt = min(hit[2], end)
            else:
                nxt = min([s for s in starts if s > cur] + [end])
            out.append((cur, nxt - cur, hit[0] if hit else None))
            cur = nxt
        return out

    # -- failure ------------------------------------------------------------
    def crash(self) -> None:
        """Power-fail the underlying device (see ``PMemDevice.crash``)."""
        self.device.crash()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PMemPool({self.name!r}, size={self.device.size}, roots={sorted(self._directory)})"


__all__ = ["PMemPool", "DATA_OFF"]
