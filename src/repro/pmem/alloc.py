"""Typed regions and a small allocator over a :class:`PMemDevice`.

A :class:`Region` is the unit every higher layer works with: a typed
NumPy view over a device range whose *writes* go through the device (so
dirty-line tracking, crash injection and cost accounting all see them)
while *reads* are plain NumPy views — free and fast, with bulk read
costs accounted explicitly by the reader (see ``device.py`` docs).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import OutOfPMemError, PMemError
from .constants import CACHE_LINE
from .device import PMemDevice


class Region:
    """A typed, bounds-checked window of a device.

    Reads go straight to a NumPy view (``region.view``); writes go
    through :meth:`write` / :meth:`write_slice` so the device can track
    dirty lines and charge the latency model.
    """

    __slots__ = ("device", "offset", "dtype", "count", "name", "itemsize", "_view")

    def __init__(self, device: PMemDevice, offset: int, dtype, count: int, name: str = ""):
        self.device = device
        self.offset = int(offset)
        self.dtype = np.dtype(dtype)
        self.count = int(count)
        self.name = name
        self.itemsize = self.dtype.itemsize
        if offset % self.itemsize:
            raise PMemError(f"region {name!r} offset {offset} not aligned to {self.dtype}")
        end = self.offset + self.nbytes
        if end > device.size:
            raise PMemError(f"region {name!r} [{offset}, {end}) exceeds device size {device.size}")
        view = device.buf[self.offset : end].view(self.dtype)
        view.flags.writeable = False
        self._view = view

    # -- geometry ---------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self.count * self.itemsize

    @property
    def view(self) -> np.ndarray:
        """Read-only typed view of current contents."""
        return self._view

    def byte_offset(self, idx: int) -> int:
        return self.offset + idx * self.itemsize

    def _check_idx(self, start: int, n: int = 1) -> None:
        if start < 0 or start + n > self.count:
            raise PMemError(
                f"region {self.name!r} index [{start}, {start + n}) out of range [0, {self.count})"
            )

    # -- reads --------------------------------------------------------------
    def read_slice(self, start: int, n: int) -> np.ndarray:
        self._check_idx(start, n)
        return self._view[start : start + n]

    # -- writes ---------------------------------------------------------------
    def write(self, idx: int, value, payload: Optional[int] = None, persist: bool = False) -> None:
        """Store one element; optionally clwb+sfence it immediately."""
        self._check_idx(idx)
        data = np.asarray(value, dtype=self.dtype).tobytes()
        off = self.byte_offset(idx)
        self.device.store(off, data, payload=payload)
        if persist:
            self.device.persist(off, self.itemsize)

    def write_slice(
        self, start: int, arr, payload: Optional[int] = None, persist: bool = False
    ) -> None:
        """Store a contiguous run of elements."""
        a = np.ascontiguousarray(arr, dtype=self.dtype)
        self._check_idx(start, a.size)
        off = self.byte_offset(start)
        self.device.store(off, a.view(np.uint8), payload=payload)
        if persist:
            self.device.persist(off, a.size * self.itemsize)

    def write_batch(self, idxs, values, payload_per_unit: Optional[int] = None) -> None:
        """Batched unit writes at (possibly scattered) element indices,
        persisted as one *commit group*.

        ``values`` has one row per index: shape ``(n,)`` writes one
        element per unit, shape ``(n, k)`` writes ``k`` consecutive
        elements starting at each index.  All stores, then one flush per
        distinct cache line in ascending address order, then a single
        fence — nothing of the group is durable before that fence.
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        vals = np.ascontiguousarray(values, dtype=self.dtype)
        n = int(idxs.size)
        if n == 0:
            return
        per_unit = 1 if vals.ndim == 1 else int(vals.shape[1])
        if int(idxs.min()) < 0 or int(idxs.max()) + per_unit > self.count:
            raise PMemError(
                f"region {self.name!r} batch write outside [0, {self.count})"
            )
        self.device.commit_group(self.offset + idxs * self.itemsize, vals, payload_per_unit)

    def rewrite_from(self, source: np.ndarray, off: int, n: int) -> None:
        """Persistently rewrite the elements device bytes ``[off, off + n)``
        cover from ``source``, the DRAM array this region mirrors."""
        i0 = (off - self.offset) // self.itemsize
        i1 = (off + n - self.offset) // self.itemsize
        self.write_slice(i0, source[i0:i1], payload=0, persist=True)

    def nt_write_slice(self, start: int, arr) -> None:
        """Non-temporal streaming store of a contiguous run (bulk loads)."""
        a = np.ascontiguousarray(arr, dtype=self.dtype)
        self._check_idx(start, a.size)
        self.device.ntstore(self.byte_offset(start), a.view(np.uint8))

    def fill(self, value) -> None:
        """Initialize the whole region with ``value`` via a streaming store."""
        a = np.full(self.count, value, dtype=self.dtype)
        self.device.ntstore(self.offset, a.view(np.uint8), payload=0)
        self.device.sfence()

    # -- persistence -----------------------------------------------------------
    def clwb(self, start: int, n: int = 1) -> None:
        self._check_idx(start, n)
        self.device.clwb(self.byte_offset(start), n * self.itemsize)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.name!r}, off={self.offset}, dtype={self.dtype}, count={self.count})"


class BumpAllocator:
    """Bump allocator over ``[base, limit)`` of a device, with a free list.

    The bump pointer is persisted at a fixed 8-byte slot so allocation
    survives crashes (as PMDK's heap metadata does); it only ever rises,
    so it is the pool's high-water mark whichever blocks are free at the
    moment.  Freed blocks are kept address-ordered and coalesced;
    :meth:`alloc` reuses the first that fits before it bumps, and pays
    the same persisted metadata word either way.  The list itself is
    volatile bookkeeping, like the pool's directory (``pool.py``): a
    simulated crash does not lose it.
    """

    def __init__(self, device: PMemDevice, base: int, limit: int, cursor_off: int):
        self.device = device
        self.base = base
        self.limit = limit
        self.cursor_off = cursor_off
        self._free: list[tuple[int, int]] = []  # (offset, nbytes), ascending
        cur = int(device.buf[cursor_off : cursor_off + 8].view(np.uint64)[0])
        if cur < base or cur > limit:
            cur = base
            self._persist_cursor(cur)
        self.cursor = cur

    def _persist_cursor(self, value: int) -> None:
        self.device.store(self.cursor_off, np.uint64(value).tobytes(), payload=0)
        self.device.persist(self.cursor_off, 8)
        self.cursor = value

    def alloc(self, nbytes: int, align: int = CACHE_LINE) -> int:
        """Reserve ``nbytes`` and return its device offset."""
        for i, (start, size) in enumerate(self._free):
            off = (start + align - 1) // align * align
            if off + nbytes <= start + size:
                rest = [(start, off - start), (off + nbytes, start + size - off - nbytes)]
                self._free[i : i + 1] = [b for b in rest if b[1]]
                self._persist_cursor(self.cursor)
                return off
        # too big for any free block: bump — from the start of the free
        # block that ends at the pointer, if there is one, so a tail
        # allocation freed and re-requested larger regrows in place
        tail = bool(self._free) and sum(self._free[-1]) == self.cursor
        start = self._free[-1][0] if tail else self.cursor
        off = (start + align - 1) // align * align
        if off + nbytes > self.limit:
            raise OutOfPMemError(
                f"allocation of {nbytes}B exceeds pool (cursor={self.cursor}, limit={self.limit})"
            )
        if tail:
            self._free[-1:] = [(start, off - start)] if off > start else []
        self._persist_cursor(off + nbytes)
        return off

    def free(self, off: int, nbytes: int) -> None:
        """Return a block; the bump pointer stays where it is."""
        merged: list[tuple[int, int]] = []  # sum(block) is its end
        for start, size in sorted(self._free + [(off, nbytes)]):
            if merged and sum(merged[-1]) == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((start, size))
        self._free = merged


__all__ = ["Region", "BumpAllocator"]
