"""Small NumPy primitives shared across core and kernel code."""

from __future__ import annotations

import numpy as np


def multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s+c)`` per (start, count) pair, vectorized.

    The gather primitive behind both the snapshot CSR materialization
    and the kernels' edge gathers; always returns int64 indices.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 1:  # one run (a point read's row) is one arange
        start = int(np.asarray(starts).flat[0])
        return np.arange(start, start + int(counts.flat[0]), dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    # one fused repeat of (start - run_offset) instead of two
    base = np.asarray(starts, dtype=np.int64) - cum + counts
    return np.arange(total, dtype=np.int64) + np.repeat(base, counts)


class ScratchBuffer:
    """Grow-only reusable DRAM scratch arrays, keyed by purpose.

    The rebalance and recovery hot paths repeatedly need short-lived
    work arrays whose sizes vary run to run (a window image here, a
    gathered value buffer there).  Allocating them fresh each time costs
    more than the arithmetic on them; this pool hands out views of
    keyed backing buffers that only ever grow (geometrically), so the
    steady state allocates nothing.

    ``take(key, n, dtype)`` returns an *uninitialized* length-``n`` view
    — callers must overwrite it fully (or ``zero=True`` to get it
    cleared).  Views alias the backing buffer: a borrowed array is valid
    until the next ``take`` with the same key.
    """

    __slots__ = ("_bufs",)

    def __init__(self):
        self._bufs: dict = {}

    def take(self, key: str, n: int, dtype=np.int64, zero: bool = False) -> np.ndarray:
        dt = np.dtype(dtype)
        buf = self._bufs.get((key, dt))
        if buf is None or buf.size < n:
            cap = max(int(n), 256, 0 if buf is None else 2 * buf.size)
            buf = np.empty(cap, dtype=dt)
            self._bufs[(key, dt)] = buf
        out = buf[:n]
        if zero:
            out[:] = 0
        return out


__all__ = ["multi_arange", "ScratchBuffer"]
