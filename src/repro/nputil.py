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


def run_heads(a: np.ndarray) -> np.ndarray:
    """Mask of the positions where ``a`` starts a run of equal values."""
    head = np.empty(a.size, dtype=bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def run_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """Lengths of the runs that begin at ascending ``starts`` and tile ``[0, n)``."""
    out = np.empty(starts.size, dtype=np.int64)
    out[:-1] = starts[1:] - starts[:-1]
    out[-1:] = n - starts[-1:]
    return out


def _sorted(a: np.ndarray) -> np.ndarray:
    return a if bool((a[1:] >= a[:-1]).all()) else np.sort(a)


def distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array: at most one sort (none when
    ``a`` already ascends) and a neighbour compare.  NumPy 2's hash-based
    ``unique`` costs several times more on a few hundred values."""
    s = _sorted(a)
    return s[run_heads(s)]


def distinct_counts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique`` with ``return_counts=True``, the same way."""
    s = _sorted(a)
    starts = np.flatnonzero(run_heads(s))
    return s[starts], run_lengths(starts, s.size)


def prefix_dtype(n: int) -> np.dtype:
    """``int32`` when every prefix sum of ``n`` terms of magnitude <= 2
    fits it, else ``int64``: a whole-array scan's prefix at half the DRAM."""
    return np.dtype(np.int32 if n < 1 << 30 else np.int64)


class ScratchBuffer:
    """Grow-only reusable DRAM scratch arrays, keyed by purpose.

    The rebalance hot paths repeatedly need short-lived work arrays
    whose sizes vary run to run (a window image here, a gathered value
    buffer there).  Allocating them fresh each time costs
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


__all__ = [
    "multi_arange", "run_heads", "run_lengths", "distinct", "distinct_counts", "prefix_dtype",
    "ScratchBuffer",
]
