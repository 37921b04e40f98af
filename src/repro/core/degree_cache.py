"""Copy-on-Write Degree Cache (the paper's §6 future work, implemented).

The baseline Degree Cache copies the whole degree vector per analysis
task — O(|V|) DRAM per task even though "many of the degrees are the
same and do not need to be stored in each task" (§3 ②).  The paper's
planned improvement is a CoW cache where tasks and the main vertex
array share unchanged degrees.

Design: the degree (and live-degree) vectors are divided into
fixed-size *chunks*.  The writer maintains a current chunk table; a
snapshot grabs the table (O(|V|/chunk) references) and pins the chunk
versions.  Before the writer's first modification of a chunk that any
live snapshot pins, the chunk is copied (copy-on-write) — so a snapshot
costs O(1) per chunk plus one chunk copy per chunk *actually modified*
during its lifetime, instead of O(|V|) up front.

``CoWDegreeCache`` wraps both vectors; ``DGAPConfig.cow_degree_cache``
switches `consistent_view()` over to it.  The sharing is observable:
:attr:`chunks_copied` counts real copies, and the property tests verify
snapshots stay consistent through arbitrary writer activity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

DEFAULT_CHUNK = 1024


class _ChunkedVector:
    """One CoW-chunked int64 vector."""

    __slots__ = ("chunk", "chunks", "shared", "n")

    def __init__(self, values: np.ndarray, chunk: int):
        self.chunk = chunk
        self.n = values.size
        self.chunks: List[np.ndarray] = [
            values[i : i + chunk].copy() for i in range(0, self.n, chunk)
        ]
        #: True while a live snapshot may still reference the chunk; a
        #: copy-on-write clears it until the next snapshot pins again.
        self.shared = [False] * len(self.chunks)

    def grow(self, new_n: int, fill: int = 0) -> None:
        if new_n <= self.n:
            return
        # top up the last partial chunk, then append fresh chunks
        last = self.chunks[-1] if self.chunks else np.empty(0, np.int64)
        total = np.concatenate(
            [last, np.full(new_n - self.n + (self.chunk - last.size) % self.chunk, fill, np.int64)]
        )
        if self.chunks:
            self.chunks[-1] = total[: self.chunk]
            rest = total[self.chunk :]
        else:
            rest = total
        for i in range(0, rest.size, self.chunk):
            self.chunks.append(rest[i : i + self.chunk].copy())
            self.shared.append(False)
        self.n = new_n


class DegreeSnapshot:
    """A task's pinned view of the degree vectors at time t."""

    __slots__ = ("cache", "deg_refs", "live_refs", "n", "_released")

    def __init__(self, cache: "CoWDegreeCache"):
        self.cache = cache
        self.deg_refs = list(cache._deg.chunks)  # references, not copies
        self.live_refs = list(cache._live.chunks)
        self.n = cache._deg.n
        self._released = False
        cache._pins += 1
        # every current chunk is now pinned by this snapshot
        cache._deg.shared = [True] * len(cache._deg.chunks)
        cache._live.shared = [True] * len(cache._live.chunks)

    # -- reads -----------------------------------------------------------
    def degree(self, v: int) -> int:
        return int(self.deg_refs[v // self.cache.chunk][v % self.cache.chunk])

    def live_degree(self, v: int) -> int:
        return int(self.live_refs[v // self.cache.chunk][v % self.cache.chunk])

    def degrees(self) -> np.ndarray:
        return np.concatenate(self.deg_refs)[: self.n] if self.deg_refs else np.empty(0, np.int64)

    def live_degrees(self) -> np.ndarray:
        return np.concatenate(self.live_refs)[: self.n] if self.live_refs else np.empty(0, np.int64)

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.cache._pins -= 1

    @property
    def shared_chunks(self) -> int:
        """How many chunks are still shared with the live writer state."""
        live = self.cache._deg.chunks
        return sum(
            1 for i, ref in enumerate(self.deg_refs) if i < len(live) and ref is live[i]
        )


class CoWDegreeCache:
    """Writer-side chunked degree vectors with snapshot sharing."""

    def __init__(self, degrees: np.ndarray, live_degrees: np.ndarray, chunk: int = DEFAULT_CHUNK):
        self.chunk = chunk
        self._deg = _ChunkedVector(np.asarray(degrees, np.int64), chunk)
        self._live = _ChunkedVector(np.asarray(live_degrees, np.int64), chunk)
        self._pins = 0
        self.chunks_copied = 0

    # -- writer API --------------------------------------------------------
    def _writable(self, vec: _ChunkedVector, ci: int) -> np.ndarray:
        """Chunk `ci`, copied first iff a snapshot still references it."""
        if vec.shared[ci] and self._pins > 0:
            vec.chunks[ci] = vec.chunks[ci].copy()
            vec.shared[ci] = False
            self.chunks_copied += 1
        return vec.chunks[ci]

    def set(self, v: int, degree: int, live: int) -> None:
        ci, off = divmod(v, self.chunk)
        self._writable(self._deg, ci)[off] = degree
        self._writable(self._live, ci)[off] = live

    def grow(self, new_n: int) -> None:
        self._deg.grow(new_n)
        self._live.grow(new_n)

    # -- reads / snapshots ------------------------------------------------------
    def degree(self, v: int) -> int:
        return int(self._deg.chunks[v // self.chunk][v % self.chunk])

    def live_degree(self, v: int) -> int:
        return int(self._live.chunks[v // self.chunk][v % self.chunk])

    def snapshot(self) -> DegreeSnapshot:
        """O(chunks) — the CoW win over the O(|V|) copying Degree Cache."""
        return DegreeSnapshot(self)

    @property
    def num_vertices(self) -> int:
        return self._deg.n


__all__ = ["CoWDegreeCache", "DegreeSnapshot", "DEFAULT_CHUNK"]
