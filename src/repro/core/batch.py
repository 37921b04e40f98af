"""Edge batches: the unit of mutation for the batched ingestion pipeline.

Every mutation entry point — from :meth:`DynamicGraphSystem.insert_edges`
down to ``DGAP``'s section-grouped PMA writes — operates on an
:class:`EdgeBatch`: three parallel NumPy arrays (``src``, ``dst``,
``tombstone``).  The batch owns construction/validation/coercion from
the accepted stream shapes (``(N, 2)`` arrays, tuple iterables, other
batches) so the hot paths never unpack Python tuples, and provides the
grouping helpers (section keys, grouped order) the PMA pipeline uses to
turn N scalar stores into a handful of span writes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GraphError
from .encoding import check_vertex

EdgeLike = Union["EdgeBatch", np.ndarray, Iterable[Tuple[int, int]]]

#: Default ingest sub-batch size.  Bounded chunks keep streaming
#: semantics (rebalances and log merges interleave with the stream at
#: the same cadence as a per-edge loop) while amortizing interpreter
#: overhead; ``batch_size=None`` opts into one unbounded batch.  For
#: DGAP it is also the durability granularity: a (sub-)batch is
#: group-committed and acknowledged as a whole (``batch_size=1`` is the
#: per-edge persist path).  512 bounds placement drift: larger rounds
#: let hot sections densify between log merges, escalating rebalance
#: windows on small graphs.
DEFAULT_BATCH_SIZE = 512


def batch_limit(batch_size: Optional[int]) -> Optional[int]:
    """The one reading of an ingest ``batch_size``: None or <= 0 means one
    unbounded batch (None); anything else bounds each sub-batch."""
    return None if batch_size is None or batch_size <= 0 else batch_size


class EdgeBatch:
    """A validated batch of edge mutations (inserts and tombstones)."""

    __slots__ = ("src", "dst", "tombstone")

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        tombstone: Optional[np.ndarray] = None,
        validate: bool = True,
    ):
        src, dst = np.asarray(src), np.asarray(dst)
        if validate and src.size and dst.size:  # before the int64 cast: an id may not survive it
            check_vertex(min(src.min(), dst.min()))
            check_vertex(max(src.max(), dst.max()))
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        if tombstone is None:
            self.tombstone = np.zeros(self.src.size, dtype=bool)
        else:
            self.tombstone = np.ascontiguousarray(tombstone, dtype=bool)
        if not (self.src.size == self.dst.size == self.tombstone.size):
            raise GraphError("EdgeBatch arrays must have equal length")

    # -- construction -----------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "EdgeBatch":
        """Build from any iterable of ``(src, dst)`` pairs."""
        buf = [(int(s), int(d)) for s, d in pairs]
        if not buf:
            return cls.empty()
        arr = np.asarray(buf)
        return cls(arr[:, 0], arr[:, 1])

    @classmethod
    def coerce(cls, edges: EdgeLike) -> "EdgeBatch":
        """Accept an ``EdgeBatch``, an ``(N, 2)`` array, or a pair iterable."""
        if isinstance(edges, EdgeBatch):
            return edges
        if isinstance(edges, np.ndarray):
            if edges.size == 0:
                return cls.empty()
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise GraphError(
                    f"edge array must have shape (N, 2), got {edges.shape}"
                )
            check_vertex(edges.min())  # before the int64 cast, as in __init__
            check_vertex(edges.max())
            cols = np.ascontiguousarray(edges.T, dtype=np.int64)
            return cls(cols[0], cols[1], validate=False)
        return cls.from_pairs(edges)

    @classmethod
    def empty(cls) -> "EdgeBatch":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z.copy(), np.empty(0, dtype=bool), validate=False)

    # -- basics -----------------------------------------------------------
    def __len__(self) -> int:
        return int(self.src.size)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for s, d in zip(self.src.tolist(), self.dst.tolist()):
            yield (s, d)

    def max_vertex(self) -> int:
        if self.src.size == 0:
            return -1
        return max(int(self.src.max()), int(self.dst.max()))

    def select(self, idx: np.ndarray) -> "EdgeBatch":
        """Sub-batch at positions ``idx`` (already-validated values)."""
        return EdgeBatch(
            self.src[idx], self.dst[idx], self.tombstone[idx], validate=False
        )

    def chunks(self, size: int) -> Iterator["EdgeBatch"]:
        """Split into consecutive sub-batches of at most ``size`` edges."""
        if size <= 0:
            raise GraphError("batch chunk size must be positive")
        for a in range(0, len(self), size):
            yield EdgeBatch(
                self.src[a : a + size],
                self.dst[a : a + size],
                self.tombstone[a : a + size],
                validate=False,
            )

    # -- pipeline helpers -------------------------------------------------
    def shard_keys(self, n_shards: int) -> np.ndarray:
        """Owning shard of each edge (block-mixed partition on the source).

        The sharding router (:mod:`repro.sharding`) owns an edge by its
        *source* vertex; the partition is the block-mixed stripe of
        :func:`repro.sharding.partition.shard_of` — two vectorized
        integer ops — so the whole routing decision stays on the batch
        hot path.  Destinations stay global and travel with the edge.
        """
        if n_shards <= 0:
            raise GraphError("n_shards must be positive")
        from ..sharding.partition import shard_of

        return shard_of(self.src, n_shards)


def sub_batches(batch: EdgeBatch, batch_size: Optional[int]) -> Iterator[EdgeBatch]:
    """``batch`` as consecutive sub-batches of at most :func:`batch_limit`
    edges; a batch that fits, an empty one included, is handed on whole."""
    limit = batch_limit(batch_size)
    if limit is None or len(batch) <= limit:
        return iter((batch,))
    return batch.chunks(limit)


def extend_adjacency(
    adj: Sequence[List[int]], srcs: np.ndarray, dsts: np.ndarray
) -> None:
    """Grouped ``adj[src].extend(dsts_of_src)`` preserving per-src order."""
    if srcs.size == 0:
        return
    order = np.argsort(srcs, kind="stable")
    ss = srcs[order]
    dd = dsts[order]
    bounds = np.flatnonzero(ss[1:] != ss[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [ss.size]))
    for a, b in zip(starts.tolist(), ends.tolist()):
        adj[int(ss[a])].extend(dd[a:b].tolist())


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "EdgeBatch",
    "EdgeLike",
    "batch_limit",
    "extend_adjacency",
    "sub_batches",
]
