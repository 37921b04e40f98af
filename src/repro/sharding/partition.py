"""Block-mixed vertex partition for the sharded DGAP.

The vertex space is striped across ``n`` shards in blocks of ``n``
consecutive globals: global ``g`` always lives under the *local* id
``g // n``, and within block ``q = g // n`` the residue-to-shard
assignment is rotated by a multiplicative hash of the block index:

    shard(g) = (g + mix(g // n)) % n

Plain residue striping (``g % n``) is the *worst* partition for R-MAT
streams with a power-of-two shard count — hub vertices concentrate at
ids that are multiples of powers of two, all congruent ``0 (mod n)``,
so one shard inherits every hub (measured 40–50% of the stream at
``n=4``).  Rotating the residue per block keeps the mapping bijective
(for fixed ``q`` the map ``r -> (r + mix(q)) % n`` is a permutation),
keeps locals dense (``g // n`` exactly as before), keeps both
directions O(1) and vectorizable, and spreads the hub mass to within a
few percent of uniform.

Edges are owned by their **source**'s shard; destinations are stored
verbatim in the global id space (DGAP never indexes the vertex array by
destination on the write path, and snapshots return destination values
as stored), so no translation happens on reads.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

IntLike = Union[int, np.ndarray]

#: 64-bit golden-ratio multiplier (Fibonacci hashing): the high half of
#: ``q * MIX`` decorrelates consecutive and power-of-two block indices.
MIX = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(32)
_MIX_INT, _MASK64 = int(MIX), (1 << 64) - 1


def block_mix(q: IntLike) -> IntLike:
    """Per-block residue rotation (well-mixed non-negative int64)."""
    if not isinstance(q, np.ndarray) or q.ndim == 0:  # one id: Python ints, no array round trip
        return (int(q) * _MIX_INT & _MASK64) >> 32
    return ((np.asarray(q, dtype=np.uint64) * MIX) >> _SHIFT).astype(np.int64)


def shard_of(v: IntLike, n_shards: int) -> IntLike:
    """Owning shard of global vertex id(s) ``v``."""
    return (v + block_mix(v // n_shards)) % n_shards


def to_local(v: IntLike, n_shards: int) -> IntLike:
    """Local id of global vertex id(s) ``v`` inside its owning shard."""
    return v // n_shards


def to_global(local: IntLike, shard: int, n_shards: int) -> IntLike:
    """Global id of local vertex id(s) ``local`` of shard ``shard``."""
    return local * n_shards + (shard - block_mix(local)) % n_shards


def local_count(max_global: int, shard: int, n_shards: int) -> int:
    """How many locals shard ``shard`` owns once globals ``0..max_global`` exist.

    Every full block ``q < max_global // n`` contributes exactly one
    local; the partial top block contributes one iff the shard's
    rotated residue falls inside it.
    """
    q0, m = divmod(int(max_global), n_shards)
    rr = (shard - block_mix(q0)) % n_shards
    return q0 + (1 if rr <= m else 0)


def global_vertex_count(local_counts: Sequence[int]) -> int:
    """Contiguous global vertex count implied by per-shard local counts.

    Shard ``r`` with ``c`` locals is missing its next owned global
    ``to_global(c, r, n)`` and everything after; the largest ``G`` with
    *every* ``g < G`` present is the minimum over those bounds.
    Mid-crash the shards may have grown unevenly — this is the prefix
    every shard agrees on.
    """
    n = len(local_counts)
    if n == 0:
        return 0
    return min(int(to_global(int(c), r, n)) for r, c in enumerate(local_counts))


def local_ids_to_global(n_local: int, shard: int, n_shards: int) -> np.ndarray:
    """Global ids of shard ``shard``'s locals ``0..n_local-1``, in order.

    Ascending: consecutive locals are ``n_shards`` apart before the
    in-block rotation, which only moves an id by less than ``n_shards``.
    """
    q = np.arange(n_local, dtype=np.int64)
    return q * n_shards + (shard - block_mix(q)) % n_shards


__all__ = [
    "MIX",
    "block_mix",
    "shard_of",
    "to_local",
    "to_global",
    "local_count",
    "global_vertex_count",
    "local_ids_to_global",
]
