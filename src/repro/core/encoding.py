"""Slot encoding for the persistent edge array (DESIGN.md §4).

Each edge-array slot is a signed 32-bit value (the paper stores 4-byte
destination ids; pivots and tombstones are encoded in-band):

* ``0``           — gap (empty slot; freshly zeroed memory is all gaps);
* ``-(v + 1)``    — pivot element of vertex ``v`` (paper: ``-vertex-id``,
  shifted by one so vertex 0 has a distinguishable pivot);
* ``dst + 1``     — a live edge to ``dst``;
* ``(dst + 1) | TOMB_BIT`` — a tombstoned edge to ``dst`` (paper §3.1.2:
  deletions re-insert the edge with its first destination bit set).

The ``+1`` shifts keep 0 reserved for gaps; ``TOMB_BIT`` is bit 30 so
tombstoned values stay positive.  Destination ids must therefore be
below ``2**30 - 2`` — far beyond any graph this simulator hosts.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import GraphError, VertexRangeError

GAP = np.int32(0)
TOMB_BIT = np.int32(1 << 30)
MAX_VERTEX = (1 << 30) - 2

SLOT_DTYPE = np.int32
SLOT_BYTES = 4


def check_vertex(v: int, nv: int = MAX_VERTEX + 1) -> int:
    """``int(v)`` if it lies in ``[0, nv)``, else :class:`VertexRangeError`.

    The one "is this vertex id legal" check.  Readers pass the store's
    vertex count — the *global* one under sharding, so an error never
    names a shard-local id; the write path keeps the default, the
    encodable id space, and calls it before the first device event.
    """
    v = int(v)
    if not 0 <= v < nv:
        raise VertexRangeError(f"vertex {v} out of range [0, {nv})")
    return v


def check_k(k: int, limit: Optional[int] = None) -> int:
    """``int(k)`` clipped to ``limit`` if non-negative, else :class:`GraphError`.

    The one "is this count legal" check for the readers' ``k`` (hop
    depth, top-k size).  An oversized ``k`` is clipped to what can be
    answered, so a modeled cost is charged for the rows returned, not
    the rows asked for.
    """
    k = int(k)
    if k < 0:
        raise GraphError(f"k must be >= 0, got {k}")
    return k if limit is None else min(k, limit)


def encode_pivot(v: int) -> np.int32:
    return np.int32(-(v + 1))


def encode_edge(dst: int, tombstone: bool = False) -> np.int32:
    val = dst + 1
    if tombstone:
        val |= int(TOMB_BIT)
    return np.int32(val)


def decode_pivot(slot: int) -> int:
    return -int(slot) - 1


def decode_edge(slot: int) -> Tuple[int, bool]:
    """Return ``(dst, is_tombstone)`` for a positive edge slot."""
    s = int(slot)
    tomb = bool(s & int(TOMB_BIT))
    return (s & ~int(TOMB_BIT)) - 1, tomb


# -- vectorized helpers --------------------------------------------------
def is_pivot(slots: np.ndarray) -> np.ndarray:
    return slots < 0


def is_edge(slots: np.ndarray) -> np.ndarray:
    return slots > 0


def is_gap(slots: np.ndarray) -> np.ndarray:
    return slots == 0


def is_tombstone(slots: np.ndarray) -> np.ndarray:
    return (slots > 0) & ((slots & TOMB_BIT) != 0)


def edge_dsts(slots: np.ndarray) -> np.ndarray:
    """Destination ids of positive (edge) slots — caller pre-filters."""
    return (slots & ~TOMB_BIT) - 1


def pivot_vertices(slots: np.ndarray) -> np.ndarray:
    """Vertex ids of negative (pivot) slots — caller pre-filters."""
    return -slots - 1


def tombstone_matches(
    keys: np.ndarray, tomb: np.ndarray, run_off=(0,), sizes=None
) -> np.ndarray:
    """The deletion rule of §3.1.2, spelled once: mask of matched pairs.

    Within one vertex's logical run (``keys[o : o + s]`` for each
    ``run_off``/``sizes`` pair; the whole array by default) a tombstone
    cancels the *most recent earlier* live occurrence of its key, and
    later re-insertions of that key survive.  Both slots of every such
    pair are marked; a tombstone with no live occurrence before it
    (a delete of a never-present edge) matches nothing and stays
    unmarked.  Snapshot reads hide marked slots and all tombstones;
    compaction physically drops exactly the marked slots.
    """
    matched = np.zeros(keys.size, dtype=bool)
    ks, ts = keys.tolist(), tomb.tolist()
    for o, s in zip(run_off, (keys.size,) if sizes is None else sizes):
        open_pos: dict = {}
        for i in range(o, o + s):
            if ts[i]:
                stack = open_pos.get(ks[i])
                if stack:
                    matched[stack.pop()] = True
                    matched[i] = True
            else:
                open_pos.setdefault(ks[i], []).append(i)
    return matched


__all__ = [
    "GAP",
    "TOMB_BIT",
    "MAX_VERTEX",
    "SLOT_DTYPE",
    "SLOT_BYTES",
    "check_vertex",
    "check_k",
    "encode_pivot",
    "encode_edge",
    "decode_pivot",
    "decode_edge",
    "is_pivot",
    "is_edge",
    "is_gap",
    "is_tombstone",
    "edge_dsts",
    "pivot_vertices",
    "tombstone_matches",
]
