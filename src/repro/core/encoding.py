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

from typing import Optional

import numpy as np

from ..errors import GraphError, RecoveryError, VertexRangeError
from ..nputil import multi_arange, prefix_dtype

GAP = np.int32(0)
TOMB_BIT = np.int32(1 << 30)
MAX_VERTEX = (1 << 30) - 2

SLOT_DTYPE = np.int32


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


def encode_pivot(v):
    """The pivot slot of vertex ``v`` — an id, or an array of ids."""
    return SLOT_DTYPE(-(v + 1))


def encode_edge(dst, tombstone=False):
    """The slot of an edge to ``dst`` — an id, or an array of ids with an
    optional matching ``tombstone`` mask.  An array without a tombstone
    costs one cast: the bit is OR'd in only where one is set."""
    enc = SLOT_DTYPE(dst + 1)
    if tombstone.any() if isinstance(tombstone, np.ndarray) else tombstone:
        enc = enc | np.where(tombstone, TOMB_BIT, GAP)
    return enc


# -- predicates and decoders: one slot value or an array of them ----------
def is_pivot(slots: np.ndarray) -> np.ndarray:
    return slots < 0


def is_edge(slots: np.ndarray) -> np.ndarray:
    return slots > 0


def is_tombstone(slots: np.ndarray) -> np.ndarray:
    # positive with bit 30 set — for int32 slots exactly the values >= 2**30
    return slots >= TOMB_BIT


def edge_dsts(slots: np.ndarray) -> np.ndarray:
    """Destination ids of positive (edge) slots — caller pre-filters."""
    return (slots & ~TOMB_BIT) - 1


def pivot_vertices(slots: np.ndarray) -> np.ndarray:
    """Vertex ids of negative (pivot) slots — caller pre-filters."""
    return -slots - 1


def worth(slots: np.ndarray) -> np.ndarray:
    """What a slot is worth to its vertex's ``live_degree`` (int8) — the
    one spelling: a live edge +1, a tombstone −1 *whether or not it
    matches anything* (:func:`tombstone_matches` pairs each match with
    one live, netting zero), a pivot or gap 0.  The write paths add it
    per insert, recovery per replayed log entry and per scanned run."""
    return is_edge(slots).view(np.int8) - 2 * is_tombstone(slots).view(np.int8)


def live_degrees(slots: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Live degree of each ``slots[lo[k] : hi[k]]``: the sum of its
    :func:`worth`.  Crash recovery rebuilds the counter with it from the
    scanned array; a lossy repair recounts the rows it shrank."""
    net = np.zeros(slots.size + 1, dtype=prefix_dtype(slots.size))
    np.cumsum(worth(slots), dtype=net.dtype, out=net[1:])
    return (net[hi] - net[lo]).astype(np.int64)


def run_bounds(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)``: vertex ``v``'s run is ``slots[starts[v] : ends[v]]``,
    from behind its pivot to the next pivot — the one pivot scan, shared
    by crash recovery and the invariant check.  The pivots must name
    vertices ``0, 1, …`` in slot order (dense, strictly increasing); any
    other image is corrupt (:class:`RecoveryError`)."""
    ppos = np.flatnonzero(is_pivot(slots))
    if not np.array_equal(pivot_vertices(slots[ppos]), np.arange(ppos.size)):
        raise RecoveryError("pivot ids are not dense and strictly increasing — image corrupt")
    return ppos + 1, np.append(ppos[1:], slots.size)


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

    Per ``(run, key)`` group the rule is a stack — a live pushes, a
    tombstone pops — so each entry has a stack *level*, read off the
    group's floor-clamped running balance, and within one level lives
    and the tombstones that pop them alternate: ordered by ``(run, key,
    level, position)`` every matched tombstone directly follows its
    live.
    """
    matched = np.zeros(keys.size, dtype=bool)
    sizes = np.asarray((keys.size,) if sizes is None else sizes, dtype=np.int64)
    idx = multi_arange(np.asarray(run_off, dtype=np.int64), sizes)
    if not tomb[idx].any():
        return matched
    run = np.repeat(np.arange(sizes.size), sizes)
    k = keys[idx].astype(np.int64)
    # one stable sort on a combined (run, key) key keeps position order
    # within a group (several times faster than a two-key lexsort)
    group = run * (int(k.max()) + 1) + k
    order = np.argsort(group, kind="stable")
    idx, group = idx[order], group[order]
    t = tomb[idx]
    first = np.ones(idx.size, dtype=bool)
    first[1:] = group[1:] != group[:-1]
    gid = np.cumsum(first) - 1
    # only groups holding a tombstone can pair anything
    play = np.flatnonzero((np.bincount(gid[t], minlength=gid[-1] + 1) > 0)[gid])
    idx, t, first, gid = idx[play], t[play], first[play], gid[play]

    # balance after each entry: the ±1 walk reflected at zero (a pop of
    # an empty stack is absorbed), segmented by a per-group offset steep
    # enough that no running minimum carries over from an earlier group
    step = np.where(t, -1, 1)
    walk = np.cumsum(step)
    walk -= (walk - step)[first][np.cumsum(first) - 1]
    drop = gid * (2 * idx.size + 2)
    balance = walk - np.minimum(np.minimum.accumulate(walk - drop) + drop, 0)
    before = np.zeros_like(balance)
    before[1:] = balance[:-1]
    before[first] = 0
    level = before - t  # a live sits at `before`; a tombstone pops `before - 1`
    met = level >= 0  # the rest are tombstones met at an empty stack: unmatched
    idx, t = idx[met], t[met]
    by_level = np.argsort(gid[met] * (int(level.max()) + 1) + level[met], kind="stable")
    pops = np.flatnonzero(t[by_level])
    matched[idx[by_level[pops]]] = True
    matched[idx[by_level[pops - 1]]] = True
    return matched


__all__ = [
    "GAP",
    "TOMB_BIT",
    "MAX_VERTEX",
    "SLOT_DTYPE",
    "check_vertex",
    "check_k",
    "encode_pivot",
    "encode_edge",
    "is_pivot",
    "is_edge",
    "is_tombstone",
    "edge_dsts",
    "pivot_vertices",
    "worth",
    "live_degrees",
    "run_bounds",
    "tombstone_matches",
]
