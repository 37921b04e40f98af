"""Recursive-MATrix (R-MAT) graph generator, fully vectorized.

The paper evaluates on SNAP graphs (Orkut, LiveJournal, …) which we
cannot redistribute; the proxies in ``registry.py`` are R-MAT graphs
matched to each dataset's |V|, |E|/|V| ratio and skew.  R-MAT with the
classic (a, b, c) partition probabilities produces the power-law degree
distributions that drive DGAP's behaviour: hub vertices outgrow their
PMA gap allotments, exercising the edge logs and rebalancing exactly as
the real social graphs do.

Generation walks the recursion levels over all edges at once, drawing
one uniform r per edge per level (E x log2(V) draws, into one reused
buffer), deterministic per seed.  A level's quadrant — TL [0, a), TR
[a, a+b), BL [a+b, a+b+c), BR [a+b+c, 1) — is two bits shifted into the
endpoint ids: the row bit is ``r >= a+b``, the column bit
``(r >= a) ^ row ^ (r >= a+b+c)``.
"""

from __future__ import annotations

import numpy as np


def rmat_edges(
    num_vertices: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    remove_self_loops: bool = True,
) -> np.ndarray:
    """Generate an (E, 2) int64 edge array over ``num_vertices`` ids.

    ``num_vertices`` is rounded up to a power of two internally for the
    recursion; resulting ids are folded back below ``num_vertices`` by
    modulo, which preserves the skew (GAPBS does the same for non-pow2
    scales).  Parallel duplicate edges are kept, as in the GAP
    benchmark generator — dynamic frameworks must handle them.
    """
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if not 0 < a + b + c < 1:
        raise ValueError("require a + b + c < 1 (d is the remainder)")
    levels = int(np.ceil(np.log2(num_vertices)))
    rng = np.random.default_rng(seed)
    # ids < 2**levels: the narrowest type halves or quarters the bytes per pass
    ids = np.int16 if levels <= 15 else np.int32 if levels <= 30 else np.int64
    src = np.zeros(num_edges, dtype=ids)
    dst = np.zeros(num_edges, dtype=ids)
    r = np.empty(num_edges)
    row, col, br = (np.empty(num_edges, dtype=bool) for _ in range(3))
    ab = a + b
    abc = a + b + c
    for _ in range(levels):
        rng.random(out=r)
        np.greater_equal(r, ab, out=row)
        np.greater_equal(r, a, out=col)
        np.greater_equal(r, abc, out=br)
        col ^= row
        col ^= br
        src <<= 1
        src |= row
        dst <<= 1
        dst |= col
    if num_vertices != 1 << levels:
        src %= num_vertices
        dst %= num_vertices
    keep = src != dst if remove_self_loops else slice(None)
    edges = np.stack([src[keep], dst[keep]], axis=1, dtype=np.int64)
    deficit = num_edges - edges.shape[0]
    if deficit:
        # top up with uniform random non-loop edges (tiny fraction)
        extra_s = rng.integers(0, num_vertices, deficit * 2)
        extra_d = rng.integers(0, num_vertices, deficit * 2)
        ok = extra_s != extra_d
        extra = np.stack([extra_s[ok][:deficit], extra_d[ok][:deficit]], axis=1)
        edges = np.concatenate([edges, extra], axis=0)
    return edges


def uniform_edges(num_vertices: int, num_edges: int, seed: int = 0) -> np.ndarray:
    """Erdős–Rényi-style uniform random edges (used by low-skew proxies)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, num_edges, dtype=np.int64)
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % num_vertices
    return np.stack([src, dst], axis=1)


def shuffle_edges(edges: np.ndarray, seed: int = 0) -> np.ndarray:
    """The paper's insertion order: a random shuffle of all edges (§4.1)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(edges.shape[0])
    return edges.take(perm, axis=0)


__all__ = ["rmat_edges", "uniform_edges", "shuffle_edges"]
