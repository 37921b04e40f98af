"""Merge per-shard epoch-versioned CSR views into one global view.

The contract (tested in ``tests/test_sharding.py``, proved in
DESIGN.md §14): the merged ``((out_indptr, out_dsts), (in_indptr,
in_srcs))`` is **byte-identical** to what an unsharded DGAP fed the
same edge stream would materialize.

*Out-CSR*: global row ``g`` lives wholly in its owner shard as local
row ``g // n``, and the router dispatches each shard's edges in stream
order, so a shard's local row is exactly the global row — the merge is
a pure scatter of per-shard rows into the block-striped global layout
(no per-edge work).

*In-CSR*: each shard's in-stream is already ordered by
``(dst, global src, insertion)`` — :class:`~repro.analysis.viewcache.
DGAPViewCache` runs with ``row_ids`` mapping local rows to their
block-mixed global ids (ascending per shard) so its rows carry global
source ids, and ``dst_nv`` pins every shard to the same global
destination domain.  The same ``(dst, src)`` pair always lands in the
same shard (``src`` determines the shard), so keys never collide across
streams and a pairwise ``searchsorted`` merge reproduces the global
``(dst, src, insertion)`` order of :func:`~repro.analysis.view.
build_in_csr` bit-for-bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..analysis.view import ID_DTYPE, INDPTR_DTYPE
from ..analysis.viewcache import DGAPViewCache
from ..errors import GraphError
from ..nputil import multi_arange
from .partition import local_count, local_ids_to_global

CSRPair = Tuple[np.ndarray, np.ndarray]


def merge_out_csr(outs: List[CSRPair], nv: int, n_shards: int) -> CSRPair:
    """Scatter per-shard out-CSRs into the global block-striped layout."""
    if n_shards == 1:
        return outs[0]  # a merge of one stream is that stream (no copy)
    counts = np.empty(nv, dtype=np.int64)
    gids_per_shard = []
    for r, (ip, _) in enumerate(outs):
        gids = local_ids_to_global(ip.size - 1, r, n_shards)
        gids_per_shard.append(gids)
        counts[gids] = np.diff(ip)
    indptr = np.zeros(nv + 1, dtype=INDPTR_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    dsts = np.empty(int(indptr[-1]), dtype=ID_DTYPE)
    for (_, ds), gids in zip(outs, gids_per_shard):
        pos = multi_arange(indptr[:-1][gids], counts[gids])
        if pos.size:
            dsts[pos] = ds
    return indptr, dsts


def _merge_in_streams(a: CSRPair, b: CSRPair, nv: int) -> CSRPair:
    """Merge two (dst, src, insertion)-ordered in-streams over ``nv`` dsts.

    Keys are collision-free across streams (the source id pins the
    stream), so one ``searchsorted`` computes every insertion point and
    the per-destination indptrs simply add.
    """
    a_ip, a_srcs = a
    b_ip, b_srcs = b
    a_dst = np.repeat(np.arange(nv, dtype=np.int64), np.diff(a_ip))
    b_dst = np.repeat(np.arange(nv, dtype=np.int64), np.diff(b_ip))
    a_key = a_dst * nv + a_srcs
    b_key = b_dst * nv + b_srcs
    pos_b = np.searchsorted(a_key, b_key, side="left") + np.arange(b_key.size)
    total = a_key.size + b_key.size
    srcs = np.empty(total, dtype=ID_DTYPE)
    a_mask = np.ones(total, dtype=bool)
    a_mask[pos_b] = False
    srcs[pos_b] = b_srcs
    srcs[a_mask] = a_srcs
    return a_ip + b_ip, srcs


def merge_in_csr(inns: List[CSRPair], nv: int) -> CSRPair:
    """Fold per-shard in-streams into the global (dst, src)-ordered one."""
    acc = inns[0]
    for nxt in inns[1:]:
        acc = _merge_in_streams(acc, nxt, nv)
    return acc


class ShardedViewCache:
    """Global analysis view over a store's ``shards`` — a
    :class:`~repro.sharding.sharded.ShardedDGAP` or a one-shard
    :class:`~repro.core.dgap.DGAP`.

    One generalized :class:`DGAPViewCache` per shard (global source ids,
    global destination domain) keeps per-shard incrementality; the merge
    itself is a scatter plus pairwise in-stream merges — ``O(E)`` with
    no sorting.
    """

    def __init__(self, store) -> None:
        self.store = store
        n = store.n_shards
        self.caches = [
            DGAPViewCache(
                sh,
                id_stride=n,
                row_ids=(lambda nv, r=r: local_ids_to_global(nv, r, n)),
            )
            for r, sh in enumerate(store.shards)
        ]

    @property
    def stats(self):
        """Per-shard :class:`~repro.analysis.viewcache.ViewCacheStats`."""
        return [c.stats for c in self.caches]

    def materialize(self) -> Tuple[CSRPair, CSRPair]:
        host = self.store
        n = host.n_shards
        nv = host.num_vertices
        outs: List[CSRPair] = []
        inns: List[CSRPair] = []
        for r, sh in enumerate(host.shards):
            expect = local_count(nv - 1, r, n)
            with sh.consistent_view() as snap:
                if snap.num_vertices != expect:
                    raise GraphError(
                        f"shard {r} holds {snap.num_vertices} local vertices, "
                        f"expected {expect} for global count {nv}"
                    )
                out, inn = self.caches[r].materialize(snap, dst_nv=nv)
            outs.append(out)
            inns.append(inn)
        return merge_out_csr(outs, nv, n), merge_in_csr(inns, nv)


__all__ = ["ShardedViewCache", "merge_out_csr", "merge_in_csr"]
