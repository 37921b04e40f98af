"""The store-level view cache: every reader's one way to CSR arrays.

:class:`ShardedViewCache` fronts any store — a
:class:`~repro.sharding.sharded.ShardedDGAP` or a one-shard
:class:`~repro.core.dgap.DGAP`; the store builds its one instance
(``g.view_cache``) and every reader shares it — and owns the three
read-side decisions (DESIGN.md §7): *reuse* (no row moved → the same
arrays, no snapshot), *build* (drive the per-shard patch caches, merge)
and *cost* (``cache.last``, priced by
:func:`~repro.analysis.costs.view_build_ns`).

The merge contract (tested in ``tests/test_sharding.py``, proved in
DESIGN.md §14): the merged ``((out_indptr, out_dsts), (in_indptr,
in_srcs))`` is **byte-identical** to what an unsharded DGAP fed the
same edge stream would materialize.

*Out-CSR*: global row ``g`` lives wholly in its owner shard as local
row ``g // n``, and the router dispatches each shard's edges in stream
order, so a shard's local row is exactly the global row — the merge is
a pure scatter of per-shard rows into the block-striped global layout
(no per-edge work).

*In-CSR*: each shard's in-stream is already ordered by
``(dst, global src, insertion)`` — the per-shard
:class:`~repro.analysis.viewcache.DGAPViewCache` labels local rows with
their block-mixed global ids (ascending per shard) over the global
destination domain.  The same ``(dst, src)`` pair always lands in the
same shard (``src`` determines the shard), so keys never collide across
streams and a pairwise ``searchsorted`` merge reproduces the global
``(dst, src, insertion)`` order of :func:`~repro.analysis.view.
build_in_csr` bit-for-bit.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..analysis.costs import EPOCH_CHECK_NS, view_build_ns
from ..analysis.view import ID_DTYPE, INDPTR_DTYPE, merge_in_streams
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


def merge_in_csr(inns: List[CSRPair], nv: int) -> CSRPair:
    """Fold per-shard in-streams into the global (dst, src)-ordered one.

    The source id pins the stream, so keys never collide across shards
    (:func:`~repro.analysis.view.merge_in_streams`) and the
    per-destination indptrs simply add.
    """
    dsts = np.arange(nv, dtype=np.int64)
    acc_ip, acc_srcs = inns[0]
    for ip, srcs in inns[1:]:
        acc_srcs = merge_in_streams(
            np.repeat(dsts, np.diff(acc_ip)), acc_srcs, np.repeat(dsts, np.diff(ip)), srcs, nv
        )
        acc_ip = acc_ip + ip
    return acc_ip, acc_srcs


class ViewBuild(NamedTuple):
    """The last ``materialize()`` call, as ``cache.last``."""

    epoch: Tuple[int, ...]  #: per-shard structure epochs the arrays are pinned at
    reused: bool  #: no row moved: the cached arrays were handed back
    modeled_ns: float  #: ``EPOCH_CHECK_NS`` when reused, else the build cost


class ShardedViewCache:
    """Global (out, in) CSR arrays of a store — readers get the store's
    own instance from ``store.view_cache``.

    ``materialize()`` compares the shards' structure epochs with the
    cached build and hands back the same (read-only) arrays while they
    hold; otherwise each shard's :class:`DGAPViewCache` patches the rows
    that changed.  If none did (the epoch moved for a rebalance, merge,
    resize or compaction) the same arrays come back again, still a
    reuse; else the shards' streams are merged — a scatter plus pairwise
    in-stream merges, ``O(E)`` with no sorting.  :attr:`last` says which
    happened and what it cost on the modeled clock.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._shards = tuple(store.shards)  # fixed for a store's lifetime
        n = store.n_shards
        self.caches = [DGAPViewCache(sh, r, n) for r, sh in enumerate(self._shards)]
        self._views: Optional[Tuple[CSRPair, CSRPair]] = None
        self.last: Optional[ViewBuild] = None
        #: rows re-materialized from PM over all builds (the shards'
        #: ``vertices_rebuilt``, summed): a reader sharing the cache
        #: takes the delta over its own call
        self.rows_read = 0

    @property
    def stats(self):
        """Per-shard :class:`~repro.analysis.viewcache.ViewCacheStats`."""
        return [c.stats for c in self.caches]

    def materialize(self) -> Tuple[CSRPair, CSRPair]:
        # the same-epoch call is the p50 served read: one tuple build
        # (a list comprehension, not a generator) and one compare
        epoch = tuple([sh.structure_epoch for sh in self._shards])
        last = self.last
        if last is not None and last.epoch == epoch:
            if not last.reused:
                self.last = ViewBuild(epoch, True, EPOCH_CHECK_NS)
            return self._views
        n = len(self._shards)
        nv = self.store.num_vertices
        outs: List[CSRPair] = []
        inns: List[CSRPair] = []
        builds = []
        rows = sum(c.stats.vertices_rebuilt for c in self.caches)
        for r, sh in enumerate(self._shards):
            expect = local_count(nv - 1, r, n)
            if sh.num_vertices != expect:
                raise GraphError(
                    f"shard {r} holds {sh.num_vertices} local vertices, "
                    f"expected {expect} for global count {nv}"
                )
            out, inn, did = self.caches[r].materialize(nv)
            outs.append(out)
            inns.append(inn)
            builds.append(did)
        self.rows_read += sum(c.stats.vertices_rebuilt for c in self.caches) - rows
        if all(b.mode == "reuse" for b in builds):
            # the epoch moved (a layout operation) but no row did: the
            # merged arrays are still exact — the epoch check, a step later
            self.last = ViewBuild(epoch, True, EPOCH_CHECK_NS)
            return self._views
        self._views = merge_out_csr(outs, nv, n), merge_in_csr(inns, nv)
        for pair in self._views:
            for arr in pair:
                # shared by every holder of this epoch (and, at one shard,
                # by the patch cache's next build): freeze at birth
                arr.flags.writeable = False
        self.last = ViewBuild(epoch, False, view_build_ns(builds, int(self._views[0][1].size)))
        return self._views


__all__ = ["ShardedViewCache", "ViewBuild", "merge_out_csr", "merge_in_csr"]
