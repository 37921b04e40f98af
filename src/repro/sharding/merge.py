"""The store-level view cache: every reader's one way to CSR arrays.

:class:`ShardedViewCache` fronts any store — a
:class:`~repro.sharding.sharded.ShardedDGAP` or a one-shard
:class:`~repro.core.dgap.DGAP`; the store builds its one instance
(``g.view_cache``) and every reader shares it — and owns the three
read-side decisions (DESIGN.md §7): *reuse* (no row moved → the same
arrays, no snapshot), *build* (drive the per-shard patch caches; merge
only for a reader of the global arrays) and *cost* (``cache.last``,
priced by :func:`~repro.analysis.costs.view_build_ns` and
:func:`~repro.analysis.costs.merge_ns`).

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

import weakref
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..analysis.costs import EPOCH_CHECK_NS, merge_ns, view_build_ns
from ..analysis.view import ID_DTYPE, INDPTR_DTYPE, merge_in_streams
from ..analysis.viewcache import DGAPViewCache
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


def _frozen(pairs):
    """Freeze arrays at birth: every holder of an epoch shares them, and
    so does the shard cache's next patch."""
    for arr in (a for pair in pairs for a in pair):
        arr.flags.writeable = False
    return pairs


class ViewBuild(NamedTuple):
    """The last ``rows()`` or ``materialize()`` call, as ``cache.last``."""

    epoch: Tuple[int, ...]  #: per-shard structure epochs the arrays are pinned at
    reused: bool  #: nothing was built: the cached arrays were handed back
    modeled_ns: float  #: ``EPOCH_CHECK_NS`` when reused, else what was built


class ShardedViewCache:
    """A store's CSR arrays — readers get the store's own instance from
    ``store.view_cache`` — as two products over the same per-shard
    :class:`DGAPViewCache` objects:

    * :meth:`rows` — each shard's out-CSR at the current epochs, what a
      served read routes into, and beside it each shard's top-degree
      list (:attr:`tops`): the same tuples while no shard's epoch
      moved, else each shard patches the rows that changed (none, for a
      layout operation: still a reuse).  Priced as the slowest shard's
      patch, with no merge term at any N.
    * :meth:`materialize` — the merged ``((out_indptr, out_dsts),
      (in_indptr, in_srcs))`` an analysis reader or ``global_csr()``
      needs, derived from :meth:`rows` only when called, once per set of
      rows: each shard's in-CSR catches up (unpriced DRAM work) and
      N > 1 pays the O(E) scatter.

    :attr:`last` says which happened and what it cost on the modeled
    clock.
    """

    def __init__(self, store) -> None:
        # the store owns its cache: both back-pointers are weak proxies,
        # so a dropped store frees on its last reference (DESIGN.md §7)
        self.store = weakref.proxy(store)
        n = store.n_shards
        self.caches = [DGAPViewCache(sh, r, n) for r, sh in enumerate(store.shards)]
        self._shards = tuple(c.graph for c in self.caches)  # fixed for a store's lifetime
        self._rows: Tuple[CSRPair, ...] = ()
        self.tops: Tuple[CSRPair, ...] = ()  #: per shard, its top list, read with its rows
        self._views: Optional[Tuple[CSRPair, CSRPair]] = None  # merged from them
        self.last: Optional[ViewBuild] = None
        #: rows re-materialized from PM over all builds (the shards'
        #: ``vertices_rebuilt``, summed): a reader sharing the cache
        #: takes the delta over its own call
        self.rows_read = 0
        self.merges = 0  #: global merges built (scatter + in-CSR catch-ups)

    @property
    def stats(self):
        """Per-shard :class:`~repro.analysis.viewcache.ViewCacheStats`."""
        return [c.stats for c in self.caches]

    def rows(self) -> Tuple[CSRPair, ...]:
        """Per shard ``r``, ``(out_indptr, out_dsts)`` of the rows
        ``[0, local_count(nv - 1, r, n))`` every shard agrees on."""
        # the same-epoch call is the p50 served read: one tuple build
        # (a list comprehension, not a generator) and one compare
        epoch = tuple([sh.structure_epoch for sh in self._shards])
        last = self.last
        if last is not None and last.epoch == epoch:
            if not last.reused:
                self.last = ViewBuild(epoch, True, EPOCH_CHECK_NS)
            return self._rows
        n, nv = len(self._shards), self.store.num_vertices
        before = sum(c.stats.vertices_rebuilt for c in self.caches)
        outs, builds = zip(*[c.rows(local_count(nv - 1, r, n)) for r, c in enumerate(self.caches)])
        self.rows_read += sum(c.stats.vertices_rebuilt for c in self.caches) - before
        if all(b.mode == "reuse" for b in builds):
            # the epoch moved (a layout operation) but no row did: the
            # cached rows are still exact — the epoch check, a step later
            self.last = ViewBuild(epoch, True, EPOCH_CHECK_NS)
            return self._rows
        self._rows, self._views = _frozen(outs), None
        self.tops = _frozen(tuple(c.top for c in self.caches))
        self.last = ViewBuild(epoch, False, view_build_ns(builds))
        return outs

    def materialize(self) -> Tuple[CSRPair, CSRPair]:
        rows = self.rows()
        patched = self.last
        if self._views is not None:
            return self._views
        n, nv = len(rows), self.store.num_vertices  # what the rows were read at
        inns = [c.in_csr(nv) for c in self.caches]
        self._views = _frozen((merge_out_csr(list(rows), nv, n), merge_in_csr(inns, nv)))
        self.merges += 1
        # the rows' patch if this call paid for it, and the scatter
        cost = 0.0 if patched.reused else patched.modeled_ns
        self.last = ViewBuild(patched.epoch, False, cost + merge_ns(int(self._views[0][1].size), n))
        return self._views


__all__ = ["ShardedViewCache", "ViewBuild", "merge_out_csr", "merge_in_csr"]
