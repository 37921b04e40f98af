"""The shadow model every sweep, soak and test judges a store against.

One ordered per-vertex adjacency with the store's own semantics
(DESIGN.md §6):

* an insert appends to its source's row;
* a delete — scalar, a batch's tombstone row, or one pair of an expiry
  run — removes the positionally **last** live occurrence of the
  destination (what the tombstone path does to byte-identical parallel
  copies); a delete with no live copy changes nothing;
* a batch is its per-source sequences, in stream order;
* a compaction sweep, and growing the id space, are invisible;
* a lossy repair is a shortfall the damage report enumerates
  (:meth:`Model.admits_short`, the only comparison that is not in
  exact order: the rewritten sections' layout is not the twin's).

:meth:`Model.admits` is the one statement of what a power failure may
leave of the operation it interrupted.  :func:`of`, :func:`apply` and
:func:`assert_structure` are the store-side halves: read a store's
adjacency, run one workload op on it, check its structure.
:func:`check` is the oracle step the crash and soak sweeps both end in.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.edge_log import EdgeLogs
from repro.sharding.partition import to_global

#: One workload operation: ``("insert" | "delete", src, dst)``, a routed
#: bulk mutation ``("batch", EdgeBatch[, batch_size])``, a window-expiry delete run
#: ``("expire", ((src, dst), ...))``, a tombstone-merge sweep
#: ``("compact",)``, or ids ``0..v`` made to exist ``("grow", v)``.
Op = Tuple

#: ``{vertex: [dst, ...]}`` in read order; an absent vertex has no edges.
Rows = Dict[int, List[int]]


class Mismatch(AssertionError):
    """A store does not hold, or is not shaped like, what the model admits."""


def _steps(op: Op) -> List[Tuple[int, int, bool]]:
    """An op as the ``(src, dst, tombstone)`` sequence the store applies."""
    kind = op[0]
    if kind in ("insert", "delete"):
        return [(op[1], op[2], kind == "delete")]
    if kind == "batch":
        b = op[1]
        return list(zip(b.src.tolist(), b.dst.tolist(), b.tombstone.tolist()))
    if kind == "expire":
        return [(s, d, True) for s, d in op[1]]
    if kind in ("compact", "grow"):
        return []  # logically invisible: live adjacency is unchanged
    raise ValueError(f"unknown workload op kind {kind!r}")


class Model:
    """Ordered per-vertex adjacency: what a store must read back."""

    def __init__(self, edges: Iterable = (), rows: Optional[Rows] = None):
        self.rows: Rows = {v: list(r) for v, r in (rows or {}).items()}
        for s, d in edges:
            self.insert(int(s), int(d))

    @classmethod
    def after(cls, ops: Iterable[Op]) -> "Model":
        """The model after applying ``ops`` in order."""
        m = cls()
        for op in ops:
            m.apply(op)
        return m

    def insert(self, s: int, d: int) -> None:
        self.rows.setdefault(s, []).append(d)

    def delete(self, s: int, d: int) -> bool:
        """Drop the last live ``d`` of row ``s``; False if there is none."""
        row = self.rows.get(s, [])
        for i in range(len(row) - 1, -1, -1):
            if row[i] == d:
                del row[i]
                return True
        return False

    def _step(self, s: int, d: int, tomb: bool) -> None:
        if tomb:
            self.delete(s, d)
        else:
            self.insert(s, d)

    def apply(self, op: Op) -> "Model":
        for step in _steps(op):
            self._step(*step)
        return self

    def row(self, v: int) -> List[int]:
        return self.rows.get(v, [])

    @property
    def num_edges(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def csr(self, nv: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, dsts)`` over vertices ``0..nv-1``, the view stack's dtypes."""
        indptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum([len(self.row(v)) for v in range(nv)], out=indptr[1:])
        dsts = np.array([d for v in range(nv) for d in self.row(v)], dtype=np.int32)
        return indptr, dsts

    # -- the oracle ---------------------------------------------------------
    def admits(self, got: Rows, in_flight: Optional[Op] = None) -> Optional[bool]:
        """Require ``got`` to be this model plus a legal cut of ``in_flight``.

        Rows the in-flight op does not touch must equal the model's
        exactly.  What it touches may hold a *prefix* of it: a scalar
        insert or delete lands at most once; an expiry run applies its
        deletes in order, so one cut ``j`` of the run holds across all
        its rows; a batch places each vertex's edges in stream order and
        recovery cuts a torn commit group back per vertex (DESIGN.md §5;
        on a sharded store a vertex lives in one shard), so each row is
        cut independently.  Returns whether any of the op landed (None
        with nothing in flight, or a compaction — invisible either way);
        raises :class:`Mismatch` naming the vertex.
        """
        steps = _steps(in_flight) if in_flight is not None else []
        touched = sorted({s for s, _, _ in steps})
        for v in sorted((set(got) | set(self.rows)).difference(touched)):
            if got.get(v, []) != self.row(v):
                raise Mismatch(
                    f"vertex {v}: holds {got.get(v)}, the model {self.row(v)} "
                    f"(phantom, duplicate or lost edge)"
                )
        if not steps:
            return None
        per_vertex = in_flight[0] == "batch"
        groups = [[st for st in steps if st[0] == v] for v in touched] if per_vertex else [steps]
        applied = False
        for group in groups:
            over = sorted({s for s, _, _ in group})
            have = {v: got.get(v, []) for v in over}
            cut = Model(rows={v: self.row(v) for v in over})
            hit = [0] if cut.rows == have else []
            for j, step in enumerate(group, 1):
                cut._step(*step)
                if cut.rows == have:
                    hit.append(j)
            if not hit:
                v = next(v for v in over if have[v] != self.row(v))
                raise Mismatch(
                    f"vertex {v}: holds {have[v]}, which is not the model's "
                    f"{self.row(v)} plus a prefix of the in-flight {in_flight[0]} {group}"
                )
            applied |= hit[-1] > 0
        return applied

    def admits_short(self, got: Rows, lost: Dict[int, int], in_flight: Optional[Op] = None) -> None:
        """Require ``got`` to be this model short by exactly ``lost[v]`` per row.

        The comparison after a lossy repair: every row's multiset is
        contained in the model's (an in-flight scalar insert may add its
        one edge) and falls short by the enumerated losses — an edge may
        be gone only if the damage report names it.
        """
        most = Model(rows=self.rows).apply(in_flight) if in_flight is not None else self
        for v in sorted(set(got) | set(most.rows)):
            row, full = got.get(v, []), most.row(v)
            extra = Counter(row) - Counter(full)
            if extra:
                raise Mismatch(
                    f"vertex {v}: neighbors {dict(extra)} beyond the fault-free "
                    f"twin's (phantom or duplicate edge introduced by a repair or retry)"
                )
            short = len(full) - len(row) - lost.get(v, 0)
            if not 0 <= short <= len(full) - len(self.row(v)):
                raise Mismatch(
                    f"silent corruption at vertex {v}: twin has {len(full)} edges, "
                    f"subject has {len(row)}, but the damage report enumerates only "
                    f"{lost.get(v, 0)} lost edges for it"
                )


# -- the store side -----------------------------------------------------------
def of(store) -> Rows:
    """A store's live adjacency, every vertex, in read order: every row
    of a shard read through one snapshot of it."""
    rows: Rows = {}
    for k, part in enumerate(store.shards):
        local = np.arange(part.num_vertices, dtype=np.int64)
        with part.consistent_view() as snap:
            counts, dsts = snap.materialize_rows(local)
        glob = to_global(local, k, len(store.shards)).tolist()
        rows.update(zip(glob, np.split(dsts, np.cumsum(counts)[:-1])))
    return {v: rows[v].tolist() for v in range(store.num_vertices)}


def apply(store, op: Op) -> None:
    """Run one workload op on a store."""
    kind = op[0]
    if kind == "batch":
        # One op is one call: by default one round per shard (the
        # workload builder chunked the stream); a third field is the
        # call's batch size, which each shard cuts its share by.
        store.insert_edges(op[1], batch_size=op[2] if len(op) > 2 else None)
    elif kind == "compact":
        store.compact()
    elif kind == "grow":
        store.insert_vertex(op[1])
    else:
        for s, d, tomb in _steps(op):
            (store.delete_edge if tomb else store.insert_edge)(s, d)


def assert_structure(store) -> None:
    """The structural half of every oracle: the PMA invariants, and every
    shard's edge-log cursors equal to an independent rebuild from the log
    bytes.  Raises :class:`Mismatch`."""
    try:
        store.check_invariants()
    except Exception as exc:
        raise Mismatch(f"structural invariants violated: {exc}") from exc
    for part in store.shards:
        fresh = EdgeLogs(
            part.pool, part.logs.n_sections, part.logs.entries_per_section, create=False
        )
        fresh.rebuild_counts()
        if not (
            np.array_equal(fresh.counts, part.logs.counts)
            and np.array_equal(fresh.live_counts, part.logs.live_counts)
        ):
            raise Mismatch(
                f"edge-log cursors disagree with an independent rebuild: "
                f"{part.logs.counts.tolist()} vs {fresh.counts.tolist()}"
            )


def check(
    want: Model,
    got: Rows,
    in_flight: Optional[Op] = None,
    *,
    store=None,
    lost: Optional[Dict[int, int]] = None,
    where: str = "?",
) -> Optional[bool]:
    """The oracle step of every sweep: ``got`` is ``want`` plus a legal cut
    of ``in_flight`` (:meth:`Model.admits`) — or, after a lossy repair,
    short by exactly the enumerated ``lost`` (:meth:`Model.admits_short`)
    — and then ``store``, if given, passes :func:`assert_structure`.
    Returns whether the in-flight op landed; raises :class:`Mismatch`
    prefixed with ``[where]``."""
    try:
        if lost is None:
            applied = want.admits(got, in_flight)
        else:
            applied = want.admits_short(got, lost, in_flight)
        if store is not None:
            assert_structure(store)
    except Mismatch as exc:
        raise Mismatch(f"[{where}] {exc}") from exc
    return applied
