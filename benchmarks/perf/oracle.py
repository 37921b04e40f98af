"""Benchmark-side output oracle: a shadow adjacency and NumPy references.

Everything here is independent of ``src/``: the shadow is a plain list
of insertion-ordered live rows fed the same acknowledged mutations the
store was, and every check compares a library output against it.  The
checks run outside the timers.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

KEY_SHIFT = 32  # (src << 32) | dst orders pairs like a (src, dst) lexsort


def pair_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    return (np.asarray(src, dtype=np.int64) << KEY_SHIFT) | np.asarray(dst, dtype=np.int64)


def csr_keys(indptr: np.ndarray, dsts: np.ndarray) -> np.ndarray:
    """Sorted (src, dst) multiset of a CSR, as packed keys."""
    src = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    return np.sort(pair_keys(src, dsts))


def reference_in_csr(indptr: np.ndarray, dsts: np.ndarray, nv: int) -> Tuple[np.ndarray, np.ndarray]:
    """In-CSR in (dst, src, insertion) order from an out-CSR, in NumPy."""
    src = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    order = np.argsort(dsts, kind="stable")
    in_indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(dsts, minlength=nv), out=in_indptr[1:])
    return in_indptr, src[order]


class Shadow:
    """Insertion-ordered live rows; a tombstone drops the last live copy."""

    def __init__(self, nv: int) -> None:
        self.rows: List[List[int]] = [[] for _ in range(nv)]
        self.deg = np.zeros(nv, dtype=np.int64)

    def _grow(self, nv: int) -> None:
        if nv > len(self.rows):
            self.rows.extend([] for _ in range(nv - len(self.rows)))
            self.deg = np.concatenate([self.deg, np.zeros(nv - self.deg.size, dtype=np.int64)])

    def insert(self, edges: np.ndarray) -> None:
        """Append an (N, 2) insert-only array, keeping per-source stream order."""
        if edges.shape[0] == 0:
            return
        src, dst = edges[:, 0], edges[:, 1]
        self._grow(int(edges.max()) + 1)
        order = np.argsort(src, kind="stable")
        ss, dd = src[order], dst[order].tolist()
        cuts = np.flatnonzero(ss[1:] != ss[:-1]) + 1
        starts = np.concatenate(([0], cuts)).tolist()
        ends = np.concatenate((cuts, [ss.size])).tolist()
        rows = self.rows
        for s, a, b in zip(ss[starts].tolist(), starts, ends):
            rows[s].extend(dd[a:b])
        self.deg += np.bincount(src, minlength=self.deg.size)

    def apply(self, src, dst, tomb) -> int:
        """Apply a mixed batch in order; returns tombstones that found no live copy."""
        self._grow(int(max(np.max(src), np.max(dst))) + 1)
        rows, deg, missed = self.rows, self.deg, 0
        for s, d, t in zip(np.asarray(src).tolist(), np.asarray(dst).tolist(), np.asarray(tomb).tolist()):
            row = rows[s]
            if not t:
                row.append(d)
                deg[s] += 1
                continue
            for i in range(len(row) - 1, -1, -1):
                if row[i] == d:
                    del row[i]
                    deg[s] -= 1
                    break
            else:
                missed += 1
        return missed

    # -- references ------------------------------------------------------
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        indptr = np.zeros(len(self.rows) + 1, dtype=np.int64)
        np.cumsum(self.deg, out=indptr[1:])
        dsts = np.fromiter(chain.from_iterable(self.rows), dtype=np.int64, count=int(indptr[-1]))
        return indptr, dsts

    def keys(self) -> np.ndarray:
        return csr_keys(*self.csr())

    def k_hop(self, v: int, k: int) -> np.ndarray:
        seen, frontier = {v}, [v]
        for _ in range(k):
            nxt = set()
            for u in frontier:
                nxt.update(self.rows[u])
            nxt -= seen
            seen |= nxt
            frontier = list(nxt)
        seen.discard(v)
        return np.array(sorted(seen), dtype=np.int64)

    def top_k(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        order = np.lexsort((np.arange(self.deg.size), -self.deg))[:k]
        return order, self.deg[order]

    def check_read(self, op: tuple, got) -> bool:
        """True iff a served read equals the shadow's answer."""
        kind = op[0]
        if kind == "degree":
            return int(got) == len(self.rows[op[1]])
        if kind == "neighbors":
            return np.array_equal(np.asarray(got, dtype=np.int64), self.rows[op[1]])
        if kind == "edge_exists":
            return bool(got) == (op[2] in self.rows[op[1]])
        if kind == "k_hop":
            return np.array_equal(np.asarray(got, dtype=np.int64), self.k_hop(op[1], op[2]))
        ids, degs = got
        want_ids, want_degs = self.top_k(op[1])
        return np.array_equal(np.asarray(ids, dtype=np.int64), want_ids) and np.array_equal(
            np.asarray(degs, dtype=np.int64), want_degs
        )


class WindowShadow:
    """Sliding-window semantics over a :class:`Shadow`: FIFO churn + expiry.

    Mirrors the documented contract of ``TemporalWindowGraph.advance``
    (adds, then churn deletes consuming the oldest live copy, then expiry
    of the copies born ``window`` steps ago) without reading its state.
    """

    def __init__(self, shadow: Shadow, window: int) -> None:
        self.shadow = shadow
        self.window = window
        self.fifo: Dict[Tuple[int, int], deque] = {}
        self.born: Dict[int, List[Tuple[int, int]]] = {}
        self.t = 0

    def advance(self, adds: np.ndarray, deletes: np.ndarray) -> dict:
        t = self.t
        self.t += 1
        pairs = [tuple(p) for p in adds.tolist()]
        for p in pairs:
            self.fifo.setdefault(p, deque()).append(t)
        self.born[t] = pairs
        self.shadow.insert(adds)
        churned = [tuple(p) for p in deletes.tolist() if self._consume(tuple(p), None)]
        expired = [p for p in self.born.pop(t - self.window, []) if self._consume(p, t - self.window)]
        victims = churned + expired
        if victims:
            arr = np.asarray(victims, dtype=np.int64)
            self.shadow.apply(arr[:, 0], arr[:, 1], np.ones(arr.shape[0], dtype=bool))
        return {"added": len(pairs), "churn_deleted": len(churned), "expired": len(expired)}

    def _consume(self, pair, birth) -> bool:
        fifo = self.fifo.get(pair)
        if not fifo or (birth is not None and fifo[0] != birth):
            return False
        fifo.popleft()
        if not fifo:
            del self.fifo[pair]
        return True
