"""Per-slot / per-entry references of the store's read path.

The store reads windows, logs and whole arrays with bulk NumPy passes
over sequential streams: ``Rebalancer._gather`` / ``_plan``,
``EdgeLogs.rebuild_counts`` and recovery's ``_scan_edge_array`` /
``_replay_logs``.  Each has a reference here, written as the plain
Python loop the bulk pass replaced.  The contract is exact equivalence:
the same results, the same persistent bytes and the same device
accounting (counters *and* modeled time, bit for bit).
:func:`back_pointer_walk`, one chain read pointer by pointer, is the
oracle of the chain grouping that gathers, snapshots and the invariant
check share.

:func:`scalar_readpath` swaps the references in for the length of a
``with`` block, so a store built, rebalanced or reopened inside it runs
them — that is how a test builds the reference twin of a store.  The
swap patches the classes and the recovery module, so it holds for every
store alive meanwhile: build the vectorized twin outside the block.
"""

from __future__ import annotations

import contextlib
from typing import List, Tuple
from unittest import mock

import numpy as np

from repro.core import recovery
from repro.core.edge_log import _FIELDS, ENTRY_BYTES, EdgeLogs, group_chains
from repro.core.encoding import SLOT_DTYPE, TOMB_BIT, encode_pivot
from repro.core.rebalance import GatherResult, Rebalancer
from repro.errors import RecoveryError


@contextlib.contextmanager
def scalar_readpath():
    """Run the references instead of the bulk read path inside the block."""
    with contextlib.ExitStack() as stack:
        for owner, name, ref in (
            (Rebalancer, "_gather", gather),
            (Rebalancer, "_plan", plan),
            (EdgeLogs, "rebuild_counts", rebuild_counts),
            (recovery, "_scan_edge_array", scan_edge_array),
            (recovery, "_replay_logs", replay_logs),
        ):
            stack.enter_context(mock.patch.object(owner, name, ref))
        yield


# ----------------------------------------------------------------------
# edge logs
# ----------------------------------------------------------------------


def stream(logs: EdgeLogs, s_lo: int, s_hi: int):
    """Per-entry reference of :meth:`EdgeLogs.stream` (same loads, charges and
    fault draws): ``(n, 4)`` int64 rows ``(gidx, f0, f1, f2)``."""
    dev = logs.pool.device
    view = logs.region.view
    eps, cursors = logs.entries_per_section, logs.counts
    out = []
    for g0, n in logs._runs(s_lo, s_hi):
        dev.read(logs.region.offset + g0 * ENTRY_BYTES, n * ENTRY_BYTES)
        dev.account_seq_read(n * ENTRY_BYTES)
        for g in range(g0, g0 + n):
            if g % eps < cursors[g // eps]:
                p = g * _FIELDS
                out.append((g, int(view[p]), int(view[p + 1]), int(view[p + 2])))
    return np.asarray(out, dtype=np.int64).reshape(len(out), 1 + _FIELDS)


def back_pointer_walk(logs: EdgeLogs, head: int) -> List[Tuple[int, int, int]]:
    """Per-entry oracle of :func:`~repro.core.edge_log.group_chains` for
    one chain: oldest-first ``(gidx, src, dst_enc)`` of the chain headed at
    ``head``, one ``read_entry`` per back-pointer."""
    chain = []
    while head >= 0:
        src, dst_enc, back = logs.read_entry(head)
        chain.append((head, src, dst_enc))
        head = back
    return chain[::-1]


def rebuild_counts(logs: EdgeLogs):
    """Per-entry reference of :meth:`EdgeLogs.rebuild_counts`."""
    eps = logs.entries_per_section
    logs.counts = np.full(logs.n_sections, eps, dtype=np.int64)
    counts = np.zeros(logs.n_sections, dtype=np.int64)
    live = np.zeros(logs.n_sections, dtype=np.int64)
    entries = stream(logs, 0, logs.n_sections)
    for g, f0, f1, f2 in entries.tolist():
        s, slot = divmod(g, eps)
        if f0 or f1 or f2:
            counts[s] = slot + 1
        if f0 and f1 and f2:
            live[s] += 1
    logs.counts = counts
    logs.live_counts = live
    return entries[:, 0], logs.region.view.reshape(-1, _FIELDS)


# ----------------------------------------------------------------------
# rebalance gather / plan
# ----------------------------------------------------------------------


def from_runs(lo, hi, i0, j, runs, chain_gidxs, log_rows, short) -> GatherResult:
    """A :class:`GatherResult` built from a per-vertex list of run arrays."""
    sizes = np.fromiter((r.size for r in runs), dtype=np.int64, count=len(runs))
    values = (
        np.concatenate(runs) if runs else np.empty(0, dtype=SLOT_DTYPE)
    ).astype(SLOT_DTYPE, copy=False)
    res = GatherResult(lo, hi, i0, j, values, sizes,
                       np.asarray(chain_gidxs, dtype=np.int64), log_rows, short)
    res._runs = list(runs)  # the reference's own runs, not ones split by the product
    return res


def gather(
    self: Rebalancer, lo: int, hi: int, i0: int, j: int, lossy: bool = False
) -> GatherResult:
    """Per-vertex/per-entry reference of :meth:`Rebalancer._gather`."""
    host = self.host
    va, ea, logs = host.va, host.ea, host.logs
    dev = host.pool.device
    slots = dev.read(ea.byte_off(lo), (hi - lo) * 4).view(SLOT_DTYPE)
    dev.account_seq_read((hi - lo) * 4)
    secs = self._window_lock_span(lo, hi)
    entries = stream(logs, secs.start, secs.stop)
    chains: List[list] = [[] for _ in range(i0, j)]
    for g, f0, f1, f2 in entries.tolist():  # append order: oldest first per vertex
        if f0 and f1 and f2 and i0 <= f0 - 1 < j:
            chains[f0 - 1 - i0].append((g, f1))
    runs: List[np.ndarray] = []
    chain_gidxs: List[int] = []
    total = 0
    for v in range(i0, j):
        st = int(va.start[v]) - lo
        ad = int(va.array_degree[v])
        chain = chains[v - i0]
        vals = np.fromiter((c[1] for c in chain), dtype=SLOT_DTYPE, count=len(chain))
        chain_gidxs.extend(c[0] for c in chain)
        run = np.concatenate([slots[st : st + ad], vals])
        runs.append(run)
        total += 1 + run.size  # pivot + edges
    log_rows = entries[:, 0], entries[:, 1:]
    # the chains meet the vertex array's check (the store's, not a loop of its own)
    short = group_chains(*log_rows, np.arange(i0, j), va, lossy)[2]
    return from_runs(lo, hi, i0, j, runs, chain_gidxs, log_rows, short)


def plan(self: Rebalancer, g: GatherResult, tail: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Per-run reference of :meth:`Rebalancer._plan`."""
    W = g.hi - g.lo
    nv = len(g.runs)
    sizes = np.fromiter((1 + r.size for r in g.runs), dtype=np.int64, count=nv)
    T = int(sizes.sum())
    assert T == g.total and T + tail <= W
    gaps = self._gaps(sizes, W - T, T, tail) if nv else sizes
    image = np.zeros(W, dtype=SLOT_DTYPE)
    new_starts = np.zeros(nv, dtype=np.int64)
    pos = 0
    for k, run in enumerate(g.runs):
        image[pos] = encode_pivot(g.i0 + k)
        image[pos + 1 : pos + 1 + run.size] = run
        new_starts[k] = g.lo + pos + 1
        pos += 1 + run.size + int(gaps[k])
    return image, new_starts


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------


def scan_edge_array(host) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot reference of ``recovery._scan_edge_array``."""
    slots = host.ea.slots
    cap = host.ea.capacity
    vids: List[int] = []
    starts: List[int] = []
    array_deg: List[int] = []
    live: List[int] = []
    garbage: List[int] = []
    closed = False  # current run already hit its first gap
    for i in range(cap):
        s = int(slots[i])
        if s < 0:
            vids.append(-s - 1)
            starts.append(i + 1)
            array_deg.append(0)
            live.append(0)
            closed = False
        elif s == 0:
            closed = True
        elif closed:
            garbage.append(i)  # torn commit group: behind the run's first gap
        elif starts:
            array_deg[-1] += 1
            if s & int(TOMB_BIT):
                live[-1] -= 1
            else:
                live[-1] += 1
    nv = len(vids)
    if nv:
        if any(b <= a for a, b in zip(vids, vids[1:])):
            raise RecoveryError("pivot ids are not strictly increasing — image corrupt")
        if vids[0] != 0 or vids[-1] != nv - 1:
            raise RecoveryError("pivot id space is not dense — image corrupt")
    host.pool.device.account_seq_read(cap * 4)
    if garbage:
        recovery._zero_slots(host.ea, np.asarray(garbage, dtype=np.int64))
    return (
        np.asarray(starts, dtype=np.int64),
        np.asarray(array_deg, dtype=np.int64),
        np.asarray(live, dtype=np.int64),
    )


def replay_logs(
    host, image: np.ndarray, nv: int, degree: np.ndarray, live: np.ndarray, el: np.ndarray
) -> None:
    """Per-entry reference of ``recovery._replay_logs``."""
    accepted = np.zeros(image.shape[0], dtype=bool)
    broken: List[int] = []
    for g, (f0, f1, f2) in enumerate(image.tolist()):
        if not (f0 and f1 and f2):
            continue
        if f2 > 1 and not accepted[f2 - 2]:
            broken.append(g)  # back target never persisted: torn commit group
            continue
        accepted[g] = True
        s = f0 - 1
        if s >= nv or s < 0:
            raise RecoveryError("edge-log entry references unknown vertex")
        degree[s] += 1
        if f1 & int(TOMB_BIT):
            live[s] -= 1
        else:
            live[s] += 1
        if g > el[s]:
            el[s] = g
    host.logs.invalidate_entries(broken)
