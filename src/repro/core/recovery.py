"""Shutdown/reboot and crash recovery (paper §3.1.5).

``open_from_pool`` dispatches on the persistent ``NORMAL_SHUTDOWN``
flag:

* **normal restart** — the DRAM vertex array and PMA metadata were
  persisted at shutdown; load them back (one sequential read) and go.
* **crash recovery** — in order:

  1. roll back an interrupted PMDK transaction (the "No EL&UL"
     ablation's protection);
  2. stream the whole edge-log region once and rebuild the append
     cursors from it — the only time recovery reads log bytes: steps 3
     and 5 work on this image;
  3. complete or unwind every per-thread undo log (restore the chunk
     backup / redo the copy-on-write or roll a committed generation
     switch forward / finish pending log clears);
  4. scan the edge array pivots to reconstruct the vertex array
     (starts, array degrees, tombstone-adjusted live degrees);
  5. replay the edge logs to restore degrees and ``el_v`` chain heads;
  6. recount section occupancy and re-issue any interrupted rebalance.

Every step reads persistent state only — two sequential streams, one
over the logs and one over the edge array, so recovery time follows
pool size (§4.4: "graph-size dependent"); costs accrue to the pool's
modeled clock inside the ``crash_recover`` span, which is what the §4.4
recovery evaluation reports.  Either path ends by freeing the generation
regions a crash or a failed switch left behind (``Rebalancer.reap``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import DGAPConfig
from ..errors import RecoveryError
from ..nputil import prefix_dtype
from ..obs.tracer import trace, traced
from ..pmem.pool import DATA_OFF, PMemPool
from .encoding import SLOT_DTYPE, TOMB_BIT, live_degrees
from .rebalance import (
    ROOT_EPS,
    ROOT_GEN,
    ROOT_NTHREADS,
    ROOT_NV_HINT,
    ROOT_SEGSLOTS,
    ROOT_SHUTDOWN,
    SCRATCH,
)
from .undo_log import STATE_ACTIVE, STATE_COPYBACK
from .vertex_array import make_vertex_array


@traced("open")
def open_from_pool(cls, pool: PMemPool, config: Optional[DGAPConfig] = None):
    """Reconstruct a DGAP instance from a pool (normal or crash path)."""
    host = cls._blank()
    host.config = config or DGAPConfig()
    host.pool = pool

    seg_slots = pool.read_root(ROOT_SEGSLOTS)
    eps = pool.read_root(ROOT_EPS)
    nthreads = pool.read_root(ROOT_NTHREADS)
    gen = pool.read_root(ROOT_GEN)
    if seg_slots == 0 or eps == 0:
        raise RecoveryError("pool does not contain a DGAP image (missing geometry roots)")

    # Locks are DRAM-only (paper §3.1.6) and built here, *before* replay,
    # so the rebalances recovery re-issues run under the same window-lock
    # protocol as live ones; resized afterwards in case recovery itself
    # switched generations.
    capacity = pool.get_array(f"edges.g{gen}").count
    host._attach(capacity, seg_slots, eps, nthreads, gen=gen, create=False)

    if pool.read_root(ROOT_SHUTDOWN) == 1:
        with trace("normal_restart"):
            _normal_restart(host)
    else:
        with trace("crash_recover"):
            crash_recover(host)

    if host.locks.n_sections != host.ea.n_sections:
        host.locks.resize(host.ea.n_sections)
    host.rebalancer.reap()
    pool.write_root(ROOT_SHUTDOWN, 0)
    return host


def _normal_restart(host) -> None:
    """Load the metadata persisted by a graceful shutdown (vertex array,
    section occupancy, log cursors): neither array nor logs are scanned."""
    pool = host.pool
    nv = pool.read_root(ROOT_NV_HINT)
    n_sec = host.ea.n_sections
    host.va = make_vertex_array(nv, host.config.dram_placement, pool)

    def load(name: str, n: int) -> np.ndarray:
        pool.device.account_seq_read(n * 8)
        return pool.get_array(f"meta.{name}").view[:n].copy()

    host.va.bulk_load(*(load(f, nv) for f in host._META_FIELDS))
    host.ea.seg_occ = load("seg_occ", n_sec)
    host.logs.counts = load("log_counts", n_sec)
    host.logs.live_counts = load("log_live", n_sec)


def crash_recover(host) -> None:
    """Full crash recovery: scan, replay, complete in-flight rebalances."""
    pool = host.pool

    # (0) uncorrectable media damage: repair what is reconstructible,
    # refuse (with the damaged region named) what is not.
    with trace("scrub_poison"):
        _scrub_poison(host)

    # (1) interrupted PMDK transaction (No EL&UL ablation)
    if host.tx_mgr is not None:
        with trace("tx_recover"):
            host.tx_mgr.recover()

    # (2) edge-log cursors (needed by the undo logs' pending clears) —
    # the one stream of the log region; (3) and (5) reuse its image
    with trace("rebuild_log_cursors", log_bytes=host.logs.region.nbytes):
        log_rows = host.logs.rebuild_counts()

    # (3) per-thread undo logs: restore / redo / finish clears
    reissue: List[Tuple[int, int]] = []
    with trace("recover_ulogs", threads=len(host.ulogs)):
        for ul in host.ulogs:
            win = host.rebalancer.recover_ulog(ul, log_rows)
            if win is not None:
                reissue.append(win)

    # (4) pivot scan -> vertex array; (5) log replay -> degrees/chains
    with trace("scan_edge_array"):
        starts, array_deg, live = _scan_edge_array(host)
    nv = starts.size
    degree = array_deg.copy()
    el = np.full(nv, -1, dtype=np.int64)
    with trace("replay_logs"):
        _replay_logs(host, log_rows[1], nv, degree, live, el)

    host.va = make_vertex_array(max(nv, 1), host.config.dram_placement, pool)
    if nv:
        host.va.bulk_load(starts, degree, array_deg, live, el)

    # (6) occupancy + interrupted rebalances
    host.ea.recount_all()
    for lo, hi in reissue:
        with trace("reissue_window"):
            _reissue_window(host, lo, hi)


#: name prefixes of the regions that live and die with a generation, or
#: (the logs) its geometry — what ``Rebalancer.reap`` frees once dead
_PER_GENERATION = ("edges.g", "segocc.g")
_JOURNAL = "pmdk-journal.g"
GENERATION_REGIONS = _PER_GENERATION + ("elogs.g", _JOURNAL)


def dead_state(host, name: str, off: int, n: int) -> Optional[bool]:
    """The one rule for which allocated bytes nothing will read again.

    ``True``: bytes ``[off, off + n)`` of region ``name`` are dead — they
    may be zeroed, which is how poison on them is repaired, at crash
    time and at runtime alike.  ``False``: something still reads them
    and no copy exists.  ``None``: not a region this rule covers (the
    caller's own redundancy, if any, decides).

    * ``meta.*`` — the shutdown snapshot: ignored on the crash path and
      regenerated at the next shutdown;
    * ``edges.g*`` / ``segocc.g*`` — dead unless the current generation
      or the source of a COPYBACK (a committed generation switch the
      root has yet to flip to);
    * ``elogs.g*`` — a log region belongs to a geometry
      (``n_sections``), not to a generation: dead iff not the current one's;
    * ``pmdk-journal.g*`` (+ ``.lane``, the "No EL&UL" ablation) — a
      journal is empty between transactions and a switch runs none, so it
      dies with its generation; the current one's is the caller's to judge
      (idle it may be zeroed, mid-transaction it is what recovery reads);
    * ``ulog.pay.t*`` — only consumed by an ACTIVE restore with a
      committed (valid) backup;
    * ``rebal.scratch`` — only consumed as the source of a COPYBACK.
    """
    if name.startswith("meta."):
        return True
    if name.startswith("elogs.g"):
        return name != host.logs.region.name
    if name.startswith(_JOURNAL):
        current = int(name[len(_JOURNAL):].split(".")[0]) == host.ea.gen
        return None if current else True
    if name.startswith("ulog.pay.t"):
        tid = int(name.rsplit("t", 1)[1])
        h = next((ul.read_header() for ul in host.ulogs if ul.thread_id == tid), None)
        return h is None or h.state != STATE_ACTIVE or h.valid == 0
    generation = name.startswith(_PER_GENERATION)
    if generation and int(name.rsplit("g", 1)[1]) == host.ea.gen:
        return False
    if generation or name == SCRATCH:
        headers = (ul.read_header() for ul in host.ulogs)
        return not any(
            h.state == STATE_COPYBACK and h.dst_off < off + n and off < h.dst_off + h.length
            for h in headers
        )
    return None


def _scrub_poison(host) -> None:
    """Handle poisoned (uncorrectable) media lines before recovery reads.

    A region whose content recovery never consumes (:func:`dead_state`)
    is *repaired* by rewriting it (a media rewrite clears DCPMM poison).
    Damage to anything recovery must read — the live edge array or logs,
    undo-log headers, an ACTIVE backup payload, a COPYBACK scratch
    source — is unrecoverable data loss and raises
    :class:`RecoveryError` naming the region.

    Poisoned line ranges are split at region boundaries and every part
    classified by its own region.  Poison in unallocated space (nothing
    recovery reads) is repairable.  A range whose parts are all
    repairable is rewritten in one store so the whole ECC line is made
    whole even when parts split it.
    """
    pool = host.pool
    dev = pool.device
    ranges = dev.poisoned_ranges()
    if not ranges:
        return
    for off, n in ranges:
        for poff, pn, name in pool.split_by_region(off, n):
            if name is None and poff >= DATA_OFF:
                continue  # unallocated space: content unused, zeros fine
            if name is None or not dead_state(host, name, poff, pn):
                raise RecoveryError(
                    f"uncorrectable media error in {name or 'pool metadata'!r} at "
                    f"offset {poff} ({pn} bytes): persistent image is damaged "
                    f"beyond repair"
                )
        # Rewriting the lines clears the poison; the content is dead, so
        # zeros are as good as anything.  One store over the whole range:
        # per-part partial-line stores would leave a straddled ECC line
        # poisoned (the device only clears fully rewritten lines).
        dev.ntstore(off, np.zeros(n, dtype=np.uint8), payload=0)
    dev.sfence()


def _scan_edge_array(host) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot scan of the whole edge array in one accounted bulk load.

    The scan reads the array through the device's bulk read layer (one
    sequential stream over the capacity) and reduces it with prefix sums
    into call-local arrays (recovery keeps no scratch past itself),
    4 B per slot while the capacity fits ``int32``.
    """
    ea = host.ea
    cap = ea.capacity
    slots = host.pool.device.load_batch(
        ea.region.offset, cap * 4
    ).view(SLOT_DTYPE)
    ppos = np.flatnonzero(slots < 0)
    vids = (-slots[ppos].astype(np.int64)) - 1
    nv = vids.size
    if nv:
        if not (np.diff(vids) > 0).all():
            raise RecoveryError("pivot ids are not strictly increasing — image corrupt")
        if vids[0] != 0 or vids[-1] != nv - 1:
            raise RecoveryError("pivot id space is not dense — image corrupt")
    starts = ppos + 1
    ends = np.append(ppos[1:], cap)
    nz = np.zeros(cap + 1, dtype=prefix_dtype(cap))
    np.cumsum(slots != 0, dtype=nz.dtype, out=nz[1:])
    array_deg = (nz[ends] - nz[starts]).astype(np.int64)
    # A crash inside a commit group may persist slot k+1 without slot k:
    # cut such runs at their first gap, scrub the leftovers behind it.
    torn = np.flatnonzero(nz[starts + array_deg] - nz[starts] != array_deg)
    if torn.size:
        garbage = []
        for st, en in zip(starts[torn].tolist(), ends[torn].tolist()):
            nzpos = st + np.flatnonzero(slots[st:en])
            garbage.append(nzpos[nzpos - st != np.arange(nzpos.size)])
        _zero_slots(ea, np.concatenate(garbage))
        np.cumsum(slots != 0, dtype=nz.dtype, out=nz[1:])  # live view: recount
        array_deg = (nz[ends] - nz[starts]).astype(np.int64)
    del nz  # one prefix alive at a time: live_degrees builds its own
    live = live_degrees(slots, starts, ends)
    return starts.astype(np.int64), array_deg, live


def _zero_slots(ea, garbage: np.ndarray) -> None:
    """Persistently scrub torn-group leftovers so the run is gap-terminated."""
    ea.write_slots(garbage, np.zeros(garbage.size, dtype=SLOT_DTYPE), payload=0)


def _replay_logs(
    host, image: np.ndarray, nv: int, degree: np.ndarray, live: np.ndarray, el: np.ndarray
) -> None:
    """Fold valid edge-log entries back into the vertex metadata (§3.1.5 step 3).

    ``image`` is the whole-region ``(entries, 3)`` log image streamed by
    ``EdgeLogs.rebuild_counts`` (row index = global entry index); the
    only log bytes written since are the zeros of ``recover_ulog``'s
    clears, which the live view shows.  Validity, the torn-chain cut and
    the fold all come from it — no device read here.
    """
    # Valid = all three biased fields nonzero: an in-flight append torn
    # by the crash (8-byte atomicity) persists a strict chunk subset and
    # always leaves a zero field, so it self-invalidates here.
    valid = (image[:, 0] != 0) & (image[:, 1] != 0) & (image[:, 2] != 0)
    gidx = np.flatnonzero(valid)
    if gidx.size == 0:
        return
    rows = image[gidx]
    # A crash inside a commit group may persist entry j without the one
    # its back-pointer names: accept entries only through an intact chain
    # (back targets have smaller indices) and invalidate the rest.
    back = rows[:, 2].astype(np.int64) - 2
    broken = []
    while True:
        ok = (back < 0) | valid[np.maximum(back, 0)]
        if ok.all():
            break
        valid[gidx[~ok]] = False  # rejected: re-judge what chained to them
        broken.append(gidx[~ok])
        gidx, rows, back = gidx[ok], rows[ok], back[ok]
    if broken:
        host.logs.invalidate_entries(np.concatenate(broken))
    s = rows[:, 0].astype(np.int64) - 1
    d = rows[:, 1]
    if s.size and (s.max() >= nv or s.min() < 0):
        raise RecoveryError("edge-log entry references unknown vertex")
    np.add.at(degree, s, 1)
    tomb = (d & TOMB_BIT) != 0
    np.add.at(live, s[~tomb], 1)
    np.subtract.at(live, s[tomb], 1)
    # chain head = the entry appended last; entries of one vertex all live
    # in one section per merge epoch, so the max global index is the head.
    np.maximum.at(el, s, gidx)


def _reissue_window(host, lo_slot: int, hi_slot: int) -> None:
    """Re-run the rebalance whose undo log was restored (paper Fig. 4 recovery)."""
    S = host.ea.segment_slots
    lo_seg = lo_slot // S
    hi_seg = (hi_slot + S - 1) // S
    width = 1
    level = 0
    n = host.ea.n_sections
    while True:
        aligned_lo = lo_seg // width * width
        if aligned_lo + width >= hi_seg and width <= n:
            break
        width *= 2
        level += 1
    width = min(width, n)
    aligned_lo = lo_seg // width * width
    host.rebalancer.rebalance_window(aligned_lo, min(aligned_lo + width, n), level)


__all__ = ["open_from_pool", "crash_recover", "dead_state", "GENERATION_REGIONS"]
