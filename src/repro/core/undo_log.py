"""Per-thread undo logs for crash-consistent PMA rebalancing (paper §3 ④).

Each writer thread owns one fixed-size (``ULOG_SZ``, default 2 KB)
persistent log.  Before a window of at most ``ULOG_SZ`` bytes is
overwritten in place, its old bytes are backed up here, so a crash at
any point leaves either the old or the fully-backed-up contents
recoverable — without PMDK transactions' journal allocations and
ordering overhead (§2.4.2).  Larger windows never overwrite in place:
they commit a COPYBACK redirect (or switch generations) instead.

Persistent header (ten 8-byte words, each updated failure-atomically;
the backup record fills the first cache line, the done window sits on
the second):

====== ============ ====================================================
word   name         meaning
====== ============ ====================================================
0      valid        1 = ``payload`` holds a committed backup of
                    ``[dst_off, dst_off + length)``; 0 = no backup
1      dst_off      device byte offset the backup corresponds to
2      length       backup length in bytes
3      state        0 idle / 1 rebalance active / 2 moves done, log
                    clears pending / 3 copy-back redirect committed
4      —            unused (zero)
5,6    win_lo/hi    rebalance window, in edge-array slot units
7      —            unused (zero)
8,9    done_lo/hi   window recorded for the idempotent post-move
                    edge-log clears
====== ============ ====================================================

Backup protocol (``snapshot_window``), two ordering points:

1. payload ``<-`` old bytes; ``dst_off, length, win_lo, win_hi <- ...``
   (one fence)
2. ``state <- ACTIVE; valid <- 1`` (one fence) — the commit point; the
   two stores share a cache line, and either partial outcome describes
   a window not yet touched.

Recovery dispatches on ``state`` and ``valid`` alone
(``Rebalancer.recover_ulog``, :meth:`UndoLog.restore_if_valid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pmem.pool import PMemPool

STATE_IDLE = 0
STATE_ACTIVE = 1
STATE_DONE = 2
#: Large-window copy-on-write: the final layout sits complete in a
#: persistent region; recovery rolls forward (idempotent redo) — re-copies
#: it from the scratch, or flips the root to it when the region is the
#: next generation's (``Rebalancer._land``).
STATE_COPYBACK = 3

_F_VALID = 0
_F_DST = 1
_F_LEN = 2
_F_STATE = 3
_F_WIN_LO = 5
_F_WIN_HI = 6
_F_DONE_LO = 8
_F_DONE_HI = 9
_N_FIELDS = 10
#: The words :class:`UndoHeader` decodes, in its field order.
_HEADER = (_F_VALID, _F_DST, _F_LEN, _F_STATE, _F_WIN_LO, _F_WIN_HI, _F_DONE_LO, _F_DONE_HI)


@dataclass
class UndoHeader:
    """Decoded view of a persistent undo-log header."""

    valid: int
    dst_off: int
    length: int
    state: int
    win_lo: int
    win_hi: int
    done_lo: int
    done_hi: int


class UndoLog:
    """One thread's undo log: persistent header + ``capacity`` payload bytes."""

    def __init__(self, pool: PMemPool, thread_id: int, capacity: int, create: bool = True):
        self.pool = pool
        self.thread_id = thread_id
        self.capacity = capacity
        hdr_name = f"ulog.hdr.t{thread_id}"
        pay_name = f"ulog.pay.t{thread_id}"
        if create:
            self.hdr = pool.alloc_array(hdr_name, np.int64, _N_FIELDS, initial=0)
            self.payload = pool.alloc_array(pay_name, np.uint8, capacity, initial=0)
        else:
            self.hdr = pool.get_array(hdr_name)
            self.payload = pool.get_array(pay_name)

    # -- header primitives -------------------------------------------------
    def _set(self, field: int, value: int) -> None:
        self.hdr.write(field, value, payload=0, persist=True)

    def _set2(self, f1: int, v1: int, f2: int, v2: int) -> None:
        # Two adjacent independent words under one flush+fence (they are
        # not a commit point together — the atomic commit is always the
        # single trailing ``_set``; this is where DGAP's undo log saves
        # ordering cost over PMDK transactions).
        self.hdr.write(f1, v1, payload=0)
        self.hdr.write(f2, v2, payload=0)
        self.hdr.clwb(min(f1, f2), abs(f2 - f1) + 1)
        self.hdr.device.sfence()

    def read_header(self) -> UndoHeader:
        h = self.hdr.view
        return UndoHeader(*(int(h[f]) for f in _HEADER))

    # -- rebalance lifecycle --------------------------------------------------
    def snapshot_window(self, win_lo: int, win_hi: int, dev_off: int, nbytes: int) -> None:
        """Back up ``[dev_off, dev_off+nbytes)`` before the window
        ``[win_lo, win_hi)`` is overwritten in place (see the protocol above).

        One fence covers the payload copy and every intent field, and a
        second covers the state+valid commit — this ordering economy
        over PMDK transactions is where the paper's per-thread undo log
        wins.  Safe because the two commit stores share a cache line
        and either partial outcome (ACTIVE+valid=0, or IDLE+valid=1)
        describes an untouched window.
        """
        assert nbytes <= self.capacity, "window exceeds ULOG_SZ"
        dev = self.payload.device
        data = dev.buf[dev_off : dev_off + nbytes].copy()
        dev.store(self.payload.offset, data, payload=0)
        dev.clwb(self.payload.offset, nbytes)
        for f, v in (
            (_F_DST, dev_off),
            (_F_LEN, nbytes),
            (_F_WIN_LO, win_lo),
            (_F_WIN_HI, win_hi),
        ):
            self.hdr.write(f, v, payload=0)
        self.hdr.clwb(_F_DST, _F_WIN_HI - _F_DST + 1)  # the intent: first cache line only
        dev.sfence()  # fence 1: payload + intent durable
        self.hdr.write(_F_STATE, STATE_ACTIVE, payload=0)
        self.hdr.write(_F_VALID, 1, payload=0)
        self.hdr.clwb(_F_VALID, _F_STATE - _F_VALID + 1)
        dev.sfence()  # fence 2: commit

    def begin_copyback(self, win_lo: int, win_hi: int, scratch_off: int, nbytes: int) -> None:
        """Commit a copy-on-write redirect: the final window image is
        complete and persistent at device offset ``scratch_off`` (in
        the scratch, or the next generation's region).  The state store
        is the commit point; from here on recovery *redoes* instead of
        undoing."""
        self._set2(_F_WIN_LO, win_lo, _F_WIN_HI, win_hi)
        self._set2(_F_DST, scratch_off, _F_LEN, nbytes)
        self._set(_F_VALID, 0)
        self._set(_F_STATE, STATE_COPYBACK)

    def mark_done(self, done_lo: int, done_hi: int) -> None:
        """All moves persisted; record the window for idempotent log clears.

        Ordering matters: state=DONE must become durable *before* any
        log is cleared, and recovery checks state before the backup
        validity — so a fully-merged window is never restored+re-merged
        (which would duplicate edges).  The stale ``valid`` flag is
        harmless: the next ``snapshot_window`` makes its own backup
        durable before it sets ``state`` again.
        """
        self._set2(_F_DONE_LO, done_lo, _F_DONE_HI, done_hi)
        self._set(_F_STATE, STATE_DONE)

    def finish(self) -> None:
        self._set(_F_STATE, STATE_IDLE)

    # -- recovery ---------------------------------------------------------------
    def restore_if_valid(self) -> bool:
        """If a committed backup exists, write it back (post-crash)."""
        h = self.read_header()
        if h.valid == 0 or h.length == 0:
            return False
        dev = self.payload.device
        data = dev.buf[self.payload.offset : self.payload.offset + h.length].copy()
        dev.store(h.dst_off, data, payload=0)
        dev.persist(h.dst_off, h.length)
        self._set(_F_VALID, 0)
        return True


__all__ = [
    "UndoLog",
    "UndoHeader",
    "STATE_IDLE",
    "STATE_ACTIVE",
    "STATE_DONE",
    "STATE_COPYBACK",
]
