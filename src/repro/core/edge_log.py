"""Per-section edge logs (paper §3 ③).

One pre-allocated, fixed-size (``ELOG_SZ``, default 2 KB) persistent log
per PMA leaf section.  When an edge insertion would require a *nearby
shift* in the edge array (its slot is occupied), the edge is appended
here instead — a single small sequential persistent write — and merged
back into the array in batch during the next rebalance, eliminating the
write amplification of Fig. 1(a).

Entry layout (12 bytes, matching the paper): ``(src, dst_enc, back)``
as three int32s.  Every field of a *written* entry is biased to be
nonzero, so a valid entry is exactly one whose three fields are all
nonzero — and any 8-byte-aligned subset of a torn entry (the
failure-atomic unit is 8 B; a 12 B entry spans two chunks, and its
fields alternate chunk pairing with entry parity) leaves at least one
field zero in the freshly-zeroed log slot, making torn entries
self-invalidating without a checksum:

* field 0 — source vertex id **plus one** (so vertex 0 is
  distinguishable from an unwritten slot);
* field 1 — the destination encoded as in the edge array
  (``dst+1``, optionally ``| TOMB_BIT``, always nonzero); merges zero
  this field to invalidate an entry in place;
* field 2 — global index of the *previous* entry of the same source
  vertex **plus two** (1 = no predecessor), forming the newest-first
  back-pointer chain whose head lives in the DRAM vertex array
  (``el_v``).

Recovery finds the append frontier as one past the last entry with any
nonzero field — no persistent per-log counter (counters would be
in-place PM updates, exactly what DGAP avoids).  ``read_entry`` /
``walk_chain_arrays`` undo the biases, so readers see plain ids.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import PMemError
from ..nputil import distinct_counts
from ..pmem.pool import PMemPool

ENTRY_BYTES = 12
_FIELDS = 3  # src, dst_enc, back

#: A section's log is merged back into the array once this many tenths
#: of its entries are spent (paper §3 ③: at 90 %).
MERGE_TENTHS = 9


def merge_point(entries: int) -> int:
    """The cursor at which a log of ``entries`` (>= 1) slots is due for
    its merge: the smallest count that spends ``MERGE_TENTHS`` tenths."""
    return -(-MERGE_TENTHS * entries // 10)


class EdgeLogs:
    """All per-section logs of one array geometry, in one region.

    The region belongs to — and is named after — a geometry
    (``n_sections``), not a generation: a same-capacity generation
    switch keeps it, growth allocates the next.
    """

    def __init__(
        self,
        pool: PMemPool,
        n_sections: int,
        entries_per_section: int,
        create: bool = True,
    ):
        self.pool = pool
        self.n_sections = n_sections
        self.entries_per_section = entries_per_section
        name = f"elogs.g{n_sections}"
        total = n_sections * entries_per_section * _FIELDS
        if create:
            self.region = pool.alloc_array(name, np.int32, total)
            self.region.fill(0)
        else:
            self.region = pool.get_array(name)
        #: DRAM append cursors (next free entry slot per section).
        self.counts = np.zeros(n_sections, dtype=np.int64)
        #: the cursor at which a section's log is due for its merge
        self.merge_at = merge_point(entries_per_section)
        #: DRAM live (valid, unmerged) entry counts — these contribute to
        #: section density alongside array elements (paper §3 ③).
        self.live_counts = np.zeros(n_sections, dtype=np.int64)
        #: peak fill per section ever observed (Fig. 9's utilization metric).
        self.peak_counts = np.zeros(n_sections, dtype=np.int64)
        #: preallocated (cap, 3) output for :meth:`walk_chain_arrays`,
        #: grown by doubling; a returned view is valid until the next walk.
        self._chain_buf = np.empty((32, _FIELDS), dtype=np.int64)

    # -- geometry -----------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.entries_per_section

    def _base(self, section: int) -> int:
        return section * self.entries_per_section * _FIELDS

    def gidx(self, section: int, slot: int) -> int:
        return section * self.entries_per_section + slot

    def locate(self, gidx: int) -> Tuple[int, int]:
        return divmod(gidx, self.entries_per_section)

    # -- mutation -------------------------------------------------------------
    def append(self, section: int, src: int, dst_enc: int, back_gidx: int) -> int:
        """Persistently append one entry; returns its global index.

        ``back_gidx`` is the previous entry of ``src`` (−1 for none).
        """
        slot = int(self.counts[section])
        if slot >= self.entries_per_section:
            raise PMemError(f"edge log of section {section} is full")
        entry = np.array([src + 1, dst_enc, back_gidx + 2], dtype=np.int32)
        pos = self._base(section) + slot * _FIELDS
        # One small persistent write — sequential within the section's log.
        self.region.write_slice(pos, entry, payload=4, persist=True)
        self.counts[section] = slot + 1
        self.live_counts[section] += 1
        if slot + 1 > self.peak_counts[section]:
            self.peak_counts[section] = slot + 1
        return self.gidx(section, slot)

    def append_scatter(
        self,
        gidxs: np.ndarray,
        srcs: np.ndarray,
        dst_encs: np.ndarray,
        back_gidxs: np.ndarray,
    ) -> np.ndarray:
        """Persist entries at caller-assigned global indices as one
        commit group (all stores, one flush per distinct line, one fence).

        The caller guarantees each section's indices extend its cursor
        contiguously (slots ``counts[s] .. counts[s]+k_s-1``); entries
        from different sections may interleave.  A crash inside the
        group may persist any subset of the entries — recovery accepts
        an entry only if its back-pointer chain is intact
        (``recovery._replay_logs``).  Returns ``gidxs``.
        """
        gidxs = np.asarray(gidxs, dtype=np.int64)
        k = int(gidxs.size)
        if k == 0:
            return gidxs
        secs, cnts = distinct_counts(gidxs // self.entries_per_section)
        new_counts = self.counts[secs] + cnts
        if (new_counts > self.entries_per_section).any():
            raise PMemError("edge-log scatter append overflows a section")
        entries = np.empty((k, _FIELDS), dtype=np.int32)
        entries[:, 0] = np.asarray(srcs, dtype=np.int64) + 1
        entries[:, 1] = dst_encs
        entries[:, 2] = np.asarray(back_gidxs, dtype=np.int64) + 2
        self.region.write_batch(gidxs * _FIELDS, entries, payload_per_unit=4)
        self.counts[secs] = new_counts
        self.live_counts[secs] += cnts
        self.peak_counts[secs] = np.maximum(self.peak_counts[secs], new_counts)
        return gidxs

    def clear_section(self, section: int) -> None:
        """Reset a section's log after its entries were merged (streaming store)."""
        pos = self._base(section)
        n = self.entries_per_section * _FIELDS
        self.region.nt_write_slice(pos, np.zeros(n, dtype=np.int32))
        self.region.device.sfence()
        self.counts[section] = 0
        self.live_counts[section] = 0

    def invalidate_entries(self, gidxs) -> None:
        """Zero the ``dst_enc`` field of specific entries, as one commit group.

        Invalidation keeps sibling vertices' entries intact while making
        the merged (or, in recovery, chain-broken) entries invisible to
        readers and recovery.
        """
        gidxs = np.asarray(gidxs, dtype=np.int64)
        if gidxs.size == 0:
            return
        self.region.write_batch(
            gidxs * _FIELDS + 1, np.zeros(gidxs.size, dtype=np.int32), payload_per_unit=0
        )
        np.subtract.at(self.live_counts, gidxs // self.entries_per_section, 1)

    # -- reads -------------------------------------------------------------------
    def read_entry(self, gidx: int) -> Tuple[int, int, int]:
        """Return ``(src, dst_enc, back_gidx)`` (back −1 when none)."""
        section, slot = self.locate(gidx)
        pos = self._base(section) + slot * _FIELDS
        e = self.region.view[pos : pos + _FIELDS]
        return int(e[0]) - 1, int(e[1]), int(e[2]) - 2

    def _runs(self, s_lo: int, s_hi: int):
        """``(first_gidx, n_entries)`` of each load :meth:`stream` issues:
        one per run of adjacent non-empty sections in ``[s_lo, s_hi)``,
        from the run's first entry to its last section's cursor."""
        eps, cursors = self.entries_per_section, self.counts
        secs = s_lo + np.flatnonzero(cursors[s_lo:s_hi])
        for run in np.split(secs, np.flatnonzero(np.diff(secs) != 1) + 1):
            if run.size:
                a, b = int(run[0]), int(run[-1])
                yield a * eps, (b - a) * eps + int(cursors[b])

    def stream(self, s_lo: int, s_hi: int):
        """Accounted sequential read of the appended log prefixes of
        sections ``[s_lo, s_hi)`` — how merges and recovery consume logs.

        Each section's log is small and contiguous so that it reads as a
        short sequential PM range (paper §3.1.4–5): one ``load_batch``
        per run of adjacent non-empty sections, every byte charged and
        poison / read-fault checked once.  Returns ``(gidx, rows)``:
        ascending global indices and the matching ``(n, 3)`` int32
        entries in their on-media biases.  Ascending index *is* append
        order and a vertex's pending entries all sit in its pivot
        section's log, so a stable group-by on ``rows[:, 0]`` yields
        every back-pointer chain oldest-first without chasing a pointer.
        A single fully-kept run is returned as a live view of the device
        buffer.
        """
        dev = self.pool.device
        eps, cursors = self.entries_per_section, self.counts
        gs, rs = [], []
        for g0, n in self._runs(s_lo, s_hi):
            raw = dev.load_batch(
                self.region.offset + g0 * ENTRY_BYTES, n * ENTRY_BYTES
            )
            gidx = np.arange(g0, g0 + n, dtype=np.int64)
            rows = raw.view(np.int32).reshape(n, _FIELDS)
            if n > eps and (cursors[g0 // eps : (g0 + n) // eps] < eps).any():
                # the run spans unappended tails of sections before its last
                keep = gidx % eps < cursors[gidx // eps]
                gidx, rows = gidx[keep], rows[keep]
            gs.append(gidx)
            rs.append(rows)
        if not gs:
            return np.empty(0, dtype=np.int64), np.empty((0, _FIELDS), dtype=np.int32)
        return (gs[0], rs[0]) if len(gs) == 1 else (np.concatenate(gs), np.concatenate(rs))

    def walk_chain_arrays(self, head_gidx: int, limit: int = -1):
        """Follow back-pointers from ``head_gidx``; stops after ``limit``
        entries if >= 0.

        Returns newest-first ``(gidxs, srcs, dst_encs)`` int64 column
        views into a preallocated buffer (valid until the next walk).
        Unaccounted single-chain reader for snapshots and invariant
        checks; merges and recovery consume whole section logs
        through :meth:`stream` instead.
        """
        buf = self._chain_buf
        view = self.region.view
        n = 0
        g = int(head_gidx)
        while g >= 0 and (limit < 0 or n < limit):
            if n >= buf.shape[0]:
                buf = np.concatenate([buf, np.empty_like(buf)])
                self._chain_buf = buf
            p = g * _FIELDS  # == _base(section) + slot * _FIELDS
            dst_enc = int(view[p + 1])
            if dst_enc == 0:
                raise PMemError(f"edge-log chain reached invalidated entry {g}")
            buf[n, 0] = g
            buf[n, 1] = int(view[p]) - 1
            buf[n, 2] = dst_enc
            n += 1
            g = int(view[p + 2]) - 2
        done = buf[:n]
        return done[:, 0], done[:, 1], done[:, 2]

    # -- recovery -----------------------------------------------------------------
    def rebuild_counts(self):
        """Recompute append cursors from persistent bytes (crash recovery).

        The cursor is one past the last *non-empty* entry — one with any
        nonzero field: merges invalidate interior entries (zeroing only
        ``dst_enc``) but never the append frontier, and a torn in-flight
        append may persist any field subset.  Either way the slot is
        spent; new appends go past it and fully overwrite nothing live.
        Only entries with all three fields nonzero are *valid* (counted
        live and replayed) — a torn partial entry can never be.

        One :meth:`stream` over the whole log region (every slot counts
        as spent until the cursors are known).  Returns the streamed
        ``(gidx, rows)`` image — a live view, so zeros written
        to the logs afterwards show through — for recovery's undo-log
        clears and log replay, which therefore read no log byte again.
        """
        eps = self.entries_per_section
        self.counts = np.full(self.n_sections, eps, dtype=np.int64)
        gidx, rows = self.stream(0, self.n_sections)
        self.counts, self.live_counts = _cursors(rows.reshape(self.n_sections, eps, _FIELDS))
        return gidx, rows

    def rescan(self, sections) -> None:
        """Re-derive the DRAM cursors of ``sections`` from their bytes —
        :meth:`rebuild_counts`'s rule, for the runtime repair that just
        zeroed damaged entries there (unaccounted, like the rest of the
        repair's bookkeeping reads)."""
        sections = np.asarray(sections, dtype=np.int64)
        rows = self.region.view.reshape(self.n_sections, self.entries_per_section, _FIELDS)
        self.counts[sections], self.live_counts[sections] = _cursors(rows[sections])

    def entries_at(self, off: int, nbytes: int) -> np.ndarray:
        """Global indices of the entries device bytes ``[off, off + nbytes)`` touch."""
        b = off - self.region.offset
        return np.arange(b // ENTRY_BYTES, -(-(b + nbytes) // ENTRY_BYTES), dtype=np.int64)


def _cursors(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The cursor rule over whole-section entry rows ``(k, eps, 3)``:
    per section, one past the last *non-empty* entry (0 when empty) and
    the count of *valid* — all fields nonzero — entries."""
    f0, f1, f2 = (rows[..., k] != 0 for k in range(_FIELDS))
    nonempty = f0 | f1 | f2
    first = nonempty[:, ::-1].argmax(axis=1)  # distance of the last non-empty from the end
    counts = np.where(nonempty.any(axis=1), rows.shape[1] - first, 0).astype(np.int64)
    return counts, (f0 & f1 & f2).sum(axis=1).astype(np.int64)


__all__ = ["EdgeLogs", "ENTRY_BYTES", "MERGE_TENTHS", "merge_point"]
