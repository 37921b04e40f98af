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
  (:func:`~repro.core.encoding.encode_edge`, always nonzero); merges
  zero this field to invalidate an entry in place;
* field 2 — global index of the *previous* entry of the same source
  vertex **plus two** (1 = no predecessor), forming the newest-first
  back-pointer chain whose head lives in the DRAM vertex array
  (``el_v``).

Recovery finds the append frontier as one past the last entry with any
nonzero field — no persistent per-log counter (counters would be
in-place PM updates, exactly what DGAP avoids).  This module alone
knows the layout: :func:`pack_entries` applies the biases,
:func:`unpack_entries` undoes them and :func:`valid_entries` is the
validity rule; the streamed rows keep the biases, and
:func:`group_chains` turns them into every vertex's chain.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import GraphError, PMemError
from ..nputil import distinct_counts, multi_arange
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
            self.region = pool.alloc_array(name, np.int32, total, initial=0)
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
        pos = self._base(section) + slot * _FIELDS
        # One small persistent write — sequential within the section's log.
        self.region.write_slice(pos, pack_entries(src, dst_enc, back_gidx)[0],
                                payload=4, persist=True)
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
        self.region.write_batch(gidxs * _FIELDS, pack_entries(srcs, dst_encs, back_gidxs),
                                payload_per_unit=4)
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
        src, dst_enc, back = unpack_entries(self.region.view[pos : pos + _FIELDS])
        return int(src), int(dst_enc), int(back)

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
        entries in their on-media biases, which :func:`group_chains`
        turns into every back-pointer chain.  A single fully-kept run is
        returned as a live view of the device buffer.
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

    def peek(self, sections) -> Tuple[np.ndarray, np.ndarray]:
        """The appended prefixes of ``sections`` (ascending, distinct) as
        :meth:`stream` returns them, but read unaccounted: a snapshot's
        and the invariant check's read of the logs, as they read the
        array's slots (a copy, never a view)."""
        secs = np.asarray(sections, dtype=np.int64)
        gidx = multi_arange(secs * self.entries_per_section, self.counts[secs])
        return gidx, self.region.view.reshape(-1, _FIELDS)[gidx]

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


def group_chains(gidx: np.ndarray, rows: np.ndarray, vids: np.ndarray, va, lossy: bool = False):
    """Every back-pointer chain of ``vids`` (ascending ids) among log rows
    ``(gidx, rows)`` — ascending global indices and their entries in the
    on-media biases, as :meth:`EdgeLogs.stream` returns them.

    A vertex's pending entries all sit in its pivot section's log in
    append order, so a stable group-by on source over those rows *is*
    every chain, oldest first, with no pointer chased.  Returns ``(mine,
    counts, short)``: ``rows[mine]`` are the valid entries of ``vids``,
    grouped in ``vids`` order and oldest first within a group, and
    ``counts[i]`` is the length of ``vids[i]``'s group.

    The chains must match the DRAM vertex array ``va``: ``degree -
    array_degree`` valid entries per vertex, the newest being ``el``.
    A chain that came up short raises ``PMemError`` (one of its entries
    was invalidated) — unless ``lossy``: the scrubber zeroed the entries
    a media error destroyed, and ``short`` is each vertex's shortfall
    (None otherwise).  A longer chain or a wrong head is corrupt either
    way (``GraphError``).
    """
    n = vids.size
    src = unpack_entries(rows)[0]
    base = int(vids[0]) if n else 0
    if n == 0 or int(vids[-1]) - base + 1 == n:  # an id range: no search
        pos = src - base
        ours = (pos >= 0) & (pos < n)
    else:
        pos = np.searchsorted(vids, src)
        ours = vids[np.minimum(pos, n - 1)] == src
    mine = np.flatnonzero(ours & valid_entries(rows))
    mine = mine[np.argsort(pos[mine], kind="stable")]
    counts = np.bincount(pos[mine], minlength=n)
    short = va.degree[vids] - va.array_degree[vids] - counts
    if not lossy and (short > 0).any():
        v = int(vids[(short > 0).argmax()])
        raise PMemError(f"edge-log chain of vertex {v} reached an invalidated entry")
    heads = np.full(n, -1, dtype=np.int64)
    heads[counts > 0] = gidx[mine[(np.cumsum(counts) - 1)[counts > 0]]]
    bad = (short < 0) | ((short == 0) & (heads != va.el[vids]))
    if bad.any():
        raise GraphError(f"edge-log chain of vertex {int(vids[bad.argmax()])} is corrupt")
    return mine, counts, (short if lossy else None)


def pack_entries(srcs, dst_encs, back_gidxs) -> np.ndarray:
    """Entries ``(k, 3)`` int32 in their on-media biases, from sources,
    encoded destinations and previous-entry indices (−1 for none) —
    arrays, or scalars for one entry."""
    srcs = np.asarray(srcs, dtype=np.int64)
    entries = np.empty((srcs.size, _FIELDS), dtype=np.int32)
    entries[:, 0] = srcs + 1
    entries[:, 1] = dst_encs
    entries[:, 2] = np.asarray(back_gidxs, dtype=np.int64) + 2
    return entries


def unpack_entries(rows: np.ndarray):
    """``(src, dst_enc, back_gidx)`` of entry rows ``(..., 3)`` in their
    on-media biases: ``src`` and ``back_gidx`` (−1 for none) as int64 with
    the biases undone, ``dst_enc`` as stored (0 once invalidated)."""
    return rows[..., 0].astype(np.int64) - 1, rows[..., 1], rows[..., 2].astype(np.int64) - 2


def valid_entries(rows: np.ndarray) -> np.ndarray:
    """Mask of the *valid* entries among rows ``(..., 3)``: all three
    biased fields nonzero.  An unwritten slot, an in-flight append torn
    at 8-byte granularity and an invalidated entry each leave one zero."""
    return (rows[..., 0] != 0) & (rows[..., 1] != 0) & (rows[..., 2] != 0)


def _cursors(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The cursor rule over whole-section entry rows ``(k, eps, 3)``:
    per section, one past the last *non-empty* entry (0 when empty) and
    the count of :func:`valid_entries`."""
    nonempty = (rows[..., 0] | rows[..., 1] | rows[..., 2]) != 0
    first = nonempty[:, ::-1].argmax(axis=1)  # distance of the last non-empty from the end
    counts = np.where(nonempty.any(axis=1), rows.shape[1] - first, 0).astype(np.int64)
    return counts, valid_entries(rows).sum(axis=1).astype(np.int64)


__all__ = ["EdgeLogs", "ENTRY_BYTES", "MERGE_TENTHS", "group_chains", "merge_point",
           "pack_entries", "unpack_entries", "valid_entries"]
