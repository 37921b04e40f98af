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
``walk_chain`` undo the biases, so readers see plain ids.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import GraphError, PMemError
from ..pmem.pool import PMemPool

ENTRY_BYTES = 12
_FIELDS = 3  # src, dst_enc, back


class EdgeLogs:
    """All per-section logs of one edge-array generation, in one region."""

    def __init__(
        self,
        pool: PMemPool,
        n_sections: int,
        entries_per_section: int,
        gen: int = 0,
        create: bool = True,
    ):
        self.pool = pool
        self.n_sections = n_sections
        self.entries_per_section = entries_per_section
        self.gen = gen
        name = f"elogs.g{gen}"
        total = n_sections * entries_per_section * _FIELDS
        if create:
            self.region = pool.alloc_array(name, np.int32, total)
            self.region.fill(0)
        else:
            self.region = pool.get_array(name)
        #: DRAM append cursors (next free entry slot per section).
        self.counts = np.zeros(n_sections, dtype=np.int64)
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

    def fill_fraction(self, section: int) -> float:
        return self.counts[section] / self.entries_per_section

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
        secs, cnts = np.unique(gidxs // self.entries_per_section, return_counts=True)
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

    def section_entries(self, section: int) -> np.ndarray:
        """(count, 3) view of a section's appended entries (some may be invalidated)."""
        base = self._base(section)
        n = int(self.counts[section])
        return self.region.view[base : base + n * _FIELDS].reshape(n, _FIELDS)

    def gather_entries(self, gidxs, bucket: str = None) -> np.ndarray:
        """Accounted random gather of whole entries: ``(n, 3)`` int32 rows.

        One independent ``ENTRY_BYTES``-sized random read per entry via
        the device's :meth:`~repro.pmem.device.PMemDevice.gather_span` —
        the bulk form of ``read_entry`` (fields keep their on-media
        biases; callers undo them).
        """
        idxs = np.asarray(gidxs, dtype=np.int64) * _FIELDS
        return self.region.gather(idxs, per_unit=_FIELDS, bucket=bucket)

    def walk_chain_arrays(self, head_gidx: int, limit: int = -1):
        """Ndarray fast path of :meth:`walk_chain`.

        Follows back-pointers from ``head_gidx`` into a preallocated
        buffer; returns newest-first ``(gidxs, srcs, dst_encs)`` int64
        column views (valid until the next walk).  Pointer chasing a
        single chain is inherently serial, but writing into a reused
        ndarray avoids the per-entry tuple and list traffic of the
        scalar walk — see :meth:`resolve_chains` for the many-chain
        vectorized form.
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

    def walk_chain(self, head_gidx: int, limit: int = -1) -> list:
        """Follow back-pointers from ``head_gidx``; newest-first list of
        ``(gidx, src, dst_enc)``; stops after ``limit`` entries if >= 0.

        Scalar wrapper over :meth:`walk_chain_arrays`, kept for the
        tuple-shaped test callers; hot paths use the array forms.
        """
        gidxs, srcs, dst_encs = self.walk_chain_arrays(head_gidx, limit)
        return list(zip(gidxs.tolist(), srcs.tolist(), dst_encs.tolist()))

    def resolve_chains(self, heads: np.ndarray, expect_src: np.ndarray = None):
        """Follow *all* back-pointer chains at once (frontier pointer chasing).

        ``heads`` holds one chain head per vertex (−1 for no chain).
        Returns ``(counts, gidxs, dst_encs)``: per-head chain lengths
        plus the concatenated entries grouped by head, newest-first
        within each group — exactly what :meth:`walk_chain` per head
        would produce, computed round-by-round over a shrinking frontier
        (one fancy-indexed read per chain depth instead of one Python
        iteration per entry).

        When ``expect_src`` is given (aligned with ``heads``), each
        chain's *oldest* entry must name that source vertex — the same
        chain-root integrity check the scalar gather performs.
        """
        heads = np.asarray(heads, dtype=np.int64)
        nv = int(heads.size)
        counts = np.zeros(nv, dtype=np.int64)
        kidx = np.flatnonzero(heads >= 0)
        if kidx.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return counts, empty, empty
        view = self.region.view
        g = heads[kidx]
        rounds_k, rounds_g, rounds_d = [], [], []
        while g.size:
            p = g * _FIELDS
            src = view[p].astype(np.int64) - 1
            dst = view[p + 1].astype(np.int64)
            back = view[p + 2].astype(np.int64) - 2
            invalid = dst == 0
            if invalid.any():
                bad = int(g[int(invalid.argmax())])
                raise PMemError(f"edge-log chain reached invalidated entry {bad}")
            rounds_k.append(kidx)
            rounds_g.append(g)
            rounds_d.append(dst)
            counts[kidx] += 1
            ended = back < 0
            if expect_src is not None and ended.any():
                mism = src[ended] != np.asarray(expect_src)[kidx[ended]]
                if mism.any():
                    v = int(np.min(np.asarray(expect_src)[kidx[ended]][mism]))
                    raise GraphError(f"edge-log chain of vertex {v} is corrupt")
            keep = ~ended
            kidx = kidx[keep]
            g = back[keep]
        k_cat = np.concatenate(rounds_k)
        g_cat = np.concatenate(rounds_g)
        d_cat = np.concatenate(rounds_d)
        # An entry surfaced in round r is the r-th newest of its chain:
        # scatter each round to slot ``start_of_chain + r``.
        sizes = np.fromiter((a.size for a in rounds_k), dtype=np.int64, count=len(rounds_k))
        r_cat = np.repeat(np.arange(len(rounds_k), dtype=np.int64), sizes)
        start = np.cumsum(counts) - counts
        pos = start[k_cat] + r_cat
        gidxs = np.empty(k_cat.size, dtype=np.int64)
        dst_encs = np.empty(k_cat.size, dtype=np.int64)
        gidxs[pos] = g_cat
        dst_encs[pos] = d_cat
        return counts, gidxs, dst_encs

    # -- recovery -----------------------------------------------------------------
    def rebuild_counts(self, scalar: bool = False) -> None:
        """Recompute append cursors from persistent bytes (crash recovery).

        The cursor is one past the last *non-empty* entry — one with any
        nonzero field: merges invalidate interior entries (zeroing only
        ``dst_enc``) but never the append frontier, and a torn in-flight
        append may persist any field subset.  Either way the slot is
        spent; new appends go past it and fully overwrite nothing live.
        Only entries with all three fields nonzero are *valid* (counted
        live and replayed) — a torn partial entry can never be.

        One accounted sequential pass over the whole log region, via the
        device's bulk read layer; ``scalar=True`` runs the retained
        per-entry reference instead (same results, same accounting).
        """
        if scalar:
            self._rebuild_counts_scalar()
            return
        raw = self.pool.device.load_batch(self.region.offset, self.region.nbytes, bucket="recovery")
        view = raw.view(np.int32).reshape(self.n_sections, self.entries_per_section, _FIELDS)
        nonempty = (view != 0).any(axis=2)
        valid = (view != 0).all(axis=2)
        # highest non-empty index + 1 per section (0 when empty)
        rev = nonempty[:, ::-1]
        first = rev.argmax(axis=1)
        any_used = nonempty.any(axis=1)
        self.counts = np.where(any_used, self.entries_per_section - first, 0).astype(np.int64)
        self.live_counts = valid.sum(axis=1).astype(np.int64)

    def _rebuild_counts_scalar(self) -> None:
        """Per-entry reference implementation of :meth:`rebuild_counts`."""
        view = self.region.view
        counts = np.zeros(self.n_sections, dtype=np.int64)
        live = np.zeros(self.n_sections, dtype=np.int64)
        for s in range(self.n_sections):
            base = self._base(s)
            for slot in range(self.entries_per_section):
                p = base + slot * _FIELDS
                f0, f1, f2 = int(view[p]), int(view[p + 1]), int(view[p + 2])
                if f0 or f1 or f2:
                    counts[s] = slot + 1
                if f0 and f1 and f2:
                    live[s] += 1
        self.counts = counts
        self.live_counts = live
        self.pool.device.account_seq_read(self.region.nbytes, bucket="recovery")


__all__ = ["EdgeLogs", "ENTRY_BYTES"]
