"""Crash-consistent PMA rebalancing and resizing (paper §3.1.4, Fig. 4).

A rebalance (a) picks the smallest PMA window back within its density
bound, (b) *gathers* every vertex run in the window — merging each
vertex's pending edge-log chain into its run, in insertion order —
(c) lays the runs back out with gaps redistributed proportionally to
run size (the VCSR-style workload weighting), and (d) writes the new
layout over the window under crash protection:

* **small windows** (≤ ULOG_SZ bytes — the common case and the paper's
  Fig. 4 scenario): the paper's exact protocol — back the whole window
  up in the per-thread undo log, then overwrite.  A crash restores the
  backup and re-issues the rebalance.
* **large windows** below the root: the final image is first streamed
  to a persistent scratch area, a redirect record is committed in the
  undo-log header (state = COPYBACK), then copied over the window in
  ULOG_SZ chunks.  A crash *redoes* the idempotent copy from scratch.
  This deviates from the paper's description (DESIGN.md §9) while
  preserving its cost profile (bulk sequential writes, no PMDK journal
  allocations, O(1) ordering points) and making every crash point
  provably recoverable, which the crash-sweep tests verify exhaustively.
* **the whole array** — growth, or the root window at unchanged
  capacity (a compaction sweep, a root-level rebalance): nothing moves
  in place.  :meth:`Rebalancer._switch` streams the image once into a
  fresh generation's region and flips the root pointer to it
  (:meth:`Rebalancer._stream_generation` has the protocol).

Edge-log clearing after a merge follows the DONE protocol in
``undo_log.py``: the window is recorded and state=DONE committed before
any log is cleared, so clears are idempotent across crashes and a
half-cleared state can always be completed — entries are never both in
the array and replayable from a log.

The ``No EL&UL`` ablation (Table 5) replaces all of this, the root
window included, with one PMDK transaction around the window.

Every rewrite of edge-array slots is one pipeline, ``_extend`` →
``_gather`` → (optional filter) → ``_plan`` → :meth:`Rebalancer._commit`,
and ``_commit`` is the only place the protocol's tail — overwrite → mark
done → clear the merged logs → finish → move the DRAM vertex array — is
spelled.  A window rebalance and a log merge run it as is; compaction is
the whole-array window with the matched-tombstone filter between gather
and plan, the scrubber's lossy repair a leaf window with the lost-slot
filter (the two masks sit side by side below); the "No EL" long shift
hands ``_commit`` its shifted image; crash recovery re-enters ``_commit``
at the state the undo log recorded.  The generation switch shares the
gather, the filter of the window it takes over, the plan and the DRAM
apply, commits by its root-pointer flip, and at unchanged capacity hands
``_commit`` the tail from ``mark_done`` on.
"""

from __future__ import annotations

import threading
import weakref
from typing import List, Optional, Tuple

import numpy as np

from ..errors import GraphError, OutOfPMemError
from ..nputil import ScratchBuffer, multi_arange
from ..obs.tracer import annotate, traced
from .edge_array import EdgeArray
from .edge_log import EdgeLogs, group_chains, unpack_entries
from .encoding import (
    SLOT_DTYPE,
    edge_dsts,
    encode_pivot,
    is_pivot,
    is_tombstone,
    live_degrees,
    pivot_vertices,
    tombstone_matches,
)
from .pma_tree import TAU_ROOT
from .undo_log import (
    STATE_ACTIVE,
    STATE_COPYBACK,
    STATE_DONE,
    STATE_IDLE,
    UndoHeader,
    UndoLog,
)

#: Modeled cost of DGAP's element-by-element data movement during
#: rebalancing (paper §3.1.4: after backing a chunk up, DGAP "initiates
#: the process of moving and overwriting data element by element").
#: Charged per slot moved, on top of the bulk store/flush costs — it is
#: what makes small edge logs (frequent merges) expensive in Fig. 9.
ELEMENT_MOVE_NS = 22.0

#: The store's one persistent scratch region (COPYBACK images of
#: sub-root windows); dead between windows, regrown when one outgrows it.
SCRATCH = "rebal.scratch"

#: Pool root slots used by the edge-array generation protocol (slot 3
#: is unused and stays zero).
ROOT_SHUTDOWN = 0
ROOT_GEN = 1
ROOT_SEGSLOTS = 2
ROOT_EPS = 4
ROOT_NTHREADS = 5
ROOT_NV_HINT = 6


class GatherResult:
    """Everything known about a window's contents after gathering.

    The per-vertex runs live concatenated in one ``values`` array
    (``sizes``/``run_off`` index it); ``runs`` materializes the
    per-vertex list of views lazily for the callers and tests that want
    the per-run shape.
    """

    __slots__ = ("lo", "hi", "i0", "j", "values", "sizes", "run_off",
                 "chain_gidxs", "total", "log_rows", "short", "_runs")

    def __init__(self, lo, hi, i0, j, values, sizes, chain_gidxs, log_rows=None, short=None):
        self.lo = lo
        self.hi = hi
        self.i0 = i0
        self.j = j
        self.values: np.ndarray = values  # all runs, concatenated (no pivots)
        self.sizes: np.ndarray = sizes  # per-vertex run length
        self.run_off: np.ndarray = np.cumsum(sizes) - sizes
        self.chain_gidxs: np.ndarray = chain_gidxs  # merged log entries, by vertex
        self.total = sizes.size + values.size  # elements incl. pivots
        self.log_rows = log_rows  # the gather's ``EdgeLogs.stream``; feeds the log cleanup
        #: lossy gathers only (None otherwise): chain entries each vertex is short of
        self.short: Optional[np.ndarray] = short
        self._runs: Optional[List[np.ndarray]] = None

    def relaid(self, lo: int, hi: int, keep: Optional[np.ndarray] = None) -> "GatherResult":
        """The same vertices' runs, to be laid out over slots ``[lo, hi)``
        — only ``values[keep]`` of them when a mask is given."""
        values, sizes = self.values, self.sizes
        if keep is not None:
            run_id = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
            sizes = np.bincount(run_id[keep], minlength=sizes.size).astype(np.int64)
            values = values[keep]
        return GatherResult(lo, hi, self.i0, self.j, values, sizes,
                            self.chain_gidxs, self.log_rows, short=self.short)

    @property
    def runs(self) -> List[np.ndarray]:
        """Per-vertex edge values (no pivot), as views into ``values``."""
        if self._runs is None:
            self._runs = [
                self.values[o : o + s]
                for o, s in zip(self.run_off.tolist(), self.sizes.tolist())
            ]
        return self._runs


def _unmatched_mask(g: GatherResult) -> np.ndarray:
    """Compaction's filter: keep every gathered value but matched tombstone pairs.

    Both slots of a pair (:func:`~repro.core.encoding.tombstone_matches`,
    the rule snapshot reads apply) are dropped.  Unmatched tombstones
    (deletes of a never-present edge) are **kept**: they carry a −1
    live-degree contribution that both the DRAM bookkeeping and the
    recovery scan (``live = array_deg − 2·tombs``) account per tombstone
    regardless of matching, so dropping them would silently shift live
    degrees.  Filtering is order-preserving, so replaying the kept
    sequence reads back the exact same live adjacency.
    """
    return ~tombstone_matches(edge_dsts(g.values), is_tombstone(g.values), g.run_off, g.sizes)


def _lost_mask(g: GatherResult) -> np.ndarray:
    """Lossy repair's filter: keep every gathered value but lost slots.

    The scrubber zeroes the run slots and log entries a media error
    destroyed before it asks for the rewrite, and a zero inside a
    gathered run can be nothing else: array runs are contiguous, a
    chain value is never zero.  Laying out only the survivors closes
    the holes in order; selecting this filter is also what lets the
    gather accept a chain shorter than the vertex array expects.
    """
    return g.values != 0


class Rebalancer:
    """The rewrite pipeline over a DGAP host (``host.va/ea/logs/ulogs/pool/config``).

    Holds no persistent state of its own — only per-thread DRAM scratch —
    and reaches its host through a weak proxy: the host owns its
    rebalancer, so a strong back-pointer would be a reference cycle and
    a dropped store would wait for the cyclic collector (DESIGN.md §12).
    """

    def __init__(self, host):
        self.host = weakref.proxy(host)
        self._tls = threading.local()  # per-thread DRAM scratch buffers

    def dram_scratch(self) -> ScratchBuffer:
        """Per-thread reusable DRAM scratch (gather values, window images).

        Thread-local because disjoint windows may rebalance concurrently.
        """
        sb = getattr(self._tls, "scratch", None)
        if sb is None:
            sb = self._tls.scratch = ScratchBuffer()
        return sb

    # ------------------------------------------------------------------
    # density triggers
    # ------------------------------------------------------------------
    def maybe_rebalance(self, section: int, thread_id: int = 0) -> bool:
        """Called after an insertion raised ``section``'s density."""
        ea = self.host.ea
        # Scalar fast path: the vast majority of inserts leave the leaf
        # under its bound — avoid building the full occupancy vector.
        leaf = int(ea.seg_occ[section]) + int(self.host.logs.live_counts[section])
        if leaf <= ea.tree.tau(0) * ea.segment_slots:
            return False
        return self._rebalance_around(section, thread_id, even_leaf=False)

    @traced("merge", section=lambda self, section, *_, **__: section)
    def merge_section(self, section: int, thread_id: int = 0) -> None:
        """Fold a (nearly full) section edge log back into the array (§3 ③)."""
        self._rebalance_around(section, thread_id, even_leaf=True)

    def _rebalance_around(self, section: int, thread_id: int, even_leaf: bool) -> bool:
        """Rebalance the smallest in-bounds window around ``section`` —
        resize when even the root is too dense; a leaf already within
        bounds (tombstone churn) is left alone unless ``even_leaf``."""
        ea = self.host.ea
        occ = ea.combined_occupancy(self.host.logs.live_counts)
        win = ea.tree.find_rebalance_window(occ, section)
        if win is None:
            self.resize(thread_id)
            return True
        lo_seg, hi_seg, level = win
        if level == 0 and not even_leaf:
            return False
        self.rebalance_window(lo_seg, hi_seg, level, thread_id)
        return True

    # ------------------------------------------------------------------
    # gather / plan
    # ------------------------------------------------------------------
    def _extend(self, lo: int, hi: int) -> Tuple[int, int, int, int]:
        """Extend slot range to whole-run boundaries; returns (lo, hi, i0, j)."""
        va = self.host.va
        n = va.num_vertices
        starts = va.starts()
        pivots = starts - 1
        i0 = int(np.searchsorted(pivots, lo, side="left"))
        if i0 > 0:
            prev_end = int(starts[i0 - 1] + va.array_degree[i0 - 1])
            if prev_end > lo:
                i0 -= 1
                lo = int(pivots[i0])
        j = int(np.searchsorted(pivots, hi, side="left"))
        if j > i0:
            last_end = int(starts[j - 1] + va.array_degree[j - 1])
            hi = max(hi, last_end)
        return lo, hi, i0, j

    def _gather(self, lo: int, hi: int, i0: int, j: int, lossy: bool = False) -> GatherResult:
        """Collect runs (array edges + merged log chains) for vertices [i0, j).

        Two sequential reads and no pointer chasing: one bulk load of
        the window, one :meth:`EdgeLogs.stream` of its sections' logs,
        which :func:`~repro.core.edge_log.group_chains` turns into every
        chain, oldest first, checked against the vertex array.  A
        ``lossy`` gather (the lost-slot filter's, :meth:`_gather_kept`)
        accepts a chain that came up short and keeps the per-vertex
        shortfall: the survivors are adopted by the layout the rewrite
        commits (:meth:`_apply_dram` — degree becomes the run laid out,
        ``el`` empties).
        """
        host = self.host
        va, ea, logs = host.va, host.ea, host.logs
        dev = host.pool.device
        win = dev.load_batch(ea.byte_off(lo), (hi - lo) * 4).view(SLOT_DTYPE)
        secs = self._window_lock_span(lo, hi)
        gidx, rows = log_rows = logs.stream(secs.start, secs.stop)
        mine, counts, short = group_chains(gidx, rows, np.arange(i0, j), va, lossy)
        chain_gidxs = gidx[mine]
        starts = np.asarray(va.start[i0:j], dtype=np.int64) - lo
        ads = np.asarray(va.array_degree[i0:j], dtype=np.int64)
        sizes = ads + counts
        run_off = np.cumsum(sizes) - sizes
        nvals = int(sizes.sum())
        values = self.dram_scratch().take("gather.values", nvals, SLOT_DTYPE)
        if int(ads.sum()):
            values[multi_arange(run_off, ads)] = win[multi_arange(starts, ads)]
        # chains merge oldest-first behind the array part of the run
        values[multi_arange(run_off + ads, counts)] = unpack_entries(rows[mine])[1]
        return GatherResult(lo, hi, i0, j, values, sizes, chain_gidxs, log_rows, short=short)

    def _gather_kept(self, ext, keep_mask) -> Tuple[GatherResult, Optional[np.ndarray]]:
        """Gather ``ext`` (an :meth:`_extend` result) and evaluate the
        rewrite's filter on it: ``(gathered, mask of values to keep)``.
        The one place a gather meets its filter — in a window or in the
        resize that takes it over — so only the lost-slot filter's
        gather ever accepts a short chain."""
        if keep_mask is None:
            return self._gather(*ext), None
        g = self._gather(*ext, lossy=keep_mask is _lost_mask)
        # entries are about to leave rows: whatever prefix a reader holds
        # of them ends with the epoch this rewrite commits at
        self.host.history_epoch = self.host.structure_epoch + 1
        return g, keep_mask(g)

    def _gaps(self, sizes: np.ndarray, G: int, T: int, tail: int = 0) -> np.ndarray:
        """Per-run trailing gaps distributing ``G`` free slots, ``tail``
        of them to the last run.

        Proportional to run size by default (VCSR's workload-aware
        uneven distribution: hot vertices get more room);
        ``gap_distribution="uniform"`` switches to the classic PMA/PCSR
        even split — the design-choice ablation.
        """
        nv = len(sizes)
        G -= tail
        if self.host.config.gap_distribution == "uniform":
            gaps = np.full(nv, G // nv, dtype=np.int64)
            rem = G - int(gaps.sum())
            gaps[:rem] += 1
        else:
            gaps = (G * sizes) // T
            rem = G - int(gaps.sum())
            if rem:
                order = np.argsort(-sizes, kind="stable")[:rem]
                gaps[order] += 1
        gaps[-1] += tail
        return gaps

    def _plan(self, g: GatherResult, tail: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """Final window image + new per-vertex start slots.

        Counting-sort layout: run positions come from one prefix sum
        over sizes-plus-gaps, then pivots and all run values scatter
        into the image in two fancy-indexed stores.  ``tail`` slots of
        the free room are the last run's alone (pivots about to follow).
        """
        W = g.hi - g.lo
        nv = len(g.sizes)
        sizes = 1 + g.sizes  # pivot + edges
        T = int(sizes.sum())
        assert T == g.total and T + tail <= W
        gaps = self._gaps(sizes, W - T, T, tail) if nv else sizes
        steps = sizes + gaps
        pos = np.cumsum(steps) - steps  # window-relative pivot slots
        new_starts = g.lo + pos + 1
        image = self.dram_scratch().take("plan.image", W, SLOT_DTYPE, zero=True)
        if nv:
            image[pos] = encode_pivot(np.arange(g.i0, g.j, dtype=np.int64))
            if g.values.size:
                image[multi_arange(pos + 1, g.sizes)] = g.values
        return image, new_starts

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _get_scratch(self, nbytes: int):
        pool = self.host.pool
        if not pool.has_array(SCRATCH):
            return pool.alloc_array(SCRATCH, np.uint8, max(nbytes, 64 * 1024))
        scratch = pool.get_array(SCRATCH)
        return scratch if scratch.count >= nbytes else pool.grow_array(SCRATCH, nbytes)

    @traced("write_window", slots=lambda self, lo, hi, *_: hi - lo)
    def write_window_protected(self, lo: int, hi: int, image: np.ndarray, thread_id: int) -> None:
        """Crash-consistently overwrite slots ``[lo, hi)`` with ``image``.

        Small windows use the paper's backup-then-overwrite undo-log
        protocol; large ones the copy-on-write redirect; the "No EL&UL"
        ablation a PMDK transaction.  :meth:`_commit` owns the undo
        log's completion protocol (mark_done/finish).  Under the undo
        log the root window never comes here (:meth:`_switch`).
        """
        host = self.host
        dev = host.pool.device
        ea = host.ea
        nbytes = (hi - lo) * 4
        img8 = np.ascontiguousarray(image).view(np.uint8)
        dst = ea.byte_off(lo)

        dev.account_ns((hi - lo) * ELEMENT_MOVE_NS)
        if not host.config.use_undo_log:
            # Ablation "No EL&UL": one PMDK transaction around the window.
            with host.tx_mgr.tx() as t:
                t.add(dst, nbytes)
                dev.store(dst, img8, payload=0)
                dev.persist(dst, nbytes)
            return

        ulog: UndoLog = host.ulogs[thread_id]
        if nbytes <= ulog.capacity:
            # Paper protocol: backup destination, then overwrite.
            ulog.snapshot_window(lo, hi, dst, nbytes)
            dev.store(dst, img8, payload=0)
            dev.persist(dst, nbytes)
        else:
            # Copy-on-write redirect for windows larger than ULOG_SZ.
            scratch = self._get_scratch(nbytes)
            dev.ntstore(scratch.offset, img8, payload=0)
            dev.sfence()
            ulog.begin_copyback(lo, hi, scratch.offset, nbytes)
            self._copy_scratch(scratch.offset, dst, nbytes, ulog)

    def _copy_scratch(self, src_off: int, dst_off: int, nbytes: int, ulog: UndoLog) -> None:
        dev = self.host.pool.device
        dev.copyback_stream(src_off, dst_off, nbytes, chunk=ulog.capacity)
        dev.sfence()

    def _clears_by_window(self, lo: int, hi: int, log_rows) -> None:
        """Idempotent post-merge edge-log cleanup for window slots [lo, hi).

        Fully-covered sections' logs are cleared wholesale; boundary
        (partially covered) sections keep sibling vertices' entries and
        only the merged vertices' entries are invalidated.  Merged
        vertices are identified positionally (pivot inside the window),
        so this can run during crash recovery with no DRAM metadata.
        ``log_rows`` is the stream that already loaded these logs (the
        merge's gather, recovery's cursor rebuild): none is read here.
        """
        host = self.host
        ea, logs = host.ea, host.logs
        S = ea.segment_slots
        eps = logs.entries_per_section
        s_lo, s_hi = lo // S, (hi + S - 1) // S
        full_lo = (lo + S - 1) // S
        full_hi = hi // S
        window_slots = ea.slots[lo:hi]
        merged = pivot_vertices(window_slots[is_pivot(window_slots)])
        gidx, rows = log_rows
        for s in range(s_lo, s_hi):
            if full_lo <= s < full_hi:
                if logs.counts[s]:
                    logs.clear_section(s)
            else:
                a, b = np.searchsorted(gidx, (s * eps, (s + 1) * eps))
                srcs, dst_encs, _ = unpack_entries(rows[a:b])
                hit = (dst_encs != 0) & np.isin(srcs, merged)  # not yet invalidated
                logs.invalidate_entries(gidx[a:b][hit])

    def _apply_dram(self, laid: GatherResult, new_starts: np.ndarray) -> None:
        """Move the vertex array with a committed layout: every chain was
        merged, so the laid-out run *is* the vertex's whole history
        (``degree == array_degree == run length`` — :func:`group_chains`
        pinned the gathered lengths to ``degree``) and ``el`` is empty.
        ``live_degree`` is invariant — a gather drops nothing, and each
        pair compaction drops is one live (+1) and one tombstone (−1) —
        except under a lossy repair, whose rows are recounted from what
        survived into the layout."""
        va = self.host.va
        i0, j = laid.i0, laid.j
        if i0 == j:
            return
        live = va.live_degree[i0:j]
        if laid.short is not None:
            live = live_degrees(laid.values, laid.run_off, laid.run_off + laid.sizes)
        va.update_window(i0, j, new_starts, laid.sizes, laid.sizes,
                         live, np.full(j - i0, -1, dtype=np.int64))

    def _commit(
        self,
        lo: int,
        hi: int,
        log_rows,
        thread_id: int = 0,
        image: Optional[np.ndarray] = None,
        redo: Optional[UndoHeader] = None,
        layout: Optional[Tuple[GatherResult, np.ndarray]] = None,
    ) -> None:
        """Fig. 4 from the overwrite on — the one copy of the sequence.

        overwrite slots ``[lo, hi)`` with ``image`` → mark done → clear
        the logs the image absorbed → finish → move the DRAM metadata.
        A generation switch already made its image current and passes
        none.  Crash recovery re-enters with the header it found
        (``redo``): a COPYBACK is landed again (:meth:`_land`) in place
        of the overwrite, a DONE resumes at the clears.  ``log_rows`` is
        the stream that loaded the absorbed logs; ``None`` means none
        was merged (the "No EL" shift), so the recorded done window is
        empty and nothing is cleared.  ``layout`` — ``(laid, new_starts)`` from
        :meth:`_plan` — moves the vertex array with the image; recovery
        (whose scan rebuilds it) and the shift (which only bumps starts)
        pass none.  Under "No EL&UL" the PMDK transaction inside
        :meth:`write_window_protected` is the whole protection: only the
        clears remain.
        """
        host = self.host
        ulog: Optional[UndoLog] = (
            host.ulogs[thread_id] if redo is not None or host.config.use_undo_log else None
        )
        if redo is None:
            if image is not None:
                self.write_window_protected(lo, hi, image, thread_id)
        elif redo.state == STATE_COPYBACK:
            self._land(redo, ulog)
        if ulog is not None and (redo is None or redo.state != STATE_DONE):
            ulog.mark_done(lo, hi if log_rows is not None else lo)
        if log_rows is not None:
            self._clears_by_window(lo, hi, log_rows)
        if ulog is not None:
            ulog.finish()
        if layout is not None:
            self._apply_dram(*layout)
            host.ea.recount(lo, hi)
            host.note_rebalance_window(lo, hi)

    # ------------------------------------------------------------------
    # top-level operations
    # ------------------------------------------------------------------
    def _window_lock_span(self, lo: int, hi: int) -> range:
        ea = self.host.ea
        S = ea.segment_slots
        return range(lo // S, min((hi + S - 1) // S, ea.n_sections))

    @traced(
        "rebalance",
        lo_seg=lambda self, lo_seg, hi_seg, level, *_, **__: lo_seg,
        hi_seg=lambda self, lo_seg, hi_seg, level, *_, **__: hi_seg,
        level=lambda self, lo_seg, hi_seg, level, *_, **__: level,
    )
    def rebalance_window(self, lo_seg: int, hi_seg: int, level: int, thread_id: int = 0) -> None:
        """Rebalance one density-tree window (merging its edge logs)."""
        done = self._rewrite_window(lo_seg, hi_seg, level, thread_id)
        if done is not None:
            annotate(lo=done[1].lo, hi=done[1].hi, elements=done[1].total)

    def _rewrite_window(
        self, lo_seg: int, hi_seg: int, level: int, thread_id: int, keep_mask=None
    ) -> Optional[Tuple[GatherResult, GatherResult]]:
        """Run the pipeline over one density-tree window under its locks.

        Returns ``(gathered, laid out)`` once committed — in place, or by
        the generation switch that takes the root window over (growing
        when it cannot hold its contents) — or None when nothing was
        written: the window holds only gaps, or the array generation
        changed while waiting for locks (the trigger is obsolete — the
        new layout was just rebalanced wholesale).  ``keep_mask(gathered)``
        filters the gathered values before they are laid out, in the
        window and in that switch alike: no gather of this call goes
        unfiltered.

        §3.1.6 protocol: flag the window's sections, acquire every
        section lock in ascending order (``begin_rebalance``), *then*
        re-extend and gather — runs may have moved while waiting.  If
        re-extension or escalation widens the window beyond the held
        sections, all locks are dropped and the wider window is locked
        from scratch (holding a partial window while acquiring more is
        the out-of-order pattern the lock-discipline oracle rejects).
        The caller must hold no section locks (writers defer rebalances
        until after their release — see ``DGAP._insert_one``).
        """
        host = self.host
        ea = host.ea
        S = ea.segment_slots
        locks = host.locks
        held: List[int] = []
        try:
            while True:
                if host.ea is not ea:
                    return None
                lo, hi, i0, j = self._extend(lo_seg * S, hi_seg * S)
                root = hi - lo == ea.capacity
                if root and host.config.use_undo_log:
                    break  # never rewritten in place
                need = self._window_lock_span(lo, hi)
                if not set(need) <= set(held):
                    if held:
                        locks.end_rebalance(held)
                        held = []
                    held = locks.begin_rebalance(need)
                    continue  # re-extend now that the window is exclusive
                if i0 == j:
                    return None
                g, keep = self._gather_kept((lo, hi, i0, j), keep_mask)
                laid = g if keep is None else g.relaid(lo, hi, keep)
                if laid.total <= (hi - lo):
                    image, new_starts = self._plan(laid)
                    self._commit(lo, hi, g.log_rows, thread_id, image, layout=(laid, new_starts))
                    return g, laid
                # window can't hold its own contents (boundary extension,
                # or log chains that outgrew the array): escalate a level,
                # or leave the root to a larger generation.
                if root:
                    break
                level += 1
                lo_seg, hi_seg = ea.tree.window_at(lo_seg, level)
        finally:
            if held:
                locks.end_rebalance(held)
        # the whole array: a generation switch, which takes every lock itself
        fits = host.config.use_undo_log and self._switch(thread_id, keep_mask)
        return fits or self.resize(thread_id, keep_mask)

    @traced("resize")
    def resize(
        self, thread_id: int = 0, keep_mask=None, tail: int = 0
    ) -> Tuple[GatherResult, GatherResult]:
        """Generation switch to a (at least) doubled array; returns
        ``(gathered, laid out)`` like :meth:`_rewrite_window`, whose
        ``keep_mask`` it honours when it takes a window over.  ``tail``
        more entries — pivots the caller appends next — are sized for
        and left room behind the last run."""
        return self._switch(thread_id, keep_mask, grow=True, tail=tail)

    def _switch(
        self, thread_id: int, keep_mask, grow: bool = False, tail: int = 0
    ) -> Optional[Tuple[GatherResult, GatherResult]]:
        """Rewrite the whole array into a fresh generation — at the same
        capacity, or (``grow``) a larger one.  None when the contents
        do not fit the capacity they were to keep.

        Runs under *full* exclusion: every section is flagged and locked
        (``begin_rebalance`` over the whole table) before the gather, so
        the quiescence assertion in ``SectionLockTable.resize`` — which
        a growing switch reaches via ``stats_note_resize`` after the
        commit point — holds by construction.  That lock-table swap
        releases the old generation's locks itself; otherwise this
        thread still holds them and ``end_rebalance`` runs.  Callers
        must hold no section locks (deadlock-freedom: a switch acquires
        everything).
        """
        host = self.host
        locks = host.locks
        held = locks.begin_rebalance(range(locks.n_sections))
        try:
            cap = new_cap = host.ea.capacity
            g, keep = self._gather_kept(self._extend(0, cap), keep_mask)
            total = tail + (g.total if keep is None else g.sizes.size + int(keep.sum()))
            if grow:
                target = TAU_ROOT * 0.75
                while total > new_cap * target:
                    new_cap *= 2
                if new_cap == cap:
                    new_cap *= 2
            elif total > cap:
                return None
            laid = g.relaid(0, new_cap, keep)
            image, new_starts = self._plan(laid, tail)
            self._stream_generation(image, thread_id)
            if grow:
                self._apply_dram(laid, new_starts)
                host.ea.recount_all()
                host.stats_note_resize(new_cap)
            else:  # the kept logs still hold what the image absorbed
                self._commit(0, cap, g.log_rows, thread_id, layout=(laid, new_starts))
            return g, laid
        finally:
            me = threading.get_ident()
            still = locks.held_sections()
            mine = [s for s in held if still.get(s, (0, 0))[0] == me]
            if mine:
                locks.end_rebalance(mine)

    @traced("write_window", slots=lambda self, image, *_: int(image.size))
    def _stream_generation(self, image: np.ndarray, thread_id: int) -> None:
        """Make ``image`` — a whole array — the next generation: one
        sequential non-temporal stream into its region (which the image
        covers: no fill), a fence, the root flip.  Nothing is moved in
        place, so no element-move cost accrues.

        A larger array gets new, empty logs and the flip alone commits.
        At unchanged capacity the log region is kept, so the image is
        committed first — a COPYBACK whose source is the new region —
        and everything after rolls forward: recovery lands it by
        flipping the root (:meth:`_land`), and the caller's
        :meth:`_commit` tail clears the entries it absorbed under the
        DONE record of any window.  A failed allocation frees what the
        half-built generation got.
        """
        host = self.host
        pool, ea, logs = host.pool, host.ea, host.logs
        try:
            new_ea = EdgeArray(pool, image.size, ea.segment_slots, gen=ea.gen + 1,
                               create=True, pm_metadata=ea.pm_metadata)
            if image.size != ea.capacity:
                logs = EdgeLogs(pool, new_ea.n_sections, logs.entries_per_section)
        except OutOfPMemError:
            self.reap()
            raise
        pool.device.ntstore(new_ea.region.offset, image.view(np.uint8), payload=0)
        pool.device.sfence()
        if logs is host.logs:
            host.ulogs[thread_id].begin_copyback(0, image.size, new_ea.region.offset, image.nbytes)
        self._flip(new_ea, logs)

    def _flip(self, ea: EdgeArray, logs: EdgeLogs) -> None:
        """The atomic generation switch; the generation it retires is freed."""
        host = self.host
        host.pool.write_root(ROOT_GEN, ea.gen)
        host.ea, host.logs = ea, logs
        self.reap()

    def _land(self, h: UndoHeader, ulog: UndoLog) -> None:
        """Redo a committed COPYBACK, whose image sits whole at
        ``h.dst_off``: in the scratch, copy it over the window again; in
        a generation's region, flip the root to it.  Idempotent both."""
        host = self.host
        ea = host.ea
        name = host.pool.region_of(h.dst_off)[0]
        if name == SCRATCH:
            self._copy_scratch(h.dst_off, ea.byte_off(h.win_lo), h.length, ulog)
            return
        gen = int(name.rsplit("g", 1)[1])
        ea = EdgeArray(host.pool, ea.capacity, ea.segment_slots, gen=gen, create=False,
                       pm_metadata=ea.pm_metadata)
        self._flip(ea, host.logs)

    def reap(self) -> None:
        """Free every generation region nothing will read again
        (``recovery.dead_state``): the retired generation at a flip, a
        half-built one when a switch unwinds or a crash interrupted it."""
        from .recovery import GENERATION_REGIONS, dead_state

        pool = self.host.pool
        for name in pool.names(GENERATION_REGIONS):
            region = pool.get_array(name)
            if dead_state(self.host, name, region.offset, region.nbytes):
                pool.free_array(name)

    # ------------------------------------------------------------------
    # tombstone compaction (temporal expiry sweep)
    # ------------------------------------------------------------------
    @traced("compact_sweep")
    def compact(self) -> dict:
        """Whole-array tombstone-merge sweep; returns sweep statistics.

        A rebalance of the root window with a filter: gathers every
        vertex run (merging pending edge-log chains), drops each matched
        tombstone + cancelled-live pair (:func:`_unmatched_mask`), and
        commits the filtered layout as the next generation.  Live
        adjacency is byte-identical before and after; ``live_degree`` is
        untouched (a dropped pair nets zero) while ``degree`` and
        ``array_degree`` shrink to the filtered run lengths, so the
        paid-per-entry costs of future gathers and scans drop with the
        dead weight.  Should even the filtered image not fit the
        capacity, the resize that takes over applies the same filter:
        one sweep always suffices.

        Crash behavior: a crash before the image commits leaves the old
        generation current (the sweep is dropped — logically invisible);
        a crash after the COPYBACK commit rolls forward to the new one
        and the recovery scan reconstructs the filtered metadata, with
        ``live = array_deg − 2·tombs`` still exact because only matched
        pairs were removed.
        """
        host = self.host
        done = self._rewrite_window(
            0, host.ea.n_sections, host.ea.tree.height, thread_id=0, keep_mask=_unmatched_mask
        )
        ea = host.ea  # a generation newer when the sweep had to resize
        before = after = np.empty(0, dtype=SLOT_DTYPE)
        if done is not None:
            before, after = done[0].values, done[1].values
            annotate(slots=ea.capacity, entries=int(before.size),
                     dropped=int(before.size - after.size))
        return {
            "slots": ea.capacity,
            "entries_before": int(before.size),
            "entries_after": int(after.size),
            "pairs_dropped": int(before.size - after.size) // 2,
            "tombstones_before": int(is_tombstone(before).sum()),
            "tombstones_after": int(is_tombstone(after).sum()),
        }

    # ------------------------------------------------------------------
    # lossy repair (runtime scrubber)
    # ------------------------------------------------------------------
    def repair_sections(self, sections) -> dict:
        """Close the holes a media error left in ``sections``; returns
        ``{vertex: entries lost}``.

        The scrubber's entry point, between operations (every undo log
        idle; thread 0's is used).  The run slots and log entries the
        error destroyed already read zero — the bytes are gone and the
        scrubber cleared their poison — so each section is one leaf
        window rewritten with the lost-slot filter: the survivors are
        laid out in order, surviving chain entries merged, the merged
        logs cleared and the vertex array moved exactly as a log merge
        does, under the same undo-log / COPYBACK / PMDK-tx protection
        (or the generation switch, should a window escalate to the root).
        A crash anywhere leaves only what recovery already cuts: a run
        at its first hole, a chain at its first missing entry.  Windows
        extend to whole runs and may escalate, so a section inside one
        already rewritten is skipped; a resize filters everything.
        """
        host = self.host
        ea = host.ea
        lost: dict = {}
        done_hi = 0
        for s in sorted(sections):
            if (s + 1) * ea.segment_slots <= done_hi:
                continue
            done = self._rewrite_window(s, s + 1, level=0, thread_id=0, keep_mask=_lost_mask)
            if done is None:
                continue
            g, laid = done
            n = g.short + g.sizes - laid.sizes  # chain entries + run slots lost
            for k in np.flatnonzero(n).tolist():
                lost[g.i0 + k] = lost.get(g.i0 + k, 0) + int(n[k])
            if host.ea is not ea:
                break
            done_hi = laid.hi
        return lost

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def recover_ulog(self, ulog: UndoLog, log_rows) -> Optional[Tuple[int, int]]:
        """Complete or unwind whatever one undo log was doing at the crash.

        ``log_rows`` is the log image ``EdgeLogs.rebuild_counts`` streamed.
        Returns a window (lo, hi) that should be *re-issued* after the
        DRAM metadata is rebuilt, or None.
        """
        h = ulog.read_header()
        if h.state == STATE_IDLE:
            return None
        if h.state == STATE_ACTIVE:
            ulog.restore_if_valid()
            ulog.finish()
            return (h.win_lo, h.win_hi)
        if h.state == STATE_COPYBACK:
            self._commit(h.win_lo, h.win_hi, log_rows, ulog.thread_id, redo=h)
            return None
        if h.state == STATE_DONE:
            self._commit(h.done_lo, h.done_hi, log_rows, ulog.thread_id, redo=h)
            return None
        raise GraphError(f"undo log {ulog.thread_id} in unknown state {h.state}")


__all__ = ["Rebalancer", "GatherResult", "ROOT_SHUTDOWN", "ROOT_GEN", "ROOT_SEGSLOTS",
           "ROOT_EPS", "ROOT_NTHREADS", "ROOT_NV_HINT"]
