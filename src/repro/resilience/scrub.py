"""Online scrub-and-repair pass and the degraded-mode wrapper.

:class:`ResilienceManager` wraps one live DGAP instance and keeps it
operating through uncorrectable media errors:

* **on-demand repair** — when any device read raises
  :class:`~repro.errors.MediaError`, :meth:`handle_media_error`
  quarantines every currently-poisoned line, maps it through
  ``pool.region_of`` to the structure it damages, and repairs it from
  whatever redundancy survives;
* **patrol scrub** — :meth:`scrub` walks the device in fixed windows on
  the modeled clock (sequential-read cost inside a ``scrub`` span),
  finding and repairing poison the application has not touched yet;
* **guarded operation** — :meth:`guarded_insert_edge` and
  :meth:`analyze` catch mid-operation faults, repair, and retry, so a
  DEGRADED instance answers with a
  :class:`~repro.resilience.quarantine.DamageReport` instead of raising
  mid-kernel.

Repair honesty rule: poisoned bytes are *lost* — repairs reconstruct
content only from readable redundancy (DRAM metadata, surviving slots,
surviving log entries, known constants), never from the simulator's
shadow of the damaged bytes.  What each region kind affords:

=================== =====================================================
region              repair
=================== =====================================================
``edges.g<cur>``    pivots from ``va.start`` (exact); gaps are zeros
                    (exact); damaged *run* slots are lost — the run is
                    compacted around them and per-vertex degrees fixed
                    up (**lossy**)
``elogs.g<cur>``    slots at/past the append cursor are zeros (exact);
                    damaged live entries are lost — surviving entries
                    (slot order = oldest-first chain order) are
                    re-linked into a fresh chain and the owner inferred
                    from its degree shortfall (**lossy**)
``vertexarr.*``     rewritten from the authoritative DRAM cache (exact)
``segocc.g<cur>``   rewritten from DRAM ``seg_occ`` (exact)
``meta.*``          shutdown-only snapshot: zeroed, regenerated at the
                    next shutdown (scrubbed)
``ulog.*``          quiescent between operations: reset to idle
                    (scrubbed); an ACTIVE committed backup payload is
                    unrecoverable
``rebal.scratch.*`` dead between operations (scrubbed) unless a
                    COPYBACK names it as source (unrecoverable)
dead generations    zeroed (scrubbed)
pool metadata       magic/roots/cursor rewritten from DRAM authority
                    (scrubbed — the shutdown hint may differ)
unknown             unrecoverable → READ_ONLY
=================== =====================================================

Health only worsens: HEALTHY → DEGRADED on the first lossy repair,
→ READ_ONLY on the first unrecoverable range.  Transitions and repairs
are traced (``repro.obs`` spans), so ``bench profile`` attributes their
modeled time exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.encoding import SLOT_DTYPE, TOMB_BIT
from ..core.rebalance import (
    ROOT_EPS,
    ROOT_GEN,
    ROOT_INIT_CAP,
    ROOT_NTHREADS,
    ROOT_NV_HINT,
    ROOT_SEGSLOTS,
    ROOT_SHUTDOWN,
)
from ..core.recovery import dead_state
from ..core.vertex_array import NO_EL
from ..errors import MediaError, ReadOnlyGraphError
from ..obs.tracer import annotate, trace
from ..pmem import pool as pool_mod
from .quarantine import (
    OUTCOME_HEALTH,
    DamageReport,
    HealthState,
    QuarantineEntry,
    QuarantineRegistry,
    RepairOutcome,
)

_FIELDS = 3  # edge-log entry fields (src, dst_enc, back)

#: How a quarantine entry words each region kind ``dead_state`` judges,
#: by the first component of the region name:
#: ``(kind, detail when dead, detail when lost)``.
_DEAD_STATE_KINDS = {
    "meta": ("shutdown-metadata",
             "stale shutdown snapshot; regenerated at next shutdown", ""),
    "edges": ("dead-generation", "", ""),
    "elogs": ("dead-generation", "", ""),
    "ulog": ("undo-log", "", "committed ACTIVE backup payload lost"),
    "rebal": ("scratch", "", "COPYBACK source image lost"),
}


class ResilienceManager:
    """Runtime fault tolerance for one live DGAP instance."""

    def __init__(self, graph, patrol_bytes: int = 64 * 1024, max_retries: int = 3):
        self.graph = graph
        self.pool = graph.pool
        self.dev = graph.pool.device
        self.registry = QuarantineRegistry()
        self.health = HealthState.HEALTHY
        self.patrol_bytes = int(patrol_bytes)
        self.max_retries = int(max_retries)
        self._patrol_cursor = 0
        graph.health = self.health

    # -- health ------------------------------------------------------------
    def _set_health(self, new: HealthState) -> None:
        if new.rank <= self.health.rank:
            return
        with trace(
            "health_transition",
            from_state=self.health.value,
            to_state=new.value,
        ):
            self.health = new
            self.graph.health = new

    def check_writable(self) -> None:
        if self.health is HealthState.READ_ONLY:
            raise ReadOnlyGraphError(
                "instance is READ_ONLY after unrecoverable media damage; "
                f"see DamageReport: {self.damage_report().summary()}"
            )

    def damage_report(self) -> DamageReport:
        return self.registry.report(self.health)

    # -- entry points ------------------------------------------------------
    def handle_media_error(self, err: MediaError) -> List[QuarantineEntry]:
        """Quarantine and repair after a read faulted; returns new entries."""
        with trace("quarantine", off=err.off, nbytes=err.length):
            return self._repair_pending()

    def scrub(self, nbytes: Optional[int] = None) -> List[QuarantineEntry]:
        """One patrol-scrub step: scan the next window, repair poison found.

        The scan is a media patrol read
        (:meth:`~repro.pmem.device.PMemDevice.scrub_scan`): it charges
        one sequential read inside the ``scrub`` span *and* surfaces
        latent spontaneous decay in the window, which — together with
        any poison demand reads already confirmed — is repaired before
        returning.  Call with ``nbytes=device.size`` for a full scrub.
        Returns the quarantine entries created this step.
        """
        window = min(int(nbytes or self.patrol_bytes), self.dev.size)
        start = self._patrol_cursor
        end = min(start + window, self.dev.size)
        with trace("scrub", off=start, nbytes=end - start):
            found = self.dev.scrub_scan(start, end - start)
            self._patrol_cursor = end % self.dev.size
            hit = bool(found) or any(
                off < end and off + n > start
                for off, n in self.dev.poisoned_ranges()
            )
            entries = self._repair_pending() if hit else []
            annotate(found=len(entries))
        return entries

    def full_scrub(self) -> List[QuarantineEntry]:
        self._patrol_cursor = 0
        return self.scrub(self.dev.size)

    # -- guarded operation -------------------------------------------------
    def guarded_insert_edge(
        self, src: int, dst: int, thread_id: int = 0
    ) -> List[QuarantineEntry]:
        """Insert one edge, repairing and retrying through media faults.

        Whether a faulted insert landed is decided from the source's
        degree delta, corrected for edges the repair itself dropped —
        an insert is retried only when it provably did not land, so the
        graph never gains a duplicate.  An insert that landed may have
        faulted inside the section merge it owes *afterwards*; the
        remaining attempts then re-drive that merge, so the layout keeps
        up with a fault-free run's.  Raises
        :class:`~repro.errors.ReadOnlyGraphError` when the instance is
        (or becomes) READ_ONLY.
        """
        self.check_writable()
        g = self.graph
        created: List[QuarantineEntry] = []
        landed = False
        for _ in range(self.max_retries + 1):
            known = src < g.va.num_vertices
            d0 = int(g.va.degree[src]) if known else 0
            try:
                if not landed:
                    g.insert_edge(src, dst, thread_id)
                else:
                    sec = g.ea.section_of(int(g.va.start[src]) - 1)
                    if g.merge_due(sec):
                        g.rebalancer.merge_section(sec, thread_id)
                return created
            except MediaError as err:
                entries = self.handle_media_error(err)
                created.extend(entries)
                if self.health is HealthState.READ_ONLY:
                    raise ReadOnlyGraphError(
                        "media damage during insert was unrecoverable; "
                        "instance is now READ_ONLY"
                    ) from err
                if not landed:
                    lost_src = sum(
                        n for e in entries for v, n in e.lost_by_vertex if v == src
                    )
                    landed = (
                        src < g.va.num_vertices
                        and int(g.va.degree[src]) > d0 - lost_src
                    )
        if landed:
            # The edge is in; the merge stays owed to the section's next
            # insert (a full log forces it before anything else lands).
            return created
        raise MediaError(
            f"insert of ({src}, {dst}) kept faulting after "
            f"{self.max_retries} repair attempts"
        )

    def analyze(self, kernel: Callable) -> Tuple[object, DamageReport]:
        """Run ``kernel(snapshot)`` with repair-retry; returns
        ``(result, DamageReport)`` instead of raising mid-kernel."""
        g = self.graph
        for _ in range(self.max_retries + 1):
            try:
                snap = g.consistent_view()
                try:
                    result = kernel(snap)
                finally:
                    close = getattr(snap, "close", None)
                    if close is not None:
                        close()
                return result, self.damage_report()
            except MediaError as err:
                self.handle_media_error(err)
        raise MediaError(
            f"analysis kept faulting after {self.max_retries} repair attempts"
        )

    # -- quarantine + repair ----------------------------------------------
    def _repair_pending(self) -> List[QuarantineEntry]:
        """Repair every currently-poisoned range; returns new entries."""
        ranges = self.dev.poisoned_ranges()
        if not ranges:
            return []
        parts: List[Tuple[int, int, Optional[str]]] = []
        for off, n in ranges:
            parts.extend(self.pool.split_by_region(off, n))

        g = self.graph
        edges_name = f"edges.g{g.ea.gen}"
        elogs_name = f"elogs.g{g.logs.gen}"
        edge_parts = [(o, n) for o, n, nm in parts if nm == edges_name]
        log_parts = [(o, n) for o, n, nm in parts if nm == elogs_name]
        other = [(o, n, nm) for o, n, nm in parts if nm not in (edges_name, elogs_name)]

        entries: List[QuarantineEntry] = []
        with self.dev.suspend_runtime_faults():
            # Generic regions first (they may unblock the structural
            # repairs), then edge logs (the edge-array repair walks the
            # repaired chains), then the edge array.
            for off, n, name in other:
                with trace("repair", region=name or "pool", off=off, nbytes=n):
                    e = self._repair_generic(off, n, name)
                    annotate(outcome=e.outcome.value)
                entries.append(e)
            if log_parts:
                entries.extend(self._repair_edge_log(log_parts, edge_parts))
            if edge_parts:
                entries.extend(self._repair_edge_array(edge_parts))
            self._finish_straddling_lines(entries)
        for e in entries:
            self.registry.add(e)
            self._set_health(OUTCOME_HEALTH[e.outcome])
        return entries

    def _finish_straddling_lines(self, entries: List[QuarantineEntry]) -> None:
        """Complete poisoned lines rewritten by two adjacent partial repairs.

        A cache line straddling a region boundary is repaired by two
        partial writes (one per region part), neither of which rewrites
        the full 64 bytes, so the device honestly leaves the ECC block
        poisoned.  Both halves of the line's content have just been
        reconstructed, so one full-line rewrite of that content makes
        the block whole.  Lines touching an unrecoverable part keep
        their poison — those bytes really are lost.
        """
        from ..pmem.device import CACHE_LINE

        bad = [
            e.byte_range for e in entries
            if e.outcome is RepairOutcome.UNRECOVERABLE
        ]
        for off, n in self.dev.poisoned_ranges():
            for a in range(off, off + n, CACHE_LINE):
                if any(lo < a + CACHE_LINE and a < hi for lo, hi in bad):
                    continue
                self.dev.ntstore(
                    a, self.dev.buf[a : a + CACHE_LINE].copy(), payload=0
                )
        self.dev.sfence()

    def _zero(self, off: int, n: int) -> None:
        self.dev.ntstore(off, np.zeros(n, dtype=np.uint8), payload=0)
        self.dev.sfence()

    # -- generic (non-structural) regions ----------------------------------
    def _repair_generic(self, off: int, n: int, name: Optional[str]) -> QuarantineEntry:
        g = self.graph

        def entry(kind: str, outcome: RepairOutcome, detail: str = "") -> QuarantineEntry:
            return QuarantineEntry(
                off=off, nbytes=n, region=name or kind, kind=kind,
                outcome=outcome, detail=detail,
            )

        if name is None:
            if off < pool_mod._DATA_OFF:
                self._rewrite_pool_meta(off, n)
                return entry(
                    "pool-metadata", RepairOutcome.SCRUBBED,
                    "rewritten from DRAM authority",
                )
            self._zero(off, n)
            return entry("unallocated", RepairOutcome.SCRUBBED)

        va = g.va
        if name.startswith("vertexarr."):
            field, gen = name.split(".")[1], name.rsplit(".g", 1)[1]
            regions = getattr(va, "_regions", None)
            live = (
                regions is not None
                and field in regions
                and regions[field].name == name
            )
            if live:
                r = regions[field]
                i0 = (off - r.offset) // r.itemsize
                i1 = (off + n - r.offset) // r.itemsize
                r.write_slice(i0, getattr(va, field)[i0:i1], payload=0, persist=True)
                return entry(
                    "vertex-metadata", RepairOutcome.EXACT,
                    f"field {field!r} rewritten from DRAM cache",
                )
            self._zero(off, n)
            return entry("dead-generation", RepairOutcome.SCRUBBED)

        if name == f"segocc.g{g.ea.gen}" and g.ea._occ_region is not None:
            r = g.ea._occ_region
            i0 = (off - r.offset) // r.itemsize
            i1 = (off + n - r.offset) // r.itemsize
            r.write_slice(i0, g.ea.seg_occ[i0:i1], payload=0, persist=True)
            return entry(
                "pma-metadata", RepairOutcome.EXACT, "rewritten from DRAM seg_occ"
            )

        if name.startswith("segocc.g"):
            self._zero(off, n)  # the live one was rewritten above
            return entry("dead-generation", RepairOutcome.SCRUBBED)

        if name.startswith("ulog.hdr.t"):
            self._zero(off, n)
            return entry(
                "undo-log", RepairOutcome.SCRUBBED,
                "quiescent header reset to idle",
            )

        # Regions with no DRAM redundancy: zeroed when nothing will read
        # them again (the rule crash recovery scrubs by), lost otherwise.
        # Current-generation edges/elogs never get here — the structural
        # repairs take them first.
        dead = dead_state(g, name, off, n)
        if dead is not None:
            kind, why_dead, why_lost = _DEAD_STATE_KINDS[name.split(".", 1)[0]]
            if not dead:
                return entry(kind, RepairOutcome.UNRECOVERABLE, why_lost)
            self._zero(off, n)
            return entry(kind, RepairOutcome.SCRUBBED, why_dead)

        if name.startswith("pmdk-journal"):
            self._zero(off, n)
            return entry("journal", RepairOutcome.SCRUBBED, "no transaction in flight")

        return entry("unknown", RepairOutcome.UNRECOVERABLE, f"no redundancy for {name!r}")

    def _rewrite_pool_meta(self, off: int, n: int) -> None:
        """Reconstruct the pool metadata block from DRAM authority."""
        g = self.graph
        repl = np.zeros(pool_mod._DATA_OFF, dtype=np.uint8)
        repl[0:8] = np.frombuffer(np.uint64(pool_mod._MAGIC).tobytes(), dtype=np.uint8)
        roots = np.zeros(pool_mod._N_ROOT_SLOTS, dtype=np.uint64)
        roots[ROOT_GEN] = g.ea.gen
        roots[ROOT_SEGSLOTS] = g.ea.segment_slots
        roots[ROOT_INIT_CAP] = g.ea.capacity
        roots[ROOT_EPS] = g.logs.entries_per_section
        roots[ROOT_NTHREADS] = len(g.ulogs)
        roots[ROOT_NV_HINT] = g.va.num_vertices
        roots[ROOT_SHUTDOWN] = 0
        ro = pool_mod._ROOTS_OFF
        repl[ro : ro + roots.nbytes] = roots.view(np.uint8)
        co = pool_mod._CURSOR_OFF
        repl[co : co + 8] = np.frombuffer(
            np.uint64(self.pool.allocator.cursor).tobytes(), dtype=np.uint8
        )
        self.dev.ntstore(off, repl[off : off + n], payload=0)
        self.dev.sfence()

    # -- edge-log repair ----------------------------------------------------
    def _repair_edge_log(
        self, parts: List[Tuple[int, int]], edge_parts: List[Tuple[int, int]]
    ) -> List[QuarantineEntry]:
        """Lossy repair of the current-generation edge logs.

        Damaged entries are lost.  Surviving entries of each affected
        vertex (slot order = oldest-first chain order) are re-linked
        into a fresh back-pointer chain; the owner of a lost entry is
        inferred from its degree shortfall (``degree - array_degree``
        minus the surviving chain length).  Zeroed slots before the
        append cursor stay spent, as merge invalidation leaves them,
        except that a cursor whose frontier entry died shrinks to the
        last surviving non-empty entry — keeping the DRAM cursors
        identical to what an independent rebuild would infer.
        """
        g = self.graph
        logs = g.logs
        va = g.va
        reg = logs.region
        eps = logs.entries_per_section
        nv = va.num_vertices

        # Pre-repair cursors: attribution below must classify damage
        # against where the frontier *was*, not the shrunk cursor.
        counts_before = logs.counts.copy()

        # Zero first: damaged slots then read back as invalid entries,
        # so "surviving" needs no separate mask.
        for off, n in parts:
            self._zero(off, n)

        dmg_slots: Dict[int, set] = {}
        for off, n in parts:
            f0 = (off - reg.offset) // reg.itemsize
            f1 = (off + n - reg.offset + reg.itemsize - 1) // reg.itemsize
            for gidx in range(f0 // _FIELDS, (f1 + _FIELDS - 1) // _FIELDS):
                dmg_slots.setdefault(gidx // eps, set()).add(gidx % eps)

        # Sections whose live entries may be lost (damage below cursor).
        el = va.el[:nv]
        edge_dmg = self._edge_slot_mask(edge_parts)
        lost_by_vertex: Dict[int, int] = {}
        for s, slots in sorted(dmg_slots.items()):
            cur = int(logs.counts[s])
            if not any(sl < cur for sl in slots):
                continue  # only at/past-cursor zeros: byte-exact
            base = s * eps * _FIELDS
            rows = reg.view[base : base + cur * _FIELDS].reshape(cur, _FIELDS)
            valid = (rows != 0).all(axis=1)
            srcs = rows[:, 0].astype(np.int64) - 1
            cands = np.flatnonzero((el >= 0) & (el // eps == s))
            for v in cands.tolist():
                mine = np.flatnonzero(valid & (srcs == v))
                old_chain = int(va.degree[v]) - int(va.array_degree[v])
                lost_v = old_chain - int(mine.size)
                if lost_v <= 0:
                    continue  # no entry of v was damaged: chain untouched
                lost_by_vertex[v] = lost_by_vertex.get(v, 0) + lost_v
                gidxs = s * eps + mine
                chain_live = 0
                prev_stored = 1  # "no predecessor"
                for i, sl in enumerate(mine.tolist()):
                    pos = base + sl * _FIELDS + 2
                    if int(reg.view[pos]) != prev_stored:
                        reg.write(pos, prev_stored, payload=0, persist=True)
                    prev_stored = int(gidxs[i]) + 2
                    enc = int(rows[sl, 1])
                    chain_live += -1 if enc & int(TOMB_BIT) else 1
                va.set_el(v, int(gidxs[-1]) if mine.size else NO_EL)
                va.set_degree(v, int(va.degree[v]) - lost_v)
                st, ad = int(va.start[v]), int(va.array_degree[v])
                if not edge_dmg[st : st + ad].any():
                    run = g.ea.slots[st : st + ad]
                    tombs = int(np.count_nonzero((run > 0) & ((run & TOMB_BIT) != 0)))
                    va.set_live_degree(v, (ad - 2 * tombs) + chain_live)
                # else: the edge-array repair recomputes live_degree.
            valid_after = (rows != 0).all(axis=1)
            logs.live_counts[s] = int(valid_after.sum())
            # If the section's append frontier itself died, the cursor
            # shrinks to one past the last surviving non-empty entry —
            # exactly what an independent rebuild_counts() would infer.
            nonempty = (rows != 0).any(axis=1)
            logs.counts[s] = (
                int(nonempty.size - nonempty[::-1].argmax())
                if nonempty.any() else 0
            )
        if lost_by_vertex:
            g._touch_rows(list(lost_by_vertex))

        entries: List[QuarantineEntry] = []
        lost_total = sum(lost_by_vertex.values())
        attributed = False
        for off, n in parts:
            f0 = (off - reg.offset) // reg.itemsize
            g0 = f0 // _FIELDS
            g1 = ((off + n - reg.offset) // reg.itemsize + _FIELDS - 1) // _FIELDS
            below_cursor = any(
                (gg % eps) < int(counts_before[gg // eps]) for gg in range(g0, g1)
            )
            if not below_cursor:
                outcome, lv, vs = RepairOutcome.EXACT, (), ()
                detail = "unreached log slots re-zeroed"
            elif lost_total and not attributed:
                attributed = True
                outcome = RepairOutcome.LOSSY
                lv = tuple(sorted(lost_by_vertex.items()))
                vs = tuple(sorted(lost_by_vertex))
                detail = f"{lost_total} live log entries lost; chains re-linked"
            else:
                outcome, lv, vs = RepairOutcome.SCRUBBED, (), ()
                detail = "spent log slots re-zeroed"
            with trace("repair", region=reg.name, off=off, nbytes=n):
                annotate(outcome=outcome.value, lost_edges=sum(x for _, x in lv))
            entries.append(
                QuarantineEntry(
                    off=off, nbytes=n, region=reg.name, kind="edge-log",
                    outcome=outcome, vertices=vs,
                    lost_edges=sum(x for _, x in lv),
                    lost_by_vertex=lv, detail=detail,
                )
            )
        return entries

    # -- edge-array repair ---------------------------------------------------
    def _edge_slot_mask(self, edge_parts: List[Tuple[int, int]]) -> np.ndarray:
        ea = self.graph.ea
        mask = np.zeros(ea.capacity, dtype=bool)
        for off, n in edge_parts:
            lo = (off - ea.region.offset) // 4
            mask[lo : lo + n // 4] = True
        return mask

    def _repair_edge_array(self, parts: List[Tuple[int, int]]) -> List[QuarantineEntry]:
        """Lossy repair of the current-generation edge array.

        Damaged run slots are lost; each affected run is compacted in
        place (surviving slots first, trailing gaps), pivots are
        rewritten from ``va.start`` and gaps re-zeroed (both exact).
        Degrees come down by the loss; ``live_degree`` is recomputed
        from the surviving tombstone bits plus the vertex's (already
        repaired) log chain.
        """
        g = self.graph
        ea = g.ea
        va = g.va
        reg = ea.region
        nv = va.num_vertices
        dmg = self._edge_slot_mask(parts)

        # Snapshots: the loop below mutates va in place.
        start = va.start[:nv].copy()
        ad = va.array_degree[:nv].copy()
        piv = start - 1
        cov = np.zeros(ea.capacity, dtype=bool)  # slots we rewrote

        lost_by_vertex: Dict[int, int] = {}
        lo_touch, hi_touch = ea.capacity, 0
        affected = np.flatnonzero(
            (ad > 0) & (start < dmg.size) & dmg_any_in_runs(dmg, start, ad)
        )
        for v in affected.tolist():
            st, d = int(start[v]), int(ad[v])
            run_dmg = dmg[st : st + d]
            run = ea.slots[st : st + d]
            surv = run[~run_dmg].copy()
            lost_v = d - int(surv.size)
            new_run = np.zeros(d, dtype=SLOT_DTYPE)
            new_run[: surv.size] = surv
            reg.write_slice(st, new_run, payload=0, persist=True)
            cov[st : st + d] = True
            lo_touch, hi_touch = min(lo_touch, st), max(hi_touch, st + d)
            lost_by_vertex[v] = lost_by_vertex.get(v, 0) + lost_v
            va.set_array_degree(v, int(surv.size))
            va.set_degree(v, int(va.degree[v]) - lost_v)
            tombs = int(np.count_nonzero((surv > 0) & ((surv & TOMB_BIT) != 0)))
            chain_live = 0
            if int(va.el[v]) != NO_EL:
                _, _, encs = g.logs.walk_chain_arrays(int(va.el[v]))
                chain_live = int(
                    np.count_nonzero((encs & TOMB_BIT) == 0) - np.count_nonzero(encs & TOMB_BIT)
                )
            va.set_live_degree(v, (int(surv.size) - 2 * tombs) + chain_live)

        piv_dmg = np.flatnonzero((piv >= 0) & dmg[np.clip(piv, 0, dmg.size - 1)])
        for v in piv_dmg.tolist():
            p = int(piv[v])
            reg.write(p, np.int32(-(v + 1)), payload=0, persist=True)
            cov[p] = True
            lo_touch, hi_touch = min(lo_touch, p), max(hi_touch, p + 1)

        # Remaining damaged slots are inter-run gaps: re-zero them.
        gaps = np.flatnonzero(dmg & ~cov)
        if gaps.size:
            splits = np.flatnonzero(np.diff(gaps) > 1) + 1
            for seg in np.split(gaps, splits):
                a, b = int(seg[0]), int(seg[-1]) + 1
                self._zero(reg.byte_offset(a), (b - a) * 4)
                lo_touch, hi_touch = min(lo_touch, a), max(hi_touch, b)

        if hi_touch > lo_touch:
            ea.recount(lo_touch, hi_touch)
        if lost_by_vertex:
            g._touch_rows(list(lost_by_vertex))

        entries: List[QuarantineEntry] = []
        for off, n in parts:
            lo = (off - reg.offset) // 4
            hi = lo + n // 4
            vs: Dict[int, int] = {}
            for v in affected.tolist():
                st, d = int(start[v]), int(ad[v])
                k = int(dmg[max(st, lo) : min(st + d, hi)].sum()) if st < hi and st + d > lo else 0
                if k:
                    vs[v] = k
            lost = sum(vs.values())
            outcome = RepairOutcome.LOSSY if lost else RepairOutcome.EXACT
            detail = (
                f"{lost} live edge slots lost; runs compacted"
                if lost
                else "pivots/gaps rewritten byte-exactly"
            )
            with trace("repair", region=reg.name, off=off, nbytes=n):
                annotate(outcome=outcome.value, lost_edges=lost)
            entries.append(
                QuarantineEntry(
                    off=off, nbytes=n, region=reg.name, kind="edge-array",
                    outcome=outcome, vertices=tuple(sorted(vs)),
                    lost_edges=lost, lost_by_vertex=tuple(sorted(vs.items())),
                    detail=detail,
                )
            )
        return entries


def dmg_any_in_runs(dmg: np.ndarray, start: np.ndarray, ad: np.ndarray) -> np.ndarray:
    """Per-vertex: does ``[start, start+ad)`` contain a damaged slot?

    Vectorized via a prefix sum over the damage mask.
    """
    cum = np.zeros(dmg.size + 1, dtype=np.int64)
    np.cumsum(dmg, out=cum[1:])
    lo = np.clip(start, 0, dmg.size)
    hi = np.clip(start + ad, 0, dmg.size)
    return cum[hi] - cum[lo] > 0


__all__ = ["ResilienceManager"]
