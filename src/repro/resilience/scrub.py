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
                    (exact); damaged *run* slots are lost — zeroed, and
                    their section rewritten without them (**lossy**)
``elogs.g<cur>``    slots at/past the append cursor are zeros (exact),
                    spent ones too (scrubbed); damaged live entries are
                    lost — zeroed, and their section rewritten: the
                    surviving entries merge into their runs, the owner
                    is whoever's chain came up short (**lossy**)
``vertexarr.*``     rewritten from the authoritative DRAM cache (exact)
``segocc.g<cur>``   rewritten from DRAM ``seg_occ`` (exact)
``meta.*``          shutdown-only snapshot: zeroed, regenerated at the
                    next shutdown (scrubbed)
``ulog.*``          quiescent between operations: reset to idle
                    (scrubbed); an ACTIVE committed backup payload is
                    unrecoverable
``rebal.scratch``   dead between operations (scrubbed) unless a
                    COPYBACK names it as source (unrecoverable)
dead generations    freed at the root flip that retires them, so their
                    bytes are unallocated space (scrubbed); one a failed
                    switch left registered is zeroed (scrubbed) unless a
                    COPYBACK names it as source (unrecoverable)
pool metadata       magic/roots/cursor rewritten from DRAM authority
                    (scrubbed — the shutdown hint may differ)
unknown             unrecoverable → READ_ONLY
=================== =====================================================

A lossy repair writes no layout of its own: the scrubber clears the
damaged bytes and ``Rebalancer.repair_sections`` rewrites the sections
that lost something through the one rebalance pipeline, so it is
crash-consistent under the same undo-log protocol as a log merge
(swept in ``tests/test_resilience.py::TestCrashDuringRepair``).

Health only worsens: HEALTHY → DEGRADED on the first lossy repair,
→ READ_ONLY on the first unrecoverable range.  Transitions and repairs
are traced (``repro.obs`` spans), so ``bench profile`` attributes their
modeled time exactly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.encoding import encode_pivot
from ..core.recovery import dead_state
from ..errors import MediaError, ReadOnlyGraphError
from ..nputil import distinct
from ..obs.tracer import annotate, trace
from ..pmem.pool import DATA_OFF
from .quarantine import (
    OUTCOME_HEALTH,
    DamageReport,
    HealthState,
    QuarantineEntry,
    QuarantineRegistry,
    RepairOutcome,
)

#: Repair-and-retry attempts a guarded operation makes before giving up.
MAX_RETRIES = 3

#: How a quarantine entry words each region kind ``dead_state`` judges,
#: by the first component of the region name:
#: ``(kind, detail when dead, detail when lost)``.
_DEAD_STATE_KINDS = {
    "meta": ("shutdown-metadata",
             "stale shutdown snapshot; regenerated at next shutdown", ""),
    "edges": ("dead-generation", "", "committed generation image lost"),
    "segocc": ("dead-generation", "", ""),
    "ulog": ("undo-log", "", "committed ACTIVE backup payload lost"),
    "rebal": ("scratch", "", "COPYBACK source image lost"),
}


class ResilienceManager:
    """Runtime fault tolerance for one live DGAP instance."""

    def __init__(self, graph, patrol_bytes: int = 64 * 1024):
        self.graph = graph
        self.pool = graph.pool
        self.dev = graph.pool.device
        self.registry = QuarantineRegistry()
        self.health = HealthState.HEALTHY
        self.patrol_bytes = int(patrol_bytes)
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
    def guarded_insert_edge(self, src: int, dst: int) -> List[QuarantineEntry]:
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
        for _ in range(MAX_RETRIES + 1):
            known = src < g.va.num_vertices
            d0 = int(g.va.degree[src]) if known else 0
            try:
                if not landed:
                    g.insert_edge(src, dst)
                else:
                    sec = g.ea.section_of(int(g.va.start[src]) - 1)
                    if g.logs.counts[sec] >= g.logs.merge_at:
                        g.rebalancer.merge_section(sec)
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
            f"{MAX_RETRIES} repair attempts"
        )

    def analyze(self, kernel: Callable) -> Tuple[object, DamageReport]:
        """Run ``kernel(snapshot)`` with repair-retry; returns
        ``(result, DamageReport)`` instead of raising mid-kernel."""
        g = self.graph
        for _ in range(MAX_RETRIES + 1):
            try:
                with g.consistent_view() as snap:
                    result = kernel(snap)
                return result, self.damage_report()
            except MediaError as err:
                self.handle_media_error(err)
        raise MediaError(
            f"analysis kept faulting after {MAX_RETRIES} repair attempts"
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
        edges_name, elogs_name = g.ea.region.name, g.logs.region.name
        edge_parts = [(o, n) for o, n, nm in parts if nm == edges_name]
        log_parts = [(o, n) for o, n, nm in parts if nm == elogs_name]
        other = [(o, n, nm) for o, n, nm in parts if nm not in (edges_name, elogs_name)]

        entries: List[QuarantineEntry] = []
        with self.dev.suspend_runtime_faults():
            # Generic regions first: the structural repair commits through
            # an undo log (or the PMDK journal) they may have to unblock.
            for off, n, name in other:
                with trace("repair", region=name or "pool", off=off, nbytes=n):
                    e = self._repair_generic(off, n, name)
                    annotate(outcome=e.outcome.value)
                entries.append(e)
            self._repair_structure(edge_parts, log_parts, entries)
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

    def _rewrite(self, off: int, data: np.ndarray) -> None:
        """Media rewrite: clears the poison of every line it covers whole."""
        self.dev.ntstore(off, data, payload=0)
        self.dev.sfence()

    def _zero(self, off: int, n: int) -> None:
        self._rewrite(off, np.zeros(n, dtype=np.uint8))

    # -- generic (non-structural) regions ----------------------------------
    def _repair_generic(self, off: int, n: int, name: Optional[str]) -> QuarantineEntry:
        g = self.graph

        def entry(kind: str, outcome: RepairOutcome, detail: str = "") -> QuarantineEntry:
            return QuarantineEntry(
                off=off, nbytes=n, region=name or kind, kind=kind,
                outcome=outcome, detail=detail,
            )

        if name is None:
            if off < DATA_OFF:
                self._rewrite(off, self.pool.header_bytes(g.geometry_roots())[off : off + n])
                return entry(
                    "pool-metadata", RepairOutcome.SCRUBBED,
                    "rewritten from DRAM authority",
                )
            self._zero(off, n)
            return entry("unallocated", RepairOutcome.SCRUBBED)

        if name.startswith("vertexarr."):
            if g.va.rewrite_mirror(name, off, n):
                return entry(
                    "vertex-metadata", RepairOutcome.EXACT,
                    f"field {name.split('.')[1]!r} rewritten from DRAM cache",
                )
            self._zero(off, n)
            return entry("dead-generation", RepairOutcome.SCRUBBED)

        if g.ea.rewrite_mirror(name, off, n):
            return entry(
                "pma-metadata", RepairOutcome.EXACT, "rewritten from DRAM seg_occ"
            )

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

    # -- the live edge array and edge logs ----------------------------------
    def _repair_structure(
        self,
        edge_parts: List[Tuple[int, int]],
        log_parts: List[Tuple[int, int]],
        entries: List[QuarantineEntry],
    ) -> None:
        """Repair the damaged parts of the current-generation edge array
        and edge logs, appending one entry per part.

        The bytes are lost, so every part is first rewritten with what
        is known without them — zeros, the exact content of a gap and of
        an unreached or spent log slot, and the pivots ``va.start``
        places there, each in the same store as the zeros around it so
        that no crash finds a run without its pivot.  That clears the
        poison (straddling lines are completed next: the rewrite below
        reads through the device) and leaves a hole wherever a *live*
        run slot or log entry was.  The sections with holes go to
        ``Rebalancer.repair_sections`` — a filtered window rewrite under
        the rebalance crash protocol — which reports what each vertex
        lost.  What each *part* hit is judged here from its byte range
        and the DRAM metadata as they were; no slot or entry is decoded.
        """
        g = self.graph
        ea, logs = g.ea, g.logs
        width = ea.region.itemsize
        start = g.va.starts().copy()
        end = start + g.va.array_degree[: start.size]
        cursors, live = logs.counts.copy(), logs.live_counts.copy()

        spent = []  # per log part: did it reach below its section's cursor?
        for off, n in log_parts:
            sec, slot = logs.locate(logs.entries_at(off, n))
            spent.append(bool((slot < cursors[sec]).any()))
            self._zero(off, n)
            logs.rescan(distinct(sec))
        sections = set(np.flatnonzero(logs.live_counts < live).tolist())
        log_lost = int((live - logs.live_counts).sum())

        run_lost = []  # per edge part: {vertex: run slots under the part}
        for off, n in edge_parts:
            lo = (off - ea.region.offset) // width
            hi = lo + n // width
            image = np.zeros(hi - lo, dtype=ea.slots.dtype)
            placed = np.flatnonzero((start > lo) & (start <= hi))
            image[start[placed] - 1 - lo] = encode_pivot(placed)
            self._rewrite(off, image.view(np.uint8))
            under = np.minimum(end, hi) - np.maximum(start, lo)
            vs = np.flatnonzero(under > 0)
            run_lost.append(dict(zip(vs.tolist(), under[vs].tolist())))
            sections.update((np.maximum(start[vs], lo) // ea.segment_slots).tolist())
        self._finish_straddling_lines(entries)

        lost = g.rebalancer.repair_sections(sections) if sections else {}
        if lost:
            g._touch_rows(sorted(lost))
        # The pipeline's losses are the damage's: a vertex lost the run
        # slots under the parts, and whatever else it lost were log entries.
        chain_lost = dict(lost)
        for part in run_lost:
            for v, k in part.items():
                chain_lost[v] -= k
        chain_lost = {v: k for v, k in chain_lost.items() if k}
        assert min(chain_lost.values(), default=1) > 0
        assert sum(chain_lost.values()) == log_lost

        def entry(part, region, kind, outcome, by_vertex, detail):
            off, n = part
            n_lost = sum(by_vertex.values())
            with trace("repair", region=region.name, off=off, nbytes=n):
                annotate(outcome=outcome.value, lost_edges=n_lost)
            entries.append(
                QuarantineEntry(
                    off=off, nbytes=n, region=region.name, kind=kind, outcome=outcome,
                    vertices=tuple(sorted(by_vertex)), lost_edges=n_lost,
                    lost_by_vertex=tuple(sorted(by_vertex.items())), detail=detail,
                )
            )

        for part, below_cursor in zip(log_parts, spent):
            if not below_cursor:
                entry(part, logs.region, "edge-log", RepairOutcome.EXACT, {},
                      "unreached log slots re-zeroed")
            elif chain_lost:  # every log loss of this pass, on its first such part
                entry(part, logs.region, "edge-log", RepairOutcome.LOSSY, chain_lost,
                      f"{log_lost} live log entries lost; survivors merged into their runs")
                chain_lost = {}
            else:
                entry(part, logs.region, "edge-log", RepairOutcome.SCRUBBED, {},
                      "spent log slots re-zeroed")
        for part, by_vertex in zip(edge_parts, run_lost):
            if by_vertex:
                entry(part, ea.region, "edge-array", RepairOutcome.LOSSY, by_vertex,
                      f"{sum(by_vertex.values())} live edge slots lost; runs rewritten without them")
            else:
                entry(part, ea.region, "edge-array", RepairOutcome.EXACT, {},
                      "pivots/gaps rewritten byte-exactly")


__all__ = ["ResilienceManager"]
