"""Fig. 6 / Table 3 insert throughput: five systems + DGAP's group-commit arm.

Every compared system persists per edge, so the ratio rows run DGAP at
batch 1 (the paper's ``store; clwb; sfence`` protocol); DGAP at the
requested batch size — commit groups, DESIGN.md §5 — is the extra
labelled row outside the ratios.  The gates pin what batching buys on
deterministic quantities: modeled throughput, and the fence count that
the deleted wall-clock floor was a proxy for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .harness import (
    DEFAULT_BATCH_SIZE,
    PAPER_BATCH_SIZE,
    SYSTEM_ORDER,
    InsertResult,
    get_built_system,
    group_commit_label,
    paper_batch_size,
)
from .reporting import format_table, ingest_phase_table

#: group commit must buy at least this much modeled throughput over the
#: per-edge arm (measured 1.30x-1.51x across the six proxies at scale
#: 1.0, more on smaller graphs)
MIN_GROUP_COMMIT_GAIN = 1.25
#: ... and issue at least this many times fewer fences per edge (one
#: fence per edge vs ~2 per round: 1.005 -> 0.009 on the orkut proxy)
MIN_FENCE_REDUCTION = 10.0


@dataclass
class InsertArms:
    """One dataset's timed ingest windows."""

    dataset: str
    scale: float
    batch_size: Optional[int]
    per_edge: Dict[str, InsertResult]  #: system -> result, SYSTEM_ORDER
    group: Optional[InsertResult]  #: DGAP at ``batch_size`` (None at batch 1)


def fences_per_edge(ins: InsertResult) -> float:
    return ins.counters["timed_fences"] / ins.edges_timed


def run(dataset="orkut", scale=1.0, batch_size=DEFAULT_BATCH_SIZE) -> InsertArms:
    def built(name, bs):
        return get_built_system(name, dataset, scale=scale, batch_size=bs)[1]

    return InsertArms(
        dataset, scale, batch_size,
        per_edge={n: built(n, paper_batch_size(n, batch_size)) for n in SYSTEM_ORDER},
        group=None if batch_size == PAPER_BATCH_SIZE else built("dgap", batch_size),
    )


def report(r: InsertArms):
    results = dict(r.per_edge)
    if r.group is not None:
        results[group_commit_label(r.batch_size)] = r.group
    yield format_table(
        f"insert throughput — {r.dataset} (scale {r.scale}, batch {r.batch_size or 'all'})",
        ["system", "MEPS T1", "MEPS T8", "MEPS T16", "write amp"],
        [
            (label, i.meps(1), i.meps(8), i.meps(16), i.write_amplification)
            for label, i in results.items()
        ],
    )
    yield ingest_phase_table(results.values())
    if r.group is not None:
        wall = r.per_edge["dgap"].wall_s / max(r.group.wall_s, 1e-12)
        yield (f"timed wall speedup, {group_commit_label(r.batch_size)} vs "
               f"per-edge DGAP: {wall:.1f}x (printed, not gated)")


def gates(r: InsertArms):
    if r.group is None:
        return []
    one, grp = r.per_edge["dgap"], r.group
    gain = grp.meps(1) / one.meps(1)
    f_one, f_grp = fences_per_edge(one), fences_per_edge(grp)
    fewer = f_one / max(f_grp, 1e-12)
    label = group_commit_label(r.batch_size)
    return [
        (f"group-commit gain in modeled MEPS ({label} vs batch 1)",
         f">={MIN_GROUP_COMMIT_GAIN:g}x", gain, gain >= MIN_GROUP_COMMIT_GAIN),
        (f"fences per edge, batch 1 over {label}",
         f">={MIN_FENCE_REDUCTION:g}x", f"{fewer:.0f}x ({f_one:.3f} -> {f_grp:.4f})",
         fewer >= MIN_FENCE_REDUCTION),
    ]
