"""Table 5 component ablation: insert time with DGAP's designs removed.

Incremental exclusions (paper §4.4): per-section edge logs, then the
per-thread undo log (replaced by PMDK-style transactions), then DRAM
placement of the vertex array + PMA metadata.  The ablated variants
persist per edge whatever the batch size, so the ratio base is DGAP at
batch 1; its group-commit arm is the extra labelled entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..datasets import SMALL_DATASETS
from .harness import (
    DEFAULT_BATCH_SIZE,
    PAPER_BATCH_SIZE,
    group_commit_label,
    load_stream,
    make_store,
    modeled_ingest,
    paper_batch_size,
)
from .reporting import format_table

VARIANTS = (
    ("dgap", {}),
    ("no_el", {"use_edge_log": False}),
    ("no_el_ul", {"use_edge_log": False, "use_undo_log": False}),
    ("no_el_ul_dp", {"use_edge_log": False, "use_undo_log": False, "dram_placement": False}),
)


@dataclass
class AblationTable:
    scale: float
    batch_size: Optional[int]
    #: dataset -> variant (VARIANTS order, then the group-commit label) -> modeled s
    seconds: Dict[str, Dict[str, float]]


def run(scale=0.5, batch_size=DEFAULT_BATCH_SIZE) -> AblationTable:
    arms = [(name, kw, paper_batch_size(name, batch_size)) for name, kw in VARIANTS]
    if batch_size != PAPER_BATCH_SIZE:
        arms.append((group_commit_label(batch_size), {}, batch_size))
    table: Dict[str, Dict[str, float]] = {}
    for ds in SMALL_DATASETS:
        nv, edges = load_stream(ds, scale)
        table[ds] = {}
        for name, kw, arm_bs in arms:
            g = make_store(nv, edges.shape[0], **kw)
            table[ds][name] = modeled_ingest(g, edges, arm_bs).modeled_ns * 1e-9
    return AblationTable(scale, batch_size, table)


def report(r: AblationTable):
    yield format_table(
        "Table 5 ablation (modeled seconds)",
        ["dataset", "variant", "insert time (s)"],
        [(ds, name, t) for ds, row in r.seconds.items() for name, t in row.items()],
        floatfmt="{:.4f}",
    )
