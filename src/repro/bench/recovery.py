"""§4.4 recovery: normal restart vs crash recovery, modeled ms.

A normal restart reloads the persisted ``meta.*``; crash recovery
rescans the edge array and the logs.  Each dataset is ingested through
the array path, shut down, reopened (normal), crashed and reopened
again (recovery).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from ..core.dgap import DGAP
from .harness import DEFAULT_BATCH_SIZE, load_stream, make_store
from .reporting import format_table

#: the §4.4 table; ``--dataset`` selects one of them (or any other proxy)
RECOVERY_DATASETS = ("citpatents", "livejournal", "orkut", "protein")

Row = Tuple[str, int, float, float]  #: dataset, edges, normal ms, crash ms


def run(
    dataset: Union[str, Sequence[str]] = RECOVERY_DATASETS,
    scale=0.5,
    batch_size=DEFAULT_BATCH_SIZE,
) -> List[Row]:
    rows = []
    for ds in (dataset,) if isinstance(dataset, str) else dataset:
        nv, edges = load_stream(ds, scale)
        g = make_store(nv, edges.shape[0])
        g.insert_edges(edges, batch_size=batch_size)
        total = g.num_edges
        g.shutdown()
        before = g.pool.stats.snapshot()
        g2 = DGAP.open(g.pool, g.config)
        normal = g.pool.stats.delta_since(before).modeled_ns * 1e-6
        g2.pool.crash()
        before = g2.pool.stats.snapshot()
        g3 = DGAP.open(g2.pool, g2.config)
        crash = g2.pool.stats.delta_since(before).modeled_ns * 1e-6
        if g3.num_edges != total:
            raise AssertionError(
                f"{ds}: recovery lost edges ({g3.num_edges} of {total})"
            )
        rows.append((ds, total, normal, crash))
    return rows


def report(rows: List[Row]):
    yield format_table(
        "Recovery: normal restart vs crash recovery (modeled ms)",
        ["dataset", "edges", "normal restart (ms)", "crash recovery (ms)"],
        [(d, e, f"{n:.3f}", f"{c:.3f}") for d, e, n, c in rows],
    )
