"""Design-choice ablation: VCSR's proportional gap distribution vs uniform.

Not a paper table — DESIGN.md calls this out as the load-bearing VCSR
idea DGAP builds on (§2.3: VCSR "distributed the gaps unevenly based on
historical workloads ... to improve performance").  On skewed streams,
uniform gaps starve hub vertices: their trailing room exhausts quickly,
pushing edges into logs and forcing merges; proportional gaps track the
insert distribution.
"""

from conftest import run_once
from repro import DGAP, DGAPConfig
from repro.bench import emit, format_table, paper_vs_measured
from repro.bench.harness import modeled_ingest
from repro.datasets import get_dataset

DATASETS_GD = ("orkut", "protein")


def test_gap_distribution_ablation(benchmark, scale):
    def run():
        out = {}
        for ds in DATASETS_GD:
            spec = get_dataset(ds)
            edges = spec.generate(scale)
            nv, _ = spec.sizes(scale)
            row = {}
            for strategy in ("proportional", "uniform"):
                g = DGAP(DGAPConfig(
                    init_vertices=nv, init_edges=edges.shape[0],
                    gap_distribution=strategy,
                ))
                d = modeled_ingest(g, map(tuple, edges))
                row[strategy] = (
                    d.modeled_ns * 1e-9,
                    g.n_log_inserts,
                    g.n_rebalances,
                )
            out[ds] = row
        return out

    out = run_once(benchmark, run)
    rows = []
    for ds, row in out.items():
        for strategy, (t, logs, rebal) in row.items():
            rows.append((ds, strategy, t, logs, rebal))
    emit(format_table(
        "Gap-distribution ablation (VCSR proportional vs uniform)",
        ["dataset", "strategy", "insert time (s)", "log inserts", "rebalances"],
        rows,
        floatfmt="{:.4f}",
    ))

    checks = []
    for ds, row in out.items():
        tp, logs_p, reb_p = row["proportional"]
        tu, logs_u, reb_u = row["uniform"]
        checks.append((
            f"{ds}: proportional gaps rebalance less",
            "<=", f"{reb_p} vs {reb_u}", reb_p <= reb_u,
        ))
        checks.append((
            f"{ds}: proportional gaps are faster (the VCSR design point)",
            "<", f"{tp:.4f} vs {tu:.4f}", tp < tu,
        ))
    emit(paper_vs_measured("gap-distribution ablation", checks))
    assert all(ok for *_, ok in checks)
