"""Table 3 — insert throughput (MEPS) with 1 / 8 / 16 writer threads.

Thread counts are evaluated through the insert scaling model (Amdahl
serialization + the Optane media-write-bandwidth ceiling; DESIGN.md §1).
XPGraph gets its Table 3 special case: for datasets whose *real* edge
stream fits the default 8 GB circular edge log, archiving never
activates at high thread counts and XPGraph scales exceptionally —
while on the billion-edge graphs DGAP wins (paper §4.2.1).

Every compared system persists per edge, so DGAP's ratio rows run its
per-edge arm (batch 1); the default-batch, group-committing DGAP
(DESIGN.md §5) is an extra labelled column.
"""

from conftest import run_once
from repro.bench import emit, format_table, get_built_system, insert, paper_vs_measured
from repro.bench.harness import SYSTEM_ORDER, group_commit_label
from repro.bench.paper_data import TABLE3_MEPS
from repro.datasets import PAPER_DATASETS

GROUP_COMMIT = group_commit_label()  # extra column, outside the ratios
THREADS = (1, 8, 16)


def test_table3_insert_scalability(benchmark, scale):
    # The ``insert`` arm runs XPGraph as Table 3's numbers show it
    # (archiving active).  The paper's §4.2.1 *text* attributes
    # exceptional 16-thread results to the 8 GB log absorbing the small
    # graphs, but its Table 3 numbers show XPGraph below DGAP at T16
    # everywhere — we follow the numbers and report the no-archive mode
    # separately below.
    arms = run_once(
        benchmark, lambda: {ds: insert.run(ds, scale) for ds in PAPER_DATASETS}
    )
    table = {
        ds: {s: tuple(r.per_edge[s].meps(p) for p in THREADS) for s in SYSTEM_ORDER}
        for ds, r in arms.items()
    }
    extra = {ds: r.group for ds, r in arms.items()}

    for p_i, p in enumerate(THREADS):
        rows = [
            [ds] + [table[ds][s][p_i] for s in SYSTEM_ORDER] + [extra[ds].meps(p)]
            for ds in table
        ]
        rows_paper = [[ds] + [TABLE3_MEPS[ds][s][p_i] for s in SYSTEM_ORDER] for ds in TABLE3_MEPS]
        emit(format_table(
            f"Table 3 (T{p}): measured MEPS (per-edge persist; {GROUP_COMMIT} = group commit)",
            ["dataset"] + list(SYSTEM_ORDER) + [GROUP_COMMIT], rows,
        ))
        emit(format_table(f"Table 3 (T{p}): paper MEPS", ["dataset"] + list(SYSTEM_ORDER), rows_paper))

    checks = []
    for ds in table:
        d1, _, d16 = table[ds]["dgap"]
        speedup = d16 / d1
        paper_speedup = TABLE3_MEPS[ds]["dgap"][2] / TABLE3_MEPS[ds]["dgap"][0]
        checks.append((f"{ds}: DGAP 16T speedup (paper {paper_speedup:.1f}x, up to 4.3x)",
                       f"{paper_speedup:.2f}", speedup, 1.8 < speedup < 6.0))
        # LLAMA scales worst of all systems (single-threaded snapshotting)
        llama_speedup = table[ds]["llama"][2] / table[ds]["llama"][0]
        checks.append((f"{ds}: LLAMA scales worst", "<others",
                       llama_speedup,
                       llama_speedup <= min(table[ds][s][2] / table[ds][s][0]
                                            for s in SYSTEM_ORDER)))
    # small-graph XPGraph anomaly (§4.2.1 text): with the whole stream in
    # the 8 GB circular log, archiving never activates and XPGraph's pure
    # sequential appends scale exceptionally, beating DGAP at 16T
    for ds in ("orkut", "livejournal", "citpatents"):
        _, ins_fit = get_built_system("xpgraph", ds, scale=scale, log_capacity_edges=None)
        checks.append((
            f"{ds}: XPGraph no-archive mode beats DGAP at 16T (8GB log fits)",
            "xp > dgap",
            ins_fit.meps(16) / table[ds]["dgap"][2],
            ins_fit.meps(16) > table[ds]["dgap"][2],
        ))
    # big graphs: DGAP beats XPGraph at 16T (paper: 12-21% better)
    for ds in ("twitter", "friendster", "protein"):
        checks.append((
            f"{ds}: DGAP > XPGraph at 16T (paper +12-21%)",
            "1.12-1.21",
            table[ds]["dgap"][2] / table[ds]["xpgraph"][2],
            table[ds]["dgap"][2] > table[ds]["xpgraph"][2],
        ))
    emit(paper_vs_measured("table3 structure", checks))
    assert all(ok for *_, ok in checks)
