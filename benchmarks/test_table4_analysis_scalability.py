"""Table 4 — execution time of the four kernels at 1 and 16 threads.

Modeled seconds per system and dataset; scaling follows each charge's
Amdahl split.  The paper's CC observation — poor scaling on *every*
framework due to GAPBS's ``parallel for`` scheduling — appears here as
CC's larger modeled serial fraction (DESIGN.md §6).
"""

from conftest import run_once
from repro.bench import emit, format_table, kernels, paper_vs_measured
from repro.bench.harness import SYSTEM_ORDER
from repro.bench.paper_data import TABLE4_SECONDS

COLUMNS = ("csr",) + SYSTEM_ORDER
KERNELS = ("pr", "bfs", "bc", "cc")
#: the datasets the paper details in Table 4 that we print in full
DATASET_ORDER = ("orkut", "livejournal", "citpatents", "twitter", "friendster", "protein")


def test_table4_analysis_scalability(benchmark, scale):
    def run():
        table = {}
        for ds in DATASET_ORDER:
            for kernel in KERNELS:
                for name, t in kernels.run(ds, kernel, scale).seconds.items():
                    table[(kernel, ds, name)] = (t[1], t[16])
        return table

    table = run_once(benchmark, run)

    for kernel in KERNELS:
        rows = []
        for ds in DATASET_ORDER:
            row = [ds]
            for name in COLUMNS:
                t1, t16 = table[(kernel, ds, name)]
                row.append(f"{t1*1e3:.2f}/{t16*1e3:.2f}")
            rows.append(row)
        emit(format_table(
            f"Table 4 ({kernel.upper()}): measured modeled ms, T1/T16",
            ["dataset"] + list(COLUMNS),
            rows,
        ))
        prows = []
        for ds in DATASET_ORDER:
            data = TABLE4_SECONDS[kernel].get(ds)
            if data:
                prows.append([ds] + [f"{data[s][0]}/{data[s][1]}" for s in COLUMNS])
        if prows:
            emit(format_table(
                f"Table 4 ({kernel.upper()}): paper seconds, T1/T16",
                ["dataset"] + list(COLUMNS),
                prows,
            ))

    checks = []
    for kernel, lo, hi in (("pr", 9, 16), ("bfs", 8, 16), ("bc", 9, 16), ("cc", 3, 9)):
        t1, t16 = table[(kernel, "orkut", "dgap")]
        sp = t1 / t16
        paper_note = {"pr": "14.3x", "bfs": "13.6x", "bc": "15.6x", "cc": "4.7x"}[kernel]
        checks.append((
            f"DGAP {kernel} 16T speedup (paper up to {paper_note})",
            paper_note, sp, lo < sp <= hi,
        ))
    # CC scales worst for every system (paper §4.3.1)
    for name in COLUMNS:
        cc_sp = table[("cc", "orkut", name)][0] / table[("cc", "orkut", name)][1]
        pr_sp = table[("pr", "orkut", name)][0] / table[("pr", "orkut", name)][1]
        checks.append((
            f"{name}: CC scales worse than PR (paper: all systems)",
            "cc < pr", f"{cc_sp:.1f} vs {pr_sp:.1f}", cc_sp < pr_sp,
        ))
    emit(paper_vs_measured("table4 structure", checks))
    assert all(ok for *_, ok in checks)
