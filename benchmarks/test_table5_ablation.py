"""Table 5 — DGAP component ablation: insert time with designs removed.

Incremental exclusions (paper §4.4): per-section edge logs ("No EL"),
then the per-thread undo log, replaced by PMDK transactions ("No
EL&UL"), then DRAM placement of vertex array + PMA metadata ("No
EL&UL&DP").  The paper reports the small trio of datasets; the expected
structure is monotone degradation, with the edge log the largest
contributor and DRAM placement roughly doubling the remainder.

The ablated variants persist per edge whatever the batch size, so the
ratio base is DGAP's per-edge arm (batch 1); the default-batch,
group-committing DGAP (DESIGN.md §5) is an extra labelled column.
"""

from conftest import run_once
from repro.bench import ablation, emit, format_table, paper_vs_measured
from repro.bench.harness import group_commit_label
from repro.bench.paper_data import TABLE5_SECONDS

GROUP_COMMIT = group_commit_label()  # extra column, outside the ratios


def test_table5_component_ablation(benchmark, scale):
    table = run_once(benchmark, lambda: ablation.run(scale)).seconds

    names = [n for n, _ in ablation.VARIANTS]
    rows = [[ds] + [table[ds][n] for n in names + [GROUP_COMMIT]] for ds in table]
    emit(format_table(
        "Table 5: insert time by DGAP variant (measured modeled seconds; "
        f"per-edge persist, {GROUP_COMMIT} = group commit)",
        ["dataset"] + names + [GROUP_COMMIT],
        rows,
        floatfmt="{:.3f}",
    ))
    emit(format_table(
        "Table 5: paper seconds (real hardware, full datasets)",
        ["dataset"] + names,
        [[ds] + [TABLE5_SECONDS[ds][n] for n in names] for ds in TABLE5_SECONDS],
    ))

    checks = []
    for ds in table:
        t = table[ds]
        checks.append((
            f"{ds}: removing the edge log hurts (paper 4.5x)",
            "4.5x", t["no_el"] / t["dgap"], t["no_el"] > 1.1 * t["dgap"],
        ))
        checks.append((
            f"{ds}: PMDK tx worse than undo log (paper ~2-13%)",
            ">=1x", t["no_el_ul"] / t["no_el"], t["no_el_ul"] >= 0.98 * t["no_el"],
        ))
        checks.append((
            f"{ds}: PM-placed metadata ~doubles again (paper ~1.5-2x)",
            "1.53x", t["no_el_ul_dp"] / t["no_el_ul"],
            t["no_el_ul_dp"] > 1.3 * t["no_el_ul"],
        ))
    emit(paper_vs_measured("table5 structure", checks))
    assert all(ok for *_, ok in checks)
