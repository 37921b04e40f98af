"""Fig. 9 — impact of the per-section edge-log size (ELOG_SZ).

Sweeps ELOG_SZ from 64 B to 16 KB on the Orkut and LiveJournal proxies,
reporting the total PM space the logs occupy, their peak utilization
during insertion, and the insert time.  The paper's findings: space
grows proportionally, utilization falls from ~81% to ~6%, insert time
improves with diminishing returns past 2 KB (the chosen default).

Insert time is measured on DGAP's per-edge persist arm (batch 1), the
protocol the paper's Fig. 9 timed: group commit (DESIGN.md §5) shrinks
the fixed per-edge cost, which would inflate the *relative* weight of
the merge traffic this sweep varies.
"""

from conftest import run_once
from repro import DGAP, DGAPConfig
from repro.bench import emit, format_table, paper_vs_measured
from repro.bench.harness import PAPER_BATCH_SIZE, modeled_ingest
from repro.bench.paper_data import FIG9_ELOG_SIZES
from repro.datasets import get_dataset

DATASETS_F9 = ("orkut", "livejournal")


def test_fig9_elog_size_sweep(benchmark, scale):
    def run():
        out = {}
        for ds in DATASETS_F9:
            spec = get_dataset(ds)
            edges = spec.generate(scale)
            nv, _ = spec.sizes(scale)
            series = []
            for elog in FIG9_ELOG_SIZES:
                g = DGAP(DGAPConfig(
                    init_vertices=nv, init_edges=edges.shape[0], elog_size=elog
                ))
                d = modeled_ingest(g, edges, PAPER_BATCH_SIZE)
                logs = g.logs
                utilization = float(logs.peak_counts.mean()) / logs.entries_per_section
                space_mb = logs.region.nbytes / 1e6
                series.append((elog, space_mb, 100 * utilization, d.modeled_ns * 1e-9))
            out[ds] = series
        return out

    out = run_once(benchmark, run)
    for ds, series in out.items():
        emit(format_table(
            f"Fig 9 ({ds}): ELOG_SZ sweep",
            ["ELOG_SZ (B)", "log space (MB)", "peak utilization (%)", "insert time (s)"],
            series,
        ))

    checks = []
    for ds, series in out.items():
        util = [u for _, _, u, _ in series]
        times = [t for *_, t in series]
        space = [s for _, s, _, _ in series]
        checks.append((
            f"{ds}: utilization falls as logs grow (paper 81% -> 5.6%)",
            "monotone-ish", f"{util[0]:.0f}% -> {util[-1]:.0f}%", util[0] > 2 * util[-1],
        ))
        checks.append((
            f"{ds}: log space grows with ELOG_SZ",
            "proportional", f"{space[0]:.2f} -> {space[-1]:.2f} MB", space[-1] > 10 * space[0],
        ))
        t64 = times[0]
        t2k = times[FIG9_ELOG_SIZES.index(2048)]
        t16k = times[-1]
        checks.append((
            f"{ds}: larger logs reduce insert time (paper)",
            "t(64B) > t(2KB)", f"{t64:.3f} vs {t2k:.3f}", t64 > t2k,
        ))
        checks.append((
            f"{ds}: diminishing returns past 2KB (paper: default)",
            "small", f"{(t2k - t16k) / t2k * 100:.1f}% further gain",
            (t2k - t16k) / t2k < 0.25,
        ))
    emit(paper_vs_measured("fig9 structure", checks))
    assert all(ok for *_, ok in checks)
