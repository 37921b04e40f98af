"""Fig. 7/8 / Table 4 kernel comparison: static CSR + the five systems.

One kernel on one dataset, every system's own analysis view of the
fully ingested graph, modeled seconds at 1 and 16 threads.  BFS/BC start
from the dataset's deterministic hub (:func:`pick_source`); PR/CC ignore
the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..datasets import PAPER_DATASETS
from .harness import SYSTEM_ORDER, get_built_system, get_static_csr, pick_source, run_kernel
from .paper_data import TABLE4_SECONDS
from .reporting import format_table


@dataclass
class KernelTimes:
    dataset: str
    kernel: str
    scale: float
    #: system ("csr" first, then SYSTEM_ORDER) -> {threads: modeled seconds}
    seconds: Dict[str, Dict[int, float]]

    def vs_csr(self, system: str) -> float:
        """Single-thread modeled time relative to the static CSR's."""
        return self.seconds[system][1] / self.seconds["csr"][1]


def run(dataset="orkut", kernel="pr", scale=1.0) -> KernelTimes:
    src = pick_source(dataset, scale)
    views = {"csr": get_static_csr(dataset, scale).analysis_view()}
    for name in SYSTEM_ORDER:
        views[name] = get_built_system(name, dataset, scale=scale)[0].analysis_view()
    return KernelTimes(
        dataset, kernel, scale,
        {name: run_kernel(view, kernel, source=src) for name, view in views.items()},
    )


def normalized(kernel: str, scale: float) -> Dict[str, Dict[str, float]]:
    """Fig. 7/8 series: dataset -> system -> T1 time over static CSR's."""
    table = {}
    for ds in PAPER_DATASETS:
        times = run(ds, kernel, scale)
        table[ds] = {name: times.vs_csr(name) for name in times.seconds}
    return table


def report_normalized(fig: str, kernel: str, table):
    """Fig. 7/8 tables: the measured series, then the paper's (Table 4 T1)."""
    head = ["dataset", *SYSTEM_ORDER]
    yield format_table(
        f"{fig} ({kernel.upper()}): time normalized to CSR on PM "
        "(measured; smaller is better)",
        head, [[ds] + [table[ds][s] for s in SYSTEM_ORDER] for ds in table],
    )
    paper = TABLE4_SECONDS[kernel]
    prows = [
        [ds] + [f"{paper[ds][s][0] / paper[ds]['csr'][0]:.2f}" for s in SYSTEM_ORDER]
        for ds in table if paper.get(ds)
    ]
    if prows:
        yield format_table(f"{fig} ({kernel.upper()}): paper ratios (Table 4 T1)", head, prows)


def report(r: KernelTimes):
    yield format_table(
        f"{r.kernel.upper()} — {r.dataset} (scale {r.scale}, modeled, 1 thread)",
        ["system", "time (ms)", "vs CSR"],
        [(name, t[1] * 1e3, r.vs_csr(name)) for name, t in r.seconds.items()],
    )
