"""Fig. 6 — single-writer-thread insert throughput, 5 systems x 6 graphs.

The paper's protocol: shuffled stream, first 10% warm-up, remaining 90%
timed; throughput in million edges per second (MEPS).  Every compared
system persists per edge, so the DGAP column of the ratio checks is its
per-edge arm (batch 1); the default-batch, group-committing DGAP
(DESIGN.md §5) is an extra labelled column.  A companion check pins what
batching buys: a wall-clock speedup and a floor on the group-commit gain
in modeled throughput.
"""

import json
import pathlib

from conftest import run_once
from repro.bench import (
    emit,
    format_table,
    get_built_system,
    ingest,
    ingest_phase_table,
    paper_vs_measured,
)
from repro.bench.harness import DEFAULT_BATCH_SIZE, build_system, paper_batch_size
from repro.bench.paper_data import FIG6_MEPS
from repro.datasets import PAPER_DATASETS, get_dataset

SYSTEM_ORDER = ("dgap", "bal", "llama", "graphone", "xpgraph")
GROUP_COMMIT = f"dgap@{DEFAULT_BATCH_SIZE}"  # extra column, outside the ratios

#: group commit must buy at least this much modeled throughput over the
#: per-edge arm (measured 1.41x on the orkut proxy at scale 1.0, more on
#: smaller graphs)
MIN_GROUP_COMMIT_GAIN = 1.25

BASELINE_JSON = pathlib.Path(__file__).parent / "baselines" / "fig6_insert_batch.json"


def test_fig6_insert_throughput(benchmark, scale):
    def run():
        table = {}
        for ds in PAPER_DATASETS:
            table[ds] = {}
            for name in SYSTEM_ORDER:
                _, ins = get_built_system(
                    name, ds, scale=scale, batch_size=paper_batch_size(name)
                )
                table[ds][name] = ins.meps(1)
        return table

    table = run_once(benchmark, run)
    # the default-batch arm, ingested anyway for the analysis figures
    extra = {ds: get_built_system("dgap", ds, scale=scale)[1].meps(1) for ds in table}

    rows = [
        [ds] + [table[ds][s] for s in SYSTEM_ORDER]
        + [max(table[ds], key=table[ds].get), extra[ds]]
        for ds in table
    ]
    emit(format_table(
        "Fig 6: single-thread insert throughput (MEPS, measured; "
        "every system persists per edge, DGAP at batch 1)",
        ["dataset"] + list(SYSTEM_ORDER) + ["best", GROUP_COMMIT],
        rows,
    ))
    rows_p = [[ds] + [FIG6_MEPS[ds][s] for s in SYSTEM_ORDER] for ds in FIG6_MEPS]
    emit(format_table(
        "Fig 6: paper-reported MEPS (real hardware, full datasets)",
        ["dataset"] + list(SYSTEM_ORDER),
        rows_p,
    ))

    checks = []
    for ds in table:
        best = max(table[ds].values())
        checks.append((
            f"{ds}: DGAP best or near-best (paper)",
            "top/~top",
            f"dgap={table[ds]['dgap']:.2f} best={best:.2f}",
            table[ds]["dgap"] >= 0.75 * best,
        ))
        checks.append((
            f"{ds}: DGAP beats GraphOne (paper: up to 2.5x)",
            ">1x",
            table[ds]["dgap"] / table[ds]["graphone"],
            table[ds]["dgap"] > table[ds]["graphone"],
        ))
        checks.append((
            f"{ds}: DGAP beats LLAMA (paper: up to 6x)",
            ">1x",
            table[ds]["dgap"] / table[ds]["llama"],
            table[ds]["dgap"] > table[ds]["llama"],
        ))
        checks.append((
            f"{ds}: group commit only helps ({GROUP_COMMIT} vs per-edge DGAP)",
            ">=1x", extra[ds] / table[ds]["dgap"], extra[ds] >= table[ds]["dgap"],
        ))
    emit(paper_vs_measured("fig6 structure", checks))
    assert all(ok for *_, ok in checks)
    # LLAMA's vertex-table cost makes CitPatents its worst dataset (paper)
    assert table["citpatents"]["llama"] == min(t["llama"] for t in table.values())


def test_fig6_dgap_batch_speedup(benchmark, scale):
    """Batched ingestion must beat the per-edge path >= 3x in wall clock
    on DGAP/Orkut, and its commit groups must buy modeled throughput.

    The wall speedup pair {1, 1024} is pinned against the seed baseline
    (batch 1 is the unchanged per-edge persist path, so its modeled MEPS
    is pinned too); the group-commit gain is checked at the shipping
    default (512) as a floor, not a band (see DESIGN.md §5).
    """
    seed = json.loads(BASELINE_JSON.read_text())
    spec = get_dataset("orkut")
    edges = spec.generate(scale)
    nv, ne = spec.sizes(scale)

    def run():
        out = {}
        for bs in (1, DEFAULT_BATCH_SIZE, 1024):
            system = build_system("dgap", nv, ne)
            out[bs] = ingest(system, spec, edges, batch_size=bs)
        return out

    results = run_once(benchmark, run)
    wall = {bs: r.counters["timed_wall_s"] for bs, r in results.items()}
    meps = {bs: r.meps(1) for bs, r in results.items()}
    speedup = wall[1] / wall[1024]
    need = seed["min_required_speedup"]
    dbs = DEFAULT_BATCH_SIZE

    emit(ingest_phase_table(results.values()))
    emit(paper_vs_measured(
        "fig6 batched-ingest speedup (DGAP, orkut)",
        [
            ("timed wall s, batch 1 (seed env)", seed["batch"]["1"]["timed_wall_s"],
             wall[1], True),
            ("timed wall s, batch 1024 (seed env)", seed["batch"]["1024"]["timed_wall_s"],
             wall[1024], True),
            (f"wall speedup 1024 vs 1 (need >= {need:g}x)",
             seed["wall_speedup_1024_vs_1"], speedup, speedup >= need),
            ("modeled MEPS T1, batch 1", seed["batch"]["1"]["meps_t1"], meps[1],
             abs(meps[1] - seed["batch"]["1"]["meps_t1"]) < 0.5 or scale != seed["scale"]),
            (f"group-commit gain in modeled MEPS at default batch ({dbs})",
             f">={MIN_GROUP_COMMIT_GAIN:g}x", meps[dbs] / meps[1],
             meps[dbs] >= MIN_GROUP_COMMIT_GAIN * meps[1]),
        ],
    ))
    if ne < 50_000:
        return  # too small for stable wall-clock ratios
    assert speedup >= need, (wall, speedup)
    assert meps[dbs] >= MIN_GROUP_COMMIT_GAIN * meps[1]
