"""Fig. 1 — the three problems of PMA-based mutable CSR on PM (§2.4).

(a) write amplification of naive nearby-shift insertion;
(b) insert time on DRAM vs PM vs PM-with-transactions;
(c) sequential vs random vs in-place persistent write latency.
"""

import numpy as np

from conftest import run_once
from repro import DGAP, DGAPConfig
from repro.bench import emit, format_table, paper_vs_measured
from repro.bench.harness import modeled_ingest
from repro.bench.paper_data import HEADLINES
from repro.datasets import get_dataset
from repro.pmem import CACHE_LINE, OPTANE_ADR, PMemDevice, PMemPool
from repro.pmem.latency import DRAM


def _naive_config(spec, scale, **kw):
    nv, _ = spec.sizes(scale)
    ne = spec.generate(scale).shape[0]
    # a fixed pool size, so the DRAM arm can build its pool to match
    # (device images are demand-zero: the headroom costs no RSS)
    return DGAPConfig(init_vertices=nv, init_edges=ne, use_edge_log=False,
                      pool_bytes=1024 * (nv + ne) + (1 << 20), **kw)


def test_fig1a_write_amplification(benchmark, scale):
    """Naive mutable CSR write amplification during Orkut insertion."""
    spec = get_dataset("orkut")
    edges = spec.generate(scale)
    nv, _ = spec.sizes(scale)

    def run():
        g = DGAP(_naive_config(spec, scale))
        series = []
        checkpoints = np.linspace(0, edges.shape[0], 11, dtype=int)[1:]
        prev = 0
        before = g.pool.stats.snapshot()
        for frac, stop in zip(range(10, 101, 10), checkpoints):
            g.insert_edges(map(tuple, edges[prev:stop]))
            d = g.pool.stats.delta_since(before)
            series.append((frac, d.stored_bytes / max(1, d.payload_bytes)))
            prev = stop
        return series

    series = run_once(benchmark, run)
    emit(format_table(
        "Fig 1(a): naive mutable CSR write amplification (Orkut proxy)",
        ["inserted %", "cumulative WA (stored/payload bytes)"],
        series,
    ))
    peak = max(w for _, w in series)
    # DGAP with the edge log, same stream
    g2 = DGAP(DGAPConfig(init_vertices=nv, init_edges=edges.shape[0]))
    d = modeled_ingest(g2, map(tuple, edges))
    wa_el = d.stored_bytes / d.payload_bytes
    emit(paper_vs_measured("fig1a", [
        ("naive WA (paper: up to ~7x)", HEADLINES["fig1a_write_amplification"], peak, peak > 3.0),
        ("edge log reduces WA (paper: ~6x on Orkut)", HEADLINES["el_wa_reduction_orkut"],
         peak / wa_el, peak / wa_el > 1.5),
    ]))
    assert peak > 3.0
    assert wa_el < peak


def test_fig1b_transaction_overhead(benchmark, scale):
    """Insert time: DRAM vs PM vs PM with PMDK transactions."""
    spec = get_dataset("orkut")
    small = min(0.5, scale)
    edges = spec.generate(small)

    def one(medium=None, **kw):
        cfg = _naive_config(spec, small, **kw)
        pool = None if medium is None else PMemPool(cfg.pool_bytes, profile=medium)
        g = DGAP(cfg, pool=pool)
        return modeled_ingest(g, map(tuple, edges)).modeled_ns * 1e-9

    def run():
        return {
            "DRAM": one(DRAM),
            "PM": one(),                        # undo-log protected shifts
            "PM-TX": one(use_undo_log=False),   # PMDK transactions
        }

    times = run_once(benchmark, run)
    emit(format_table(
        "Fig 1(b): mutable CSR insert time by medium (Orkut proxy, seconds modeled)",
        ["medium", "seconds"],
        [(k, v) for k, v in times.items()],
        floatfmt="{:.4f}",
    ))
    assert times["DRAM"] < times["PM"] < times["PM-TX"]
    assert times["PM-TX"] > 1.05 * times["PM"]


def test_fig1c_inplace_updates(benchmark):
    """Persistent write latency: sequential vs random vs in-place."""
    n = 4096

    def run():
        out = {}
        dev = PMemDevice(64 << 20, profile=OPTANE_ADR)
        for i in range(n):
            dev.store(i * CACHE_LINE, b"x" * 8)
            dev.persist(i * CACHE_LINE, 8)
        out["Seq"] = dev.stats.modeled_ns / n

        dev = PMemDevice(64 << 20, profile=OPTANE_ADR)
        rng = np.random.default_rng(0)
        offs = rng.permutation(8 * n)[:n] * 5 * CACHE_LINE % (32 << 20)
        for off in offs:
            dev.store(int(off) // CACHE_LINE * CACHE_LINE, b"x" * 8)
            dev.persist(int(off) // CACHE_LINE * CACHE_LINE, 8)
        out["Rnd"] = dev.stats.modeled_ns / n

        dev = PMemDevice(64 << 20, profile=OPTANE_ADR)
        for _ in range(n):
            dev.store(0, b"x" * 8)
            dev.persist(0, 8)
        out["In-place"] = dev.stats.modeled_ns / n
        return out

    lat = run_once(benchmark, run)
    emit(format_table(
        "Fig 1(c): persistent 8B write latency by pattern (ns/write)",
        ["pattern", "ns"],
        [(k, v) for k, v in lat.items()],
    ))
    ratio = lat["In-place"] / lat["Seq"]
    emit(paper_vs_measured("fig1c", [
        ("in-place vs sequential (paper ~7x)", HEADLINES["inplace_vs_seq"], ratio, 4 < ratio < 12),
    ]))
    assert lat["Seq"] < lat["Rnd"] < lat["In-place"]
    assert 4 < ratio < 12
