"""Bottom-layer probe: bulk device ops on a scratch ``PMemDevice``.

Times each batched device primitive over sequential and random
cache-line offsets (the access-pattern catalogue of Dann et al.) and
reports wall ns/line beside modeled ns/line and the
``repro.pmem.latency`` constant the modeled number should equal — a
first check of the cost model against the paper's Fig. 1(c) ratios.
Probe wall is the floor under ``ingest_wall_keps`` and
``recover_wall_ms``: no write path can beat the device calls it makes.
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter_ns
from typing import Dict, List

import numpy as np

from repro.pmem.constants import CACHE_LINE
from repro.pmem.device import PMemDevice
from repro.pmem.latency import OPTANE_ADR

LINES = 4096
REPEATS = 5
COPYBACK_CHUNK = 2048  # the rebalancer streams in undo-log-sized chunks


def _expected() -> Dict[str, float]:
    p = OPTANE_ADR
    store, fence = p.store_per_line_ns, p.fence_ns
    return {
        "store_batch.seq": store,
        "store_batch.rand": store,
        "flush_span.seq": p.flush_seq_per_line_ns,
        "flush_span.rand": p.flush_rnd_per_line_ns,
        "persist_batch.seq": store + p.flush_seq_per_line_ns + fence,
        "persist_batch.rand": store + p.flush_rnd_per_line_ns + fence,
        "gather_span.seq": p.read_rnd_per_line_ns,
        "gather_span.rand": p.read_rnd_per_line_ns,
        "load_batch.seq": p.read_seq_per_byte_ns * CACHE_LINE,
        "copyback_stream.seq": store + p.flush_seq_per_line_ns,
    }


def run_probe(seed: int) -> List[dict]:
    """One row per (op, pattern): wall and modeled ns per cache line."""
    rng = np.random.default_rng(seed + 31)
    total_lines = LINES * 64
    dev = PMemDevice(total_lines * CACHE_LINE, profile=OPTANE_ADR, name="probe")
    data = rng.integers(0, 255, size=(LINES, CACHE_LINE), dtype=np.uint8)
    patterns = {
        "seq": np.arange(LINES, dtype=np.int64) * CACHE_LINE,
        # random lines from the upper half, so they never alias the sequential span
        "rand": (total_lines // 2 + rng.permutation(total_lines // 2)[:LINES]).astype(np.int64) * CACHE_LINE,
    }
    nbytes = LINES * CACHE_LINE

    def measure(fn, prepare=None):
        walls, modeled = [], 0.0
        for _ in range(REPEATS):
            if prepare is not None:
                prepare()
            m0 = dev.stats.modeled_ns
            t0 = perf_counter_ns()
            fn()
            walls.append(perf_counter_ns() - t0)
            modeled = dev.stats.modeled_ns - m0
        return median(walls) / LINES, modeled / LINES

    rows = []
    expected = _expected()
    gc_was = gc.isenabled()
    gc.disable()
    try:
        for pat, offs in patterns.items():
            ops = {
                "store_batch": (lambda o=offs: dev.store_batch(o, data, payload_per_unit=0), None),
                # flush_span's contract: each unit is dirty when its flush runs
                "flush_span": (
                    lambda o=offs: dev.flush_span(o, CACHE_LINE),
                    lambda o=offs: dev.store_batch(o, data, payload_per_unit=0),
                ),
                "persist_batch": (lambda o=offs: dev.persist_batch(o, data, payload_per_unit=0), None),
                "gather_span": (lambda o=offs: dev.gather_span(o, CACHE_LINE), None),
            }
            for op, (fn, prep) in ops.items():
                wall, modeled = measure(fn, prep)
                rows.append({"op": op, "pattern": pat, "wall_ns_per_line": wall,
                             "modeled_ns_per_line": modeled, "expected_ns_per_line": expected[f"{op}.{pat}"]})
        seq_ops = {
            "load_batch": lambda: dev.load_batch(0, nbytes),
            "copyback_stream": lambda: dev.copyback_stream(0, nbytes, nbytes, COPYBACK_CHUNK),
        }
        for op, fn in seq_ops.items():
            wall, modeled = measure(fn)
            rows.append({"op": op, "pattern": "seq", "wall_ns_per_line": wall,
                         "modeled_ns_per_line": modeled, "expected_ns_per_line": expected[f"{op}.seq"]})
    finally:
        if gc_was:
            gc.enable()
    return rows


def probe_metrics(rows: List[dict]) -> Dict[str, float]:
    out = {}
    for r in rows:
        base = f"pmem.probe.{r['op']}.{r['pattern']}"
        out[f"{base}.wall_ns_per_line"] = r["wall_ns_per_line"]
        out[f"{base}.modeled_ns_per_line"] = r["modeled_ns_per_line"]
    return out


def probe_table(rows: List[dict]) -> str:
    lines = [f"{'op':<16} {'pattern':<8} {'wall ns/line':>13} {'modeled ns/line':>16} {'latency const':>14} {'modeled/const':>14}"]
    for r in rows:
        ratio = r["modeled_ns_per_line"] / r["expected_ns_per_line"]
        lines.append(
            f"{r['op']:<16} {r['pattern']:<8} {r['wall_ns_per_line']:>13.1f} "
            f"{r['modeled_ns_per_line']:>16.2f} {r['expected_ns_per_line']:>14.2f} {ratio:>14.3f}"
        )
    return "\n".join(lines)
