"""Metric names, units and statistics shared by run/worker/compare.

``BENCHMARK.json`` at the repo root is the contract (names, units,
direction, bounds); this module adds what that file has no key for:
which metrics are **deterministic** (modeled clock or counters — they
must repeat exactly for one seed), the percentile rule and the
estimators over laps.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
BENCHMARK_JSON = REPO / "BENCHMARK.json"
PINS_JSON = HERE / "pins.json"

#: a percentile is reported only where at least this many samples lie beyond it
MIN_BEYOND = 10

#: ``wall.*`` metrics are per-layer (no bound in the contract: the sandbox cannot
#: hold one, see README); compare.py still judges them, by the ISSUE's tenth
WALL_COMPARE_BOUND = 0.10

#: end-to-end metrics that come from the modeled clock or from counters:
#: one seed must give exactly one value (``--sets 2`` checks it).
def is_deterministic(name: str) -> bool:
    """Modeled clock or counter (must repeat exactly for one seed) — by naming rule.

    Wall-clock names carry ``wall`` (or are a ratio of two wall times);
    everything else is a count, a share of counts, or modeled time.
    """
    return not ("wall" in name or "overhead" in name or name in ("peak_rss_mb", "setup_s"))


def percentile(samples: Sequence[float], q: float, strict: bool = True) -> float:
    """Nearest-rank percentile; ``nan`` if fewer than MIN_BEYOND samples lie beyond it.

    ``strict=False`` (smoke sizes only) reports it regardless.
    """
    n = len(samples)
    rank = math.ceil(q * n / 100)  # integer ranks: 100 samples do support a p90
    if n == 0 or (strict and n - rank < MIN_BEYOND):
        return math.nan
    return float(sorted(samples)[max(0, rank - 1)])


def lower_quartile(lap_stats: Sequence[float]) -> float:
    """The lap a quarter of the way up: the estimator over laps of *different* work.

    Noise on the sandbox comes in bursts and only ever slows a lap, so the
    clean laps are the fast ones; the minimum would pick the lap with the
    cheapest mix of operations, the quartile sits inside the clean set.
    """
    s = sorted(lap_stats)
    return float(s[(len(s) - 1) // 4])


def median(samples: Sequence[float]) -> float:
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return math.nan
    return float(s[n // 2]) if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def metric_table(section: str) -> Dict[str, dict]:
    """``name -> {unit, better[, bound]}`` for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m for m in load_benchmark()[section]}


def load_pins() -> dict:
    with open(PINS_JSON) as f:
        return json.load(f)


def worse_by(name_better: str, base: float, new: float) -> float:
    """Relative worsening of ``new`` against ``base`` (positive = worse)."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    delta = (new - base) / abs(base)
    return delta if name_better == "lower" else -delta


def fmt(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    a = abs(value)
    if a != 0 and (a >= 1e6 or a < 1e-3):
        return f"{value:.4e}"
    return f"{value:.4f}"


def table(rows: List[Sequence[str]], header: Sequence[str]) -> str:
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    line = lambda r: "  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip()
    return "\n".join([line(header), line(["-" * w for w in widths]), *(line(r) for r in rows)])
