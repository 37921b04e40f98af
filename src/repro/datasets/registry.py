"""Scaled proxies for the paper's evaluation datasets (Table 2).

Each entry records the real dataset's properties and a deterministic
recipe for a scaled-down synthetic stand-in preserving what matters to
DGAP's evaluation: the |E|/|V| ratio, the degree skew (R-MAT parameters
per domain), and the shuffled insertion order with a 10% warm-up prefix
(§4.1).  ``scale`` multiplies the default proxy vertex count; the
benchmarks use scale=1 by default and honour the ``REPRO_SCALE``
environment variable.

Real sizes (paper Table 2) vs. default proxy sizes:

============ ========== ============== ===== ================ =========
dataset      |V| (real) |E| (real)     E/V   proxy |V| (s=1)  proxy |E|
============ ========== ============== ===== ================ =========
orkut        3,072,626  234,370,166    76    4,096            311,296
livejournal  4,847,570  85,702,474     18    8,192            147,456
citpatents   6,009,554  33,037,894     6     12,288           73,728
twitter      61,578,414 2,405,026,390  39    8,192            319,488
friendster   124,836,179 3,612,134,270 29    12,288           356,352
protein      8,745,543  1,309,240,502  149   2,048            305,152
============ ========== ============== ===== ================ =========
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .rmat import rmat_edges, shuffle_edges, uniform_edges


@dataclass(frozen=True)
class DatasetSpec:
    """One paper dataset (Table 2) and its scaled-proxy recipe."""

    name: str
    domain: str
    real_vertices: int
    real_edges: int
    ratio: int  # |E| / |V|
    proxy_vertices: int  # at scale 1
    #: R-MAT partition parameter ``a`` (skew); None = uniform generator
    rmat_a: float | None
    seed: int

    @property
    def real_fits_xpgraph_log(self) -> bool:
        """Whether the real graph fits XPGraph's default 8 GB edge log
        (16 B/edge -> 512M edges) — the Table 3 small-graph exception."""
        return self.real_edges <= 512_000_000

    def sizes(self, scale: float = 1.0) -> Tuple[int, int]:
        """Proxy (num_vertices, num_edges) at the given scale factor."""
        nv = max(256, int(self.proxy_vertices * scale))
        return nv, nv * self.ratio

    def generate(self, scale: float = 1.0) -> np.ndarray:
        """Deterministic shuffled edge stream for this proxy."""
        nv, ne = self.sizes(scale)
        if self.rmat_a is None:
            edges = uniform_edges(nv, ne, seed=self.seed)
        else:
            b = c = (1.0 - self.rmat_a) / 3
            edges = rmat_edges(nv, ne, a=self.rmat_a, b=b, c=c, seed=self.seed)
        return shuffle_edges(edges, seed=self.seed + 1)

    def split_warmup(self, edges: np.ndarray):
        """The paper's protocol: first 10% warms the system, the rest is timed."""
        k = int(edges.shape[0] * 0.10)
        return edges[:k], edges[k:]


#: social graphs: strong skew; citation: mild; protein: dense biological.
DATASETS: Dict[str, DatasetSpec] = {
    s.name: s
    for s in (
        DatasetSpec("orkut", "social", 3_072_626, 234_370_166, 76, 4096, 0.57, 101),
        DatasetSpec("livejournal", "social", 4_847_570, 85_702_474, 18, 8192, 0.57, 102),
        DatasetSpec("citpatents", "citation", 6_009_554, 33_037_894, 6, 12288, 0.45, 103),
        DatasetSpec("twitter", "social", 61_578_414, 2_405_026_390, 39, 8192, 0.60, 104),
        DatasetSpec("friendster", "social", 124_836_179, 3_612_134_270, 29, 12288, 0.57, 105),
        DatasetSpec("protein", "biology", 8_745_543, 1_309_240_502, 149, 2048, 0.50, 106),
        # Synthetic headroom notch for multi-pool (sharded) benchmarks:
        # one proxy-size step above the largest real-graph proxy, so
        # shard-scaling runs are not vertex-bound at the sizes where a
        # single pool already saturates.  Graph500-style R-MAT skew.
        DatasetSpec("scale", "synthetic", 100_000_000, 1_600_000_000, 16, 24576, 0.57, 107),
    )
}

#: the paper's Table 2 evaluation set — what the figure benchmarks
#: iterate.  Excludes synthetic headroom notches ("scale"), which exist
#: for the shard-scaling benchmarks and are fetched via ``get_dataset``.
PAPER_DATASETS: Dict[str, DatasetSpec] = {
    k: s for k, s in DATASETS.items() if s.domain != "synthetic"
}

#: the small trio used by Table 5 / Fig. 9 (the paper limits component
#: and configuration studies to these).
SMALL_DATASETS = ("orkut", "livejournal", "citpatents")


def get_dataset(name: str) -> DatasetSpec:
    """Look up a paper dataset spec by name (see ``DATASETS``)."""
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}") from None


def env_scale(default: float = 1.0) -> float:
    """Benchmark scale factor from the ``REPRO_SCALE`` environment variable."""
    try:
        return float(os.environ.get("REPRO_SCALE", default))
    except ValueError:
        return default


__all__ = ["DatasetSpec", "DATASETS", "PAPER_DATASETS", "SMALL_DATASETS", "get_dataset", "env_scale"]
