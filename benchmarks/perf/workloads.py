"""Workload specs and seeded input generation for the perf benchmark.

Every workload is a traffic mix over the same public API: set-up
(generate inputs, build the store, preload), a timed **ingest** phase of
client batches, **analysis rounds** (small increment, fresh view,
kernels), a **serve** phase (Zipfian point reads beside write batches)
and a **crash + reopen**.  The five mixes differ in graph shape, store
type and where the time goes (see each ``why``).

The op-stream and increment generators live here, not in ``src/``, so a
library change cannot shift the traffic; the R-MAT and temporal stream
recipes are ``repro.datasets``' own and are pinned by digest
(``pins.json``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.datasets.rmat import rmat_edges
from repro.datasets.temporal import TemporalSpec

READ_MIX: Tuple[Tuple[str, float], ...] = (
    ("degree", 0.25),
    ("neighbors", 0.40),
    ("edge_exists", 0.20),
    ("k_hop", 0.10),
    ("top_k_degree", 0.05),
)
READ_CLASSES = tuple(name for name, _ in READ_MIX)
ZIPF_THETA = 0.99
K_HOP_DEPTH = 2
TOP_K = 8
WRITE_BATCH = 64
DELETE_FRACTION = 0.15
LOCAL_RANGE = 256  # a localized increment draws its sources from this many vertices


@dataclass(frozen=True)
class Spec:
    """One workload at one size."""

    name: str
    why: str
    store: str  # "dgap" | "sharded" | "temporal"
    nv: int
    ratio: int  # stream edges per vertex
    rmat_a: float
    preload: float  # share of the stream inserted during set-up
    client_batch: int  # edges per client call in the timed ingest phase
    rounds: int  # analysis rounds (temporal: one per step instead)
    laps: int  # the rounds (or steps) are timed in this many equal laps
    increment: int  # edges per analysis-round increment
    pattern: Tuple[str, ...]  # increment locality, cycled: "local" | "scattered"
    kernels: Tuple[str, ...]
    bc_sources: int
    serve_laps: int  # the serve phase is timed in this many equal laps
    lap_ops: int  # ops per serve lap
    crash_points: int  # power failures per short cycle, evenly spread over the timed ingest
    read_fraction: float
    # temporal only
    steps: int = 0
    window: int = 0
    churn: float = 0.0

    @property
    def serve_ops(self) -> int:
        return self.serve_laps * self.lap_ops

    def expected_edges(self) -> int:
        """The size estimate the store is initialised with (the paper's INIT_*_SIZE).

        Sized for everything the run will insert, so no seed crosses a
        resize; the (nv, ratio) pairs are chosen so the PMA ends ~40% full,
        clear of the density thresholds where one whole-array rebalance
        more or less would swing write amplification by a fifth.
        """
        writes = int(self.serve_ops * (1.0 - self.read_fraction) * WRITE_BATCH)
        if self.store == "temporal":  # the live window, not the whole stream
            return self.nv * self.ratio * self.window // self.steps + writes
        return self.nv * self.ratio + self.rounds * self.increment + writes


ALL_KERNELS = ("pr", "cc", "bfs", "bc")


def _specs(size: str) -> Dict[str, Spec]:
    tiny = size == "tiny"
    lap_ops = 40 if tiny else 100  # small laps: the noise comes in bursts, and many laps dodge them
    rows = [
        Spec(
            "ingest-skewed", (
                "dense hubs (Orkut-like R-MAT): core write path + pmem do nearly all the "
                "work, sections overflow, edge logs merge and rebalances fire"
            ), "dgap",
            nv=512 if tiny else 4096, ratio=40 if tiny else 50, rmat_a=0.57,
            preload=0.10, client_batch=128 if tiny else 512,
            rounds=2 if tiny else 12, laps=1 if tiny else 6, increment=200 if tiny else 1000,
            pattern=("local", "scattered"), kernels=ALL_KERNELS, bc_sources=2,
            serve_laps=4 if tiny else 20, lap_ops=lap_ops, crash_points=8, read_fraction=0.95,
        ),
        Spec(
            "shard-ingest-sparse", (
                "sparse CitPatents-like stream in small batches through 4 shards: routing "
                "and per-call fixed cost dominate, rebalances are rare"
            ), "sharded",
            nv=1024 if tiny else 16384, ratio=5, rmat_a=0.45,
            preload=0.10, client_batch=48 if tiny else 256,
            rounds=2 if tiny else 12, laps=1 if tiny else 6, increment=200 if tiny else 1000,
            pattern=("local", "scattered"), kernels=ALL_KERNELS, bc_sources=2,
            serve_laps=4 if tiny else 20, lap_ops=lap_ops, crash_points=8, read_fraction=0.95,
        ),
        Spec(
            "analyze-loop", (
                "40 rounds of increment+view+PR/CC/BFS/BC cycling localized and scattered increments: view "
                "cache patch path and kernels dominate, ingest is a sliver; fits the cache"
            ), "dgap",
            nv=1024 if tiny else 8192, ratio=15, rmat_a=0.57,
            preload=0.10, client_batch=32 if tiny else 128,
            rounds=4 if tiny else 40, laps=2 if tiny else 20, increment=200 if tiny else 2000,
            pattern=("local", "scattered"), kernels=ALL_KERNELS, bc_sources=4,
            serve_laps=4 if tiny else 20, lap_ops=lap_ops, crash_points=8, read_fraction=0.95,
        ),
        Spec(
            "serve-zipf", (
                "95% Zipfian point reads beside 5% write batches with tombstones: p50 is the "
                "view-hit path, p99 the refresh path; writes beside reads"
            ), "dgap",
            nv=1024 if tiny else 8192, ratio=22, rmat_a=0.57,
            preload=0.10, client_batch=32 if tiny else 128,
            rounds=2 if tiny else 12, laps=1 if tiny else 6, increment=200 if tiny else 1000,
            pattern=("local", "scattered"), kernels=ALL_KERNELS, bc_sources=2,
            serve_laps=4 if tiny else 60, lap_ops=lap_ops, crash_points=8, read_fraction=0.95,
        ),
        Spec(
            "temporal-churn", (
                "sliding window with churn: deletes beside inserts, expiry and compaction sweeps; every "
                "section dirty each step, so the view cache cannot help (larger than the cache)"
            ), "temporal",
            nv=512 if tiny else 4096, ratio=16 if tiny else 32, rmat_a=0.57,
            preload=0.0, client_batch=0,
            rounds=0, laps=4 if tiny else 20, increment=0, pattern=(), kernels=("pr", "cc"), bc_sources=0,
            serve_laps=4 if tiny else 20, lap_ops=lap_ops, crash_points=8 if tiny else 20, read_fraction=0.95,
            steps=24 if tiny else 100, window=8, churn=0.40,
        ),
    ]
    return {s.name: s for s in rows}


SIZES = ("default", "tiny")
WORKLOADS = tuple(_specs("default"))


def get_spec(name: str, size: str = "default") -> Spec:
    if size not in SIZES:
        raise KeyError(f"unknown size {size!r}; choose from {SIZES}")
    try:
        return _specs(size)[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}") from None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """Everything the program receives for one run of one workload."""

    nv: int
    preload: np.ndarray  # (P, 2) inserted during set-up
    batches: List[np.ndarray]  # timed ingest: client batches ((n, 2) arrays)
    steps: list  # temporal: TemporalStep list (timed ingest instead of batches)
    increments: List[Tuple[str, np.ndarray]]  # (locality, (n, 2)) per analysis round
    sources: np.ndarray  # BFS/BC start vertices (top stream out-degree)
    ops: List[tuple]  # serve phase op stream

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.int64(self.nv).tobytes())
        for arr in [self.preload, *self.batches, *(a for _, a in self.increments), self.sources]:
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        for st in self.steps:
            h.update(np.ascontiguousarray(st.adds, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(st.deletes, dtype=np.int64).tobytes())
        for op in self.ops:
            h.update(op[0].encode())
            for a in op[1:]:
                h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        return h.hexdigest()


def _rmat(nv: int, ne: int, a: float, seed: int) -> np.ndarray:
    b = c = (1.0 - a) / 3
    edges = rmat_edges(nv, ne, a=a, b=b, c=c, seed=seed)
    return edges[np.random.default_rng(seed + 1).permutation(edges.shape[0])]


def _increments(spec: Spec, seed: int) -> List[Tuple[str, np.ndarray]]:
    if not spec.rounds:
        return []
    rng = np.random.default_rng(seed + 11)
    n_scat = sum(1 for r in range(spec.rounds) if spec.pattern[r % len(spec.pattern)] == "scattered")
    scattered = _rmat(spec.nv, max(1, n_scat * spec.increment), spec.rmat_a, seed + 12)
    out, used = [], 0
    span = min(LOCAL_RANGE, spec.nv)
    for r in range(spec.rounds):
        kind = spec.pattern[r % len(spec.pattern)]
        if kind == "local":
            lo = int(rng.integers(0, spec.nv - span + 1))
            src = lo + rng.integers(0, span, spec.increment)
            dst = rng.integers(0, spec.nv, spec.increment)
            dst = np.where(dst == src, (dst + 1) % spec.nv, dst)
            inc = np.stack([src, dst], axis=1).astype(np.int64)
        else:
            inc = scattered[used : used + spec.increment]
            used += spec.increment
        out.append((kind, inc))
    return out


def _lap_kinds(lap_ops: int, read_fraction: float, rng) -> np.ndarray:
    """Op kinds of one lap: -1 = write, else a READ_CLASSES index.

    The mix is exact in every lap (largest-remainder rounding) and only
    the order is drawn: with Bernoulli draws the write count of a
    2 000-op stream swings 10 % with the seed, and mean read latency —
    almost all of it refresh cost — swings with it.
    """
    n_writes = round(lap_ops * (1.0 - read_fraction))
    weights = np.array([w for _, w in READ_MIX])
    exact = weights / weights.sum() * (lap_ops - n_writes)
    counts = np.floor(exact).astype(int)
    counts[np.argsort(-(exact - counts), kind="stable")[: lap_ops - n_writes - counts.sum()]] += 1
    kinds = np.repeat(np.arange(-1, len(READ_MIX)), [n_writes, *counts])
    return rng.permutation(kinds)


def _serve_ops(nv: int, laps: int, lap_ops: int, read_fraction: float, seed: int) -> List[tuple]:
    """Seeded Zipfian op stream: reads of five classes beside write batches.

    Tombstones only ever target edges this stream itself inserted and
    that are still live, so every delete cancels exactly one stored
    occurrence and no operation is expected to fail.
    """
    rng = np.random.default_rng(seed + 21)
    ranks = np.arange(1, nv + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -ZIPF_THETA)
    cdf /= cdf[-1]
    perm = rng.permutation(nv)  # hot ids scattered over the id space (and shards)

    def zipf(size: int) -> np.ndarray:
        return perm[np.searchsorted(cdf, rng.random(size), side="left")]

    n_ops = laps * lap_ops
    kinds = np.concatenate([_lap_kinds(lap_ops, read_fraction, rng) for _ in range(laps)]).tolist()
    picks = zipf(2 * n_ops).reshape(n_ops, 2).tolist()
    coin = rng.random(n_ops).tolist()

    live: Dict[int, List[int]] = {}  # src -> live dsts inserted by this stream
    live_srcs: List[int] = []
    ops: List[tuple] = []
    for i in range(n_ops):
        if kinds[i] >= 0:
            cls = READ_CLASSES[kinds[i]]
            v, w = picks[i]
            if cls in ("degree", "neighbors"):
                ops.append((cls, v))
            elif cls == "edge_exists":
                row = live.get(v)
                if row and coin[i] < 0.5:
                    w = row[int(coin[i] * 2 * len(row)) % len(row)]  # likely-present probe
                ops.append((cls, v, w))
            elif cls == "k_hop":
                ops.append((cls, v, K_HOP_DEPTH))
            else:
                ops.append((cls, TOP_K))
            continue
        src = zipf(WRITE_BATCH)
        dst = zipf(WRITE_BATCH)
        dst = np.where(dst == src, (dst + 1) % nv, dst)
        tomb = np.zeros(WRITE_BATCH, dtype=bool)
        draws = rng.random((WRITE_BATCH, 3)).tolist()
        for j in range(WRITE_BATCH):
            if live_srcs and draws[j][0] < DELETE_FRACTION:
                k = int(draws[j][1] * len(live_srcs))
                s = live_srcs[k]
                row = live[s]
                d = row.pop(int(draws[j][2] * len(row)))
                if not row:
                    del live[s]
                    live_srcs[k] = live_srcs[-1]
                    live_srcs.pop()
                src[j], dst[j], tomb[j] = s, d, True
            else:
                s, d = int(src[j]), int(dst[j])
                if s not in live:
                    live[s] = []
                    live_srcs.append(s)
                live[s].append(d)
        ops.append(("write", src.astype(np.int64), dst.astype(np.int64), tomb))
    return ops


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Deterministic inputs for ``spec``: the same seed gives the same inputs."""
    nv = spec.nv
    empty = np.empty((0, 2), dtype=np.int64)
    if spec.store == "temporal":
        tspec = TemporalSpec(
            "perf-temporal", "bench", nv, spec.ratio, spec.steps,
            spec.churn, 1.0, 0.5, spec.rmat_a, seed,
        )
        steps = tspec.generate(1.0)
        deg = np.zeros(nv, dtype=np.int64)
        for st in steps:
            deg += np.bincount(st.adds[:, 0], minlength=nv)
        preload, batches = empty, []
    else:
        stream = _rmat(nv, nv * spec.ratio, spec.rmat_a, seed)
        cut = int(stream.shape[0] * spec.preload)
        preload, rest = stream[:cut], stream[cut:]
        batches = [rest[i : i + spec.client_batch] for i in range(0, rest.shape[0], spec.client_batch)]
        steps = []
        deg = np.bincount(stream[:, 0], minlength=nv)
    sources = np.argsort(-deg, kind="stable")[: max(1, spec.bc_sources)].astype(np.int64)
    return Inputs(
        nv=nv,
        preload=preload,
        batches=batches,
        steps=steps,
        increments=_increments(spec, seed),
        sources=sources,
        ops=_serve_ops(nv, spec.serve_laps, spec.lap_ops, spec.read_fraction, seed),
    )
