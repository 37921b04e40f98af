"""Experiment harness: build systems, ingest streams, run kernels.

One place owns the paper's protocol (§4.1):

* every system is initialized with the dataset's true size (the paper's
  ``INIT_*_SIZE`` estimations);
* the first 10% of the shuffled stream warms the system; counters are
  checkpointed; the remaining 90% is the timed window;
* analysis runs on the system's own view of the final graph.

Built systems are cached per (system, dataset, scale) so the analysis
experiments (Fig. 7/8, Table 4) reuse one ingest per system instead of
re-inserting for every kernel.

An *arm* (DESIGN.md §17) is a module of this package exposing
``run(**params) -> result``, ``report(result) -> tables`` and, where it
has pass/fail criteria, ``gates(result) -> [(label, want, got, ok)]``.
:func:`finish_arm` is the one driver behind both ``python -m
repro.bench`` and ``benchmarks/test_*``: it emits the report and
enforces the gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from ..algorithms import KERNELS
from ..analysis.view import CSRArraysView
from ..baselines import SYSTEMS, DynamicGraphSystem, InsertProfile, StaticCSR
from ..config import DGAPConfig
from ..core.batch import DEFAULT_BATCH_SIZE
from ..core.dgap import DGAP
from ..datasets import DatasetSpec, get_dataset
from .reporting import gate_table

#: the five compared dynamic systems, in the paper's column order
SYSTEM_ORDER = ("dgap", "bal", "llama", "graphone", "xpgraph")

#: kernel -> does it take a source vertex (Table 1)
SOURCE_KERNELS = {"bfs", "bc"}

#: Batch size of the paper-faithful DGAP arm: every compared system
#: persists per edge, so DGAP-vs-baseline ratios run DGAP one edge per
#: batch; larger batches group-commit (DESIGN.md §5) — an extra row.
PAPER_BATCH_SIZE = 1


def paper_batch_size(system: str, batch_size: Optional[int] = DEFAULT_BATCH_SIZE):
    """Ingest batch size of ``system``'s row in a paper-ratio table."""
    return PAPER_BATCH_SIZE if system == "dgap" else batch_size


def group_commit_label(batch_size: Optional[int] = DEFAULT_BATCH_SIZE) -> str:
    """Row/column label of DGAP's group-commit arm (outside the ratios)."""
    return f"dgap@{batch_size or 'all'}"


@dataclass
class InsertResult:
    """Outcome of one timed ingest window (post-warm-up)."""

    system: str
    dataset: str
    edges_timed: int
    profile: InsertProfile
    wall_s: float
    write_amplification: float
    counters: Dict[str, float] = field(default_factory=dict)

    def meps(self, threads: int = 1) -> float:
        return self.profile.meps(threads)


def load_stream(dataset: str, scale: float) -> Tuple[int, np.ndarray]:
    """``(num_vertices, shuffled (N, 2) edge stream)`` of a proxy dataset."""
    spec = get_dataset(dataset)
    return spec.sizes(scale)[0], spec.generate(scale)


def make_store(num_vertices: int, num_edges: int, **cfg) -> DGAP:
    """A DGAP sized for the stream."""
    return DGAP(DGAPConfig(init_vertices=num_vertices, init_edges=num_edges, **cfg))


def modeled_ingest(store, edges, batch_size: Optional[int] = DEFAULT_BATCH_SIZE):
    """Ingest ``edges`` into a store; the device-stats delta it cost."""
    before = store.pool.stats.snapshot()
    store.insert_edges(edges, batch_size=batch_size)
    return store.pool.stats.delta_since(before)


def build_system(
    name: str,
    num_vertices: int,
    num_edges: int,
    **kwargs,
) -> DynamicGraphSystem:
    """Instantiate one compared system sized for the dataset."""
    if name == "dgap":
        cfg = kwargs.pop("config", None) or DGAPConfig(
            init_vertices=num_vertices, init_edges=num_edges, **kwargs
        )
        return SYSTEMS["dgap"](num_vertices, num_edges, config=cfg)
    return SYSTEMS[name](num_vertices, num_edges, **kwargs)


def ingest(
    system: DynamicGraphSystem,
    spec: DatasetSpec,
    edges: np.ndarray,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
) -> InsertResult:
    """The paper's ingest protocol: 10% warm-up, then the timed window.

    Edges flow through :meth:`DynamicGraphSystem.insert_edges` as
    ``(N, 2)`` arrays split into ``batch_size`` sub-batches (None = one
    batch; 1 = the historical per-edge path).  Per-phase wall-clock and
    modeled time land in ``InsertResult.counters`` so reports can show
    interpreter overhead separately from the modeled device time.
    """
    warm, timed = spec.split_warmup(edges)
    w0 = perf_counter()
    system.insert_edges(warm, batch_size=batch_size)
    warm_wall = perf_counter() - w0
    cp = system.checkpoint()
    stats_before = [d.stats.snapshot() for d in system._devices()]
    t0 = perf_counter()
    system.insert_edges(timed, batch_size=batch_size)
    system.finalize()
    wall = perf_counter() - t0
    profile = system.insert_profile(since=cp, edges=timed.shape[0])
    stored = payload = fences = 0
    for dev, before in zip(system._devices(), stats_before):
        d = dev.stats.delta_since(before)
        stored += d.stored_bytes
        payload += d.payload_bytes
        fences += d.fences
    wa = stored / payload if payload else 0.0
    return InsertResult(
        system=system.name,
        dataset=spec.name,
        edges_timed=int(timed.shape[0]),
        profile=profile,
        wall_s=wall,
        write_amplification=wa,
        counters={
            "batch_size": float(batch_size or 0),
            "warmup_wall_s": warm_wall,
            "warmup_modeled_s": cp.ns * 1e-9,
            "timed_wall_s": wall,
            "timed_modeled_s": profile.modeled_ns * 1e-9,
            "timed_fences": float(fences),
        },
    )


def run_kernel(view: CSRArraysView, kernel: str, source: int = 0) -> Dict[int, float]:
    """Run one kernel on a view; modeled seconds at the paper's 1 and 16 threads.

    The paper times each kernel from scratch on the final graph, so the
    kernel runs on a carry-less clone: a built system shared by several
    experiments must not hand one experiment's CC labels to the next.
    """
    view = view.clone()
    view.carry = None
    fn = KERNELS[kernel]
    if kernel in SOURCE_KERNELS:
        fn(view, source)
    else:
        fn(view)
    return {p: view.seconds(p) for p in (1, 16)}


# ----------------------------------------------------------------------
# built-system cache (one ingest per system+dataset for all kernels)
# ----------------------------------------------------------------------
_CACHE: Dict[Tuple, Tuple[DynamicGraphSystem, InsertResult]] = {}


def get_built_system(
    name: str,
    dataset: str,
    scale: float,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    **kwargs,
) -> Tuple[DynamicGraphSystem, InsertResult]:
    key = (name, dataset, scale, batch_size, tuple(sorted(kwargs.items())))
    if key not in _CACHE:
        nv, edges = load_stream(dataset, scale)
        system = build_system(name, nv, edges.shape[0], **kwargs)
        _CACHE[key] = (
            system, ingest(system, get_dataset(dataset), edges, batch_size=batch_size)
        )
    return _CACHE[key]


def get_static_csr(dataset: str, scale: float) -> StaticCSR:
    key = ("csr", dataset, scale, None, ())
    if key not in _CACHE:
        _CACHE[key] = (StaticCSR(*load_stream(dataset, scale)), None)
    return _CACHE[key][0]


def pick_source(dataset: str, scale: float) -> int:
    """A deterministic well-connected source vertex for BFS/BC."""
    csr = get_static_csr(dataset, scale)
    view = csr.analysis_view()
    return int(np.argmax(view.out_degrees()))


def finish_arm(arm, result, emit=print):
    """Emit ``arm``'s report for ``result`` and enforce its gates.

    Exits nonzero (``SystemExit`` with the failed labels) when a gate
    does not hold — the CLI and the benchmark tests fail the same way.
    """
    for table in arm.report(result):
        emit(table)
    rows = arm.gates(result) if hasattr(arm, "gates") else []
    if rows:
        emit(gate_table(arm.__name__.rpartition(".")[2], rows))
    failed = [label for label, *_, ok in rows if not ok]
    if failed:
        raise SystemExit("gate failed: " + "; ".join(failed))
    return result


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "PAPER_BATCH_SIZE",
    "SYSTEM_ORDER",
    "paper_batch_size",
    "group_commit_label",
    "finish_arm",
    "InsertResult",
    "build_system",
    "load_stream",
    "make_store",
    "modeled_ingest",
    "ingest",
    "run_kernel",
    "get_built_system",
    "get_static_csr",
    "pick_source",
    "SOURCE_KERNELS",
]
