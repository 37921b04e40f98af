"""Windowed temporal loop: ingest→expire→analyze, incremental vs scratch.

The analysis-loop benchmark (``analysis_loop.py``) replays the paper's
insert-only cadence; temporal deployments also *retire* edges — every
step of a windowed stream ingests a burst, expires the burst that just
left the window down the deletion path, and occasionally pays a
tombstone-merge compaction sweep.  This driver replays that loop twice
on identical streams — same :class:`~repro.temporal.TemporalWindowGraph`
mutations, same expiry and compaction points — once with the PR 3
epoch-versioned view cache (whole-view reuse + changed-row patching)
and once with the seed's from-scratch materialization per trial.

Deletions make the scratch arm strictly more expensive than in the
insert-only loop: every tombstoned run takes the snapshot's per-row
cancellation patch-up on *every* trial, while the cached arm pays it
once per step and then serves whole-view hits.  Compaction flips that
cost back down for both arms (the swept runs are tombstone-free), which
is exactly the trade the benchmark exists to expose.

Three invariants are *asserted* inside :func:`run`, not just reported:

* every kernel output is byte-identical across the two arms;
* every modeled kernel time is exactly equal (materialization is host
  work, never accounted on the simulated device);
* every step's out- and in-CSR are byte-identical across the arms —
  expiry and compaction must be invisible to analysis results.

The wall-clock ratio between the arms is printed, never gated;
:func:`gates` pins the mechanism behind it (one view build per step vs
one per trial) and the seeded stream's mutation ledger on exact counts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.view import ID_DTYPE, INDPTR_DTYPE
from ..datasets import get_temporal_dataset
from .analysis_loop import (
    DEFAULT_KERNELS,
    KernelRecord,
    assert_arms_identical,
    kernel_sweep,
    view_reuse_gates,
)
from .harness import build_system
from .reporting import temporal_loop_table

#: default geometry (``run``'s defaults) and the mutation ledger its
#: seeded 24-step stream produces — genuinely golden integers: churn
#: picks, expiry and the density-triggered sweeps are not derivable from
#: the arguments.
DEFAULT_DATASET = "orkut-stream"
DEFAULT_WINDOW = 6
DEFAULT_COMPACT_THRESHOLD = 0.25
DEFAULT_LEDGER = {
    "churn_deleted": 14531,
    "expired": 34630,
    "compactions": 6,
    "tombstone_pairs_compacted": 49161,
}


@dataclass
class StepRecord:
    """One step of one arm: mutation volume and the resulting views."""

    step: int
    added: int
    churned: int
    expired: int
    compacted: bool
    csr_digest: str  #: sha256 over the normalized out+in CSR bytes


@dataclass
class TemporalLoopResult:
    """One arm (cached or scratch) of the windowed loop."""

    dataset: str
    scale: float
    window: int
    compact_threshold: float
    kernels: Tuple[str, ...]
    view_caching: bool
    steps: List[StepRecord] = field(default_factory=list)
    records: List[KernelRecord] = field(default_factory=list)
    ingest_wall_s: float = 0.0
    analysis_wall_s: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    stream_adds: int = 0  #: adds the replayed stream carried (the input)

    @property
    def compactions(self) -> int:
        return sum(s.compacted for s in self.steps)


@dataclass
class TemporalLoopPair:
    """Cached vs scratch arms over the identical stream (verified)."""

    cached: TemporalLoopResult
    scratch: TemporalLoopResult

    @property
    def speedup(self) -> float:
        """Scratch / cached analysis wall time (printed, not gated)."""
        return self.scratch.analysis_wall_s / max(
            self.cached.analysis_wall_s, 1e-12
        )


def _csr_digest(view) -> str:
    """Dtype-normalized digest so both arms hash identical bytes."""
    out_ip, out_ds = view.out_csr()
    in_ip, in_srcs = view.in_csr()
    h = hashlib.sha256()
    for arr, dt in (
        (out_ip, INDPTR_DTYPE), (out_ds, ID_DTYPE),
        (in_ip, INDPTR_DTYPE), (in_srcs, ID_DTYPE),
    ):
        h.update(np.ascontiguousarray(arr, dtype=dt).tobytes())
    return h.hexdigest()


def run_temporal_loop(
    dataset: str,
    scale: float,
    window: int,
    compact_threshold: float,
    kernels: Sequence[str],
    sources: int,
    batch_size: Optional[int],
    max_steps: Optional[int],
    view_caching: bool,
) -> TemporalLoopResult:
    """Replay the windowed stream; run the kernel sweep after every step.

    Each trial acquires its own ``analysis_view()`` exactly like the
    seed protocol — with caching on, trials after a step's first hit the
    whole-view cache and the per-step rebuild pays only for sections the
    step's adds, tombstones and sweeps dirtied.  BFS/BC sources are the
    ``sources`` highest-add-degree vertices of the full stream
    (identical for both arms); a source currently outside the window is
    a legal trivial trial.
    """
    from ..temporal import TemporalWindowGraph

    spec = get_temporal_dataset(dataset)
    stream = spec.generate(scale)
    if max_steps:
        stream = stream[:max_steps]
    nv, ne = spec.sizes(scale)
    system = build_system("dgap", nv, ne)
    system.view_caching = view_caching
    wg = TemporalWindowGraph(
        system.graph, window,
        compact_threshold=compact_threshold, batch_size=batch_size,
    )
    deg = np.zeros(nv, dtype=np.int64)
    for ts in stream:
        deg += np.bincount(ts.adds[:, 0], minlength=nv)
    source_list = np.argsort(-deg, kind="stable")[:sources]

    result = TemporalLoopResult(
        dataset, scale, window, compact_threshold, tuple(kernels), view_caching
    )
    for ts in stream:
        t0 = perf_counter()
        st = wg.advance(ts)
        result.ingest_wall_s += perf_counter() - t0
        view = kernel_sweep(system, kernels, source_list, st["step"], result)
        result.steps.append(StepRecord(
            step=st["step"],
            added=st["added"],
            churned=st["churn_deleted"],
            expired=st["expired"],
            compacted=st["compacted"],
            csr_digest=_csr_digest(view if view is not None
                                   else system.analysis_view()),
        ))
    result.counters = dict(wg.counters())
    result.stream_adds = sum(len(ts.adds) for ts in stream)
    result.counters["tombstone_pairs_compacted"] = (
        system.graph.tombstone_pairs_compacted
    )
    result.counters.update(system.view_counters())
    return result


def run(
    dataset=DEFAULT_DATASET,
    scale=1.0,
    window=DEFAULT_WINDOW,
    compact_threshold=DEFAULT_COMPACT_THRESHOLD,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    sources=8,
    batch_size: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> TemporalLoopPair:
    """Run both arms; assert kernel, modeled-time and per-step CSR identity."""
    cached, scratch = (
        run_temporal_loop(
            dataset, scale, window, compact_threshold, kernels, sources,
            batch_size, max_steps, view_caching=caching,
        )
        for caching in (True, False)
    )
    assert_arms_identical(cached, scratch, "step", "scratch")
    for sc, su in zip(cached.steps, scratch.steps):
        if sc.csr_digest != su.csr_digest:
            raise AssertionError(
                f"cached CSR diverged from scratch at step {sc.step}: "
                f"{sc.csr_digest[:12]} != {su.csr_digest[:12]}"
            )
        if (sc.added, sc.churned, sc.expired, sc.compacted) != (
            su.added, su.churned, su.expired, su.compacted
        ):
            raise AssertionError(
                f"arms applied different mutations at step {sc.step}"
            )
    return TemporalLoopPair(cached=cached, scratch=scratch)


def report(pair: TemporalLoopPair):
    yield temporal_loop_table(pair)


def gates(pair: TemporalLoopPair):
    c = pair.cached
    n = c.counters
    rows = view_reuse_gates(c, pair.scratch, len(c.steps), "step")
    rows.append(("edges added (every add of the stream)", c.stream_adds,
                 n["added"], n["added"] == c.stream_adds))
    default = (DEFAULT_DATASET, 1.0, DEFAULT_WINDOW, DEFAULT_COMPACT_THRESHOLD, 24)
    if (c.dataset, c.scale, c.window, c.compact_threshold, len(c.steps)) == default:
        rows += [(f"ledger: {k}", want, n[k], n[k] == want)
                 for k, want in DEFAULT_LEDGER.items()]
    return rows
