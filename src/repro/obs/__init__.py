"""Observability layer: hierarchical spans with modeled-time attribution.

``repro.obs`` attributes modeled nanoseconds, wall nanoseconds, and the
full :class:`~repro.pmem.stats.PMemStats` counter block (stores, flushes,
fences, media bytes, write amplification) to hierarchical spans —
``insert_edges`` → ``batch_round`` → ``merge`` → device ops — without
perturbing the system under observation.

Zero overhead when off: every instrumentation site calls
:func:`trace`, which returns a shared no-op context manager unless a
:class:`Tracer` has been installed.  When on, spans only *read* device
state (counter snapshots via ``PMemStats.snapshot``/``delta_since`` and
``time.perf_counter_ns``); they never store, flush, fence, or charge
modeled time, so a traced run is event- and counter-identical to an
untraced one (proven by ``tests/test_trace_differential.py``).

Typical use — on any store: a sharded store's ``pool.stats`` is the
summed view over its pools (device work; elapsed time over pools that
tick in parallel is ``pool.clocks()``)::

    from repro.obs import Tracer, tracing

    g = ShardedDGAP(4, config)      # or DGAP(config)
    tracer = Tracer(g.pool.stats)
    with tracing(tracer):
        g.insert_edges(edges)
    for root in tracer.roots:
        print(root.name, root.delta.modeled_ns, root.delta.flushes)

Exporters live in :mod:`repro.obs.export` (Chrome trace-event JSON for
Perfetto, golden-tree serialization for regression fixtures, and the
per-phase aggregation behind the ``bench profile`` table), beside
the invariant checks over a traced run and the percentile summary.
"""

from .export import (
    DISTRIBUTION_KEYS,
    INT_COUNTER_FIELDS,
    aggregate_phases,
    check_attribution,
    check_chrome_trace,
    check_recovery_reads,
    chrome_trace_events,
    distribution_stats,
    golden_tree,
    render_tree,
    write_chrome_trace,
)
from .tracer import (
    Span,
    Tracer,
    active_tracer,
    annotate,
    kernel_span,
    trace,
    traced,
    tracing,
)

__all__ = [
    "Span",
    "Tracer",
    "active_tracer",
    "annotate",
    "kernel_span",
    "trace",
    "traced",
    "tracing",
    "DISTRIBUTION_KEYS",
    "INT_COUNTER_FIELDS",
    "aggregate_phases",
    "check_attribution",
    "check_chrome_trace",
    "check_recovery_reads",
    "chrome_trace_events",
    "distribution_stats",
    "golden_tree",
    "render_tree",
    "write_chrome_trace",
]
