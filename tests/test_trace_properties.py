"""Property tests for span attribution (ISSUE 5 satellite).

For random operation sequences against a small DGAP (the geometry from
``tests/test_view_cache.py`` that forces merges, rebalances and
resizes), the counter-snapshot attribution must satisfy, at every node
of the span forest:

* **containment** — children run inside their parent, counters are
  monotone, so the sum of child deltas never exceeds the parent's delta
  (exactly for integer counters; within float-summation tolerance for
  modeled ns);
* **partition** — root-span deltas plus the untraced remainder equal
  the device total from ``PMemStats`` (no double-count, no leak).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.obs import INT_COUNTER_FIELDS, Tracer, check_attribution, trace, tracing
from repro.pmem.faults import FaultPolicy
from .harness.soaksweep import SoakConfig, soak_sweep

common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

NV = 24
SMALL = dict(init_vertices=NV, init_edges=256, segment_slots=64)

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("ins"), st.integers(0, NV - 1), st.integers(0, NV - 1)),
        st.tuples(st.just("del"), st.integers(0, NV - 1), st.integers(0, NV - 1)),
        st.tuples(
            st.just("batch"),
            st.lists(
                st.tuples(st.integers(0, NV - 1), st.integers(0, NV - 1)),
                min_size=1,
                max_size=40,
            ),
        ),
        st.tuples(st.just("analyze")),
    ),
    min_size=1,
    max_size=40,
)


def apply_op(g: DGAP, op) -> None:
    if op[0] == "ins":
        g.insert_edge(op[1], op[2])
    elif op[0] == "del":
        g.delete_edge(op[1], op[2])
    elif op[0] == "batch":
        g.insert_edges(np.array(op[1], dtype=np.int64), batch_size=16)
    else:
        with g.consistent_view() as snap:
            snap.to_csr()


def child_sums(span):
    sums = {k: 0 for k in INT_COUNTER_FIELDS}
    ns = 0.0
    for c in span.children:
        assert c.delta is not None
        ns += c.delta.modeled_ns
        for k in INT_COUNTER_FIELDS:
            sums[k] += getattr(c.delta, k)
    return ns, sums


def assert_containment(span):
    """sum(children) <= parent, recursively."""
    ns, sums = child_sums(span)
    assert span.delta is not None
    tol = max(1e-9 * abs(span.delta.modeled_ns), 1e-6)
    assert ns <= span.delta.modeled_ns + tol, (
        f"span {span.name!r}: children modeled ns {ns} exceeds "
        f"parent delta {span.delta.modeled_ns}"
    )
    for k in INT_COUNTER_FIELDS:
        assert sums[k] <= getattr(span.delta, k), (
            f"span {span.name!r}: children {k} {sums[k]} exceeds "
            f"parent {getattr(span.delta, k)}"
        )
    for c in span.children:
        assert_containment(c)


@common
@given(ops=ops_strategy)
def test_child_spans_never_exceed_parent_and_roots_sum_to_total(ops):
    g = DGAP(DGAPConfig(**SMALL))
    tracer = Tracer(g.pool.stats)
    with tracing(tracer):
        for op in ops:
            with trace("op", kind=op[0]):
                apply_op(g, op)

    # containment at every level of the forest
    for root in tracer.roots:
        assert_containment(root)

    # partition: every op ran inside a root span, so root deltas sum to
    # the device total — integer counters exactly, modeled ns to float
    # summation tolerance.
    total = tracer.total_delta()
    for k in INT_COUNTER_FIELDS:
        got = sum(getattr(r.delta, k) for r in tracer.roots)
        assert got == getattr(total, k), (k, got, getattr(total, k))
    got_ns = sum(r.delta.modeled_ns for r in tracer.roots)
    assert got_ns == pytest.approx(total.modeled_ns, rel=1e-9, abs=1e-3)

    # the same identity as exposed through the aggregation used by
    # `bench profile`: self-attribution plus (untraced) partitions total
    assert check_attribution(tracer) == []


@common
@given(ops=ops_strategy)
def test_wall_clock_containment(ops):
    """Child wall time never exceeds the parent's (perf_counter is monotone)."""
    g = DGAP(DGAPConfig(**SMALL))
    tracer = Tracer(g.pool.stats)
    with tracing(tracer):
        for op in ops:
            with trace("op", kind=op[0]):
                apply_op(g, op)

    def check(span):
        assert sum(c.wall_ns for c in span.children) <= span.wall_ns
        assert span.self_wall_ns() >= 0
        for c in span.children:
            check(c)

    for root in tracer.roots:
        check(root)


def test_traced_runtime_fault_soak_attribution_is_exact():
    """``bench profile``'s identity over a managed soak: the counter list
    is derived from ``PMemStats``, so retries, transient faults and
    runtime poison are attributed to spans like every other counter."""
    runtime = ("transient_faults", "read_retries", "runtime_poison_events")
    assert set(runtime) <= set(INT_COUNTER_FIELDS)
    policy = FaultPolicy(read_poison_rate=2e-3, transient_read_rate=5e-3, seed=1)
    tracers = []

    def make_graph(injector, faults):
        g = DGAP(DGAPConfig(**SMALL, elog_size=96), injector=injector, faults=faults)
        if not tracers:  # the subject is built first; its twin stays unobserved
            tracers.append(Tracer(g.pool.stats))
            tracers[0].install()
        return g

    ops = [("insert", i % 4, (7 * i) % 64) for i in range(600)]
    try:
        soak_sweep(make_graph, ops, SoakConfig(
            faults=policy, rounds=3, scrub_every=10, patrol_bytes=32 * 1024))
    finally:
        tracers[0].uninstall()
    assert check_attribution(tracers[0]) == []
    assert all(getattr(tracers[0].total_delta(), k) > 0 for k in runtime)
