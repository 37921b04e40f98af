"""Unit tests for the ``repro.obs`` tracing subsystem.

Covers the tracer's own contract — no-op when off, correct tree
construction, exact self-attribution arithmetic, device-event capture,
exporter output — independent of the DGAP instrumentation (which the
golden/differential/property tests exercise).
"""

import json

import numpy as np
import pytest

from repro.errors import SimulatedCrash
from repro.obs import (
    INT_COUNTER_FIELDS,
    Tracer,
    active_tracer,
    aggregate_phases,
    annotate,
    chrome_trace_events,
    golden_tree,
    kernel_span,
    render_tree,
    trace,
    traced,
    tracing,
    write_chrome_trace,
)
from repro.obs import tracer as tracer_mod
from repro.pmem import device as device_mod
from repro.pmem.crash import CrashInjector, CrashPlan

from .stores import make_store

SMALL = dict(init_vertices=24, init_edges=256, segment_slots=64)


def test_trace_is_noop_when_off():
    assert active_tracer() is None
    cm1 = trace("anything", a=1)
    cm2 = trace("else")
    assert cm1 is cm2  # the shared no-op singleton: no allocation per call
    with cm1:
        annotate(x=1)  # must not raise
    assert device_mod.TRACE_HOOK is None


def test_traced_decorator_is_free_when_off(monkeypatch):
    """Off: the plain call — no span object, no attr callable run, and
    nothing left allocated behind."""
    import sys

    ran = []

    @traced("work", n=lambda x: ran.append(x) or x)
    def work(x):
        return x + 1

    def no_spans(*a, **k):
        raise AssertionError("a span was constructed with tracing off")

    monkeypatch.setattr(tracer_mod, "Span", no_spans)
    assert active_tracer() is None
    assert work(1) == 2 and work.__name__ == "work"
    blocks = sys.getallocatedblocks()
    for _ in range(1000):
        work(1)
    assert sys.getallocatedblocks() - blocks < 10  # nothing retained per call
    assert ran == []


def test_traced_decorator_opens_one_span_when_on():
    ran = []

    @traced("inner", n=lambda x: ran.append(x) or x)
    def inner(x):
        annotate(seen=True)
        return x * 2

    @traced("outer")
    def outer(x):
        return inner(x) + inner(x=x + 1)

    t = Tracer()
    with tracing(t):
        assert outer(3) == 14
    assert ran == [3, 4]  # attr callables ran once per traced call
    (root,) = t.roots
    assert root.name == "outer" and root.attrs == {}
    assert [(c.name, c.attrs) for c in root.children] == [
        ("inner", {"n": 3, "seen": True}),
        ("inner", {"n": 4, "seen": True}),
    ]


def test_span_tree_structure_and_indices():
    t = Tracer()
    with tracing(t):
        with trace("a"):
            with trace("b"):
                pass
            with trace("c"):
                with trace("d"):
                    pass
        with trace("e"):
            pass
    assert [r.name for r in t.roots] == ["a", "e"]
    a = t.roots[0]
    assert [c.name for c in a.children] == ["b", "c"]
    assert [c.name for c in a.children[1].children] == ["d"]
    # preorder indices are assigned at entry
    assert [s.index for _, s in t.walk()] == [0, 1, 2, 3, 4]
    assert t.span_count() == 5
    assert [s.name for s in t.find("c")] == ["c"]
    assert active_tracer() is None  # uninstalled by the context manager


def test_span_survives_exceptions_and_records_error():
    t = Tracer()
    with tracing(t):
        with pytest.raises(ValueError):
            with trace("outer"):
                with trace("inner"):
                    raise ValueError("boom")
    outer = t.roots[0]
    assert outer.name == "outer"
    assert outer.children[0].name == "inner"
    assert outer.attrs["error"] == "ValueError"
    assert outer.children[0].attrs["error"] == "ValueError"


def test_uninstall_closes_leftover_open_spans():
    t = Tracer()
    t.install()
    span = t.span("left-open").__enter__()
    t.uninstall()
    assert t.roots and t.roots[0] is span
    assert span.wall_ns >= 0
    assert active_tracer() is None


def test_install_errors():
    t1, t2 = Tracer(), Tracer()
    t1.install()
    with pytest.raises(RuntimeError):
        t2.install()  # one at a time
    t1.uninstall()
    with pytest.raises(RuntimeError):
        t1.install()  # no re-install of a used tracer
    with pytest.raises(RuntimeError):
        t1.uninstall()  # not installed
    t2.install()
    t2.uninstall()


def test_annotate_targets_innermost_span():
    t = Tracer()
    with tracing(t):
        with trace("outer"):
            annotate(level="outer")
            with trace("inner"):
                annotate(level="inner", extra=1)
    assert t.roots[0].attrs == {"level": "outer"}
    assert t.roots[0].children[0].attrs == {"level": "inner", "extra": 1}


def test_counter_attribution_against_device():
    g = make_store(**SMALL)
    t = Tracer(g.pool.stats)
    dev = g.pool.device
    with tracing(t):
        with trace("parent"):
            dev.store(0, b"\x01" * 8)
            with trace("child"):
                dev.persist(0, 8)  # clwb + sfence
            dev.store(64, b"\x02" * 4)
    parent, child = t.roots[0], t.roots[0].children[0]
    assert parent.delta.stores == 2
    assert parent.delta.flushes == 1
    assert parent.delta.fences == 1
    assert child.delta.stores == 0
    assert child.delta.flushes == 1
    assert child.delta.fences == 1
    # self = delta - children, exactly
    self_d = parent.self_delta()
    assert self_d.stores == 2 and self_d.flushes == 0 and self_d.fences == 0
    assert self_d.modeled_ns == pytest.approx(
        parent.delta.modeled_ns - child.delta.modeled_ns
    )
    total = t.total_delta()
    assert total.stores == 2 and total.flushes == 1 and total.fences == 1


def test_aggregate_phases_partitions_the_total():
    g = make_store(**SMALL)
    rng = np.random.default_rng(3)
    edges = rng.integers(0, SMALL["init_vertices"], size=(400, 2))
    t = Tracer(g.pool.stats)
    with tracing(t):
        g.insert_edges(edges, batch_size=64)
        g.pool.device.store(0, b"\x05")  # outside any span? no — root-less
    rows, untraced = aggregate_phases(t)
    total = t.total_delta()
    for f in INT_COUNTER_FIELDS:
        assert sum(r.counters[f] for r in rows) + untraced.counters[f] == getattr(
            total, f
        ), f
    modeled = sum(r.modeled_ns for r in rows) + untraced.modeled_ns
    assert modeled == pytest.approx(total.modeled_ns, rel=1e-9, abs=1e-3)
    # the bare store above ran outside every span -> lands in (untraced)
    assert untraced.counters["stores"] == 1


def test_device_events_capture_and_cap(monkeypatch):
    g = make_store(**SMALL)
    monkeypatch.setattr(tracer_mod, "MAX_DEVICE_EVENTS", 3)
    t = Tracer(g.pool.stats, device_ops=True)
    dev = g.pool.device
    with tracing(t):
        for i in range(5):
            dev.store(i * 64, b"\x01")
    assert len(t.device_events) == 3
    assert t.dropped_device_events == 2
    kinds = {e[0] for e in t.device_events}
    assert kinds == {"store"}
    assert device_mod.TRACE_HOOK is None  # uninstalled


def test_device_events_cover_batched_ops():
    g = make_store(**SMALL)
    t = Tracer(g.pool.stats, device_ops=True)
    dev = g.pool.device
    offs = np.arange(4, dtype=np.int64) * 64
    data = np.zeros((4, 4), dtype=np.uint8)
    with tracing(t):
        dev.persist_batch(offs, data)
    kinds = [(k, n) for k, _, n, _ in t.device_events]
    assert ("store", 4) in kinds and ("flush", 4) in kinds and ("fence", 4) in kinds


def test_device_events_identical_counts_under_crash_injection():
    # The scalar crash-sensitive fallback must emit per-op events that
    # sum to the batched path's counts.
    g = make_store(**SMALL)
    t = Tracer(g.pool.stats, device_ops=True)
    inj = CrashInjector(CrashPlan(10**9))  # armed far away: scalar fallback
    g2 = make_store(injector=inj, **SMALL)
    t2 = Tracer(g2.pool.stats, device_ops=True)
    edges = np.array([[1, 2], [2, 3], [3, 4]])
    with tracing(t):
        g.insert_edges(edges, batch_size=0)
    with tracing(t2):
        g2.insert_edges(edges, batch_size=0)

    def totals(tr):
        acc = {}
        for kind, _, n, nb in tr.device_events:
            c, b = acc.get(kind, (0, 0))
            acc[kind] = (c + n, b + nb)
        return acc

    assert totals(t) == totals(t2)


def test_kernel_span_records_analysis_clock():
    from repro.algorithms import pagerank
    from repro.analysis.view import CSRArraysView

    g = make_store(**SMALL)
    g.insert_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    with g.consistent_view() as snap:
        view = CSRArraysView(*snap.to_csr())
    t = Tracer(g.pool.stats)
    with tracing(t):
        pagerank(view, iterations=2)
    spans = t.find("pr")
    assert len(spans) == 1
    assert spans[0].attrs["analysis_par_ns"] > 0
    # kernels never touch the device
    assert spans[0].delta.stores == 0 and spans[0].delta.modeled_ns == 0.0


def test_kernel_span_is_noop_when_off():
    from repro.algorithms import pagerank
    from repro.analysis.view import CSRArraysView

    g = make_store(**SMALL)
    g.insert_edges(np.array([[0, 1], [1, 0]]))
    with g.consistent_view() as snap:
        ranks = pagerank(CSRArraysView(*snap.to_csr()), iterations=2)
    assert ranks.shape[0] == g.num_vertices


def test_chrome_trace_events_nest_on_modeled_timeline(tmp_path):
    g = make_store(**SMALL)
    rng = np.random.default_rng(5)
    edges = rng.integers(0, SMALL["init_vertices"], size=(300, 2))
    t = Tracer(g.pool.stats, device_ops=True)
    with tracing(t):
        g.insert_edges(edges, batch_size=64)
    events = chrome_trace_events(t)
    xs = [e for e in events if e["ph"] == "X"]
    assert xs, "no complete events emitted"
    for e in xs:
        assert e["ts"] >= 0 and e["dur"] >= 0
    # children nest inside parents on the modeled timeline
    spans = {id(s): s for _, s in t.walk()}
    for s in spans.values():
        for c in s.children:
            assert c.t0_modeled >= s.t0_modeled
            assert (
                c.t0_modeled + c.delta.modeled_ns
                <= s.t0_modeled + s.delta.modeled_ns + 1e-6
            )
    path = tmp_path / "trace.json"
    n = write_chrome_trace(t, str(path))
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == n
    assert any(e["ph"] == "i" for e in doc["traceEvents"])  # device events


def test_golden_tree_round_trip_and_rendering():
    g = make_store(**SMALL)
    t = Tracer(g.pool.stats)
    with tracing(t):
        g.insert_edges(np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))
    doc = golden_tree(t)
    assert doc["span_count"] == t.span_count()
    # JSON round trip is identity (fixture-file safety)
    assert json.loads(json.dumps(doc)) == doc
    lines = render_tree(doc)
    assert lines[0] == f"span_count={t.span_count()}"
    assert any("insert_edges" in ln for ln in lines)


def test_profile_table_sums_and_total_row():
    from repro.bench.reporting import profile_table

    g = make_store(**SMALL)
    rng = np.random.default_rng(7)
    edges = rng.integers(0, SMALL["init_vertices"], size=(500, 2))
    t = Tracer(g.pool.stats)
    with tracing(t):
        g.insert_edges(edges, batch_size=128)
    table = profile_table(t, title="unit")
    assert "== unit ==" in table
    assert "(untraced)" in table and "total" in table
    assert "batch_round" in table


def test_crash_inside_span_closes_cleanly():
    inj = CrashInjector()
    g = make_store(injector=inj, **SMALL)
    inj.arm(5)
    t = Tracer(g.pool.stats)
    with tracing(t):
        with pytest.raises(SimulatedCrash):
            with trace("doomed"):
                for i in range(50):
                    g.insert_edge(1, 2)
    doomed = t.find("doomed")[0]
    assert doomed.delta is not None
    assert doomed.attrs["error"] == "SimulatedCrash"
