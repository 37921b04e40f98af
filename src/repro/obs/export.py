"""Exporters and invariant checks for :class:`~repro.obs.tracer.Tracer` forests.

Three exporters:

* :func:`aggregate_phases` — per-phase *self* attribution (each span's
  delta minus its children's), grouped by span name.  Self values
  partition the traced interval, so the modeled-ns column of the
  ``bench profile`` table sums to the run total by construction.
* :func:`chrome_trace_events` / :func:`write_chrome_trace` — Chrome
  trace-event JSON (the ``{"traceEvents": [...]}`` format), loadable in
  Perfetto / ``chrome://tracing``.  Spans are complete ("X") events on
  the *modeled* timeline: ``modeled_ns`` is monotone non-decreasing, so
  child events always nest inside their parents.
* :func:`golden_tree` / :func:`render_tree` — a deterministic, purely
  structural serialization (span names, nesting, integer counter
  deltas) used by the golden-trace regression test.  Floats (modeled
  ns) and wall times are deliberately excluded so the fixture is stable
  across Python versions and machines while still pinning the hot-path
  event structure.

The checks — :func:`check_attribution`, :func:`check_recovery_reads`,
:func:`check_chrome_trace` — return human-readable failures (empty =
the invariant holds); the ``bench profile`` gates and the test suite
call the same functions.  :func:`distribution_stats` is the one
percentile summary.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..pmem.stats import INT_COUNTER_FIELDS
from .tracer import Span, Tracer


# -- per-phase aggregation -------------------------------------------------

class PhaseRow:
    """Aggregated self-attribution for all spans sharing one name."""

    __slots__ = ("name", "count", "modeled_ns", "wall_ns", "counters")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.modeled_ns = 0.0
        self.wall_ns = 0
        self.counters: Dict[str, int] = {k: 0 for k in INT_COUNTER_FIELDS}

    def add_self(self, span: Span) -> None:
        self.count += 1
        self.wall_ns += span.self_wall_ns()
        d = span.self_delta()
        if d is None:
            return
        self.modeled_ns += d.modeled_ns
        for k in INT_COUNTER_FIELDS:
            self.counters[k] += getattr(d, k)

    def write_amplification(self) -> float:
        payload = self.counters["payload_bytes"]
        return self.counters["stored_bytes"] / payload if payload else 0.0


def aggregate_phases(tracer: Tracer) -> Tuple[List[PhaseRow], Optional[PhaseRow]]:
    """Group self-attribution by span name; return (rows, untraced).

    ``untraced`` covers device activity between install and uninstall
    that fell outside every root span (None when the tracer had no
    stats).  Rows are sorted by descending self modeled ns; the modeled
    ns over all rows plus ``untraced`` equals ``tracer.total_delta()``
    exactly (up to float associativity), and the integer counters
    exactly, because self deltas partition the interval.
    """
    rows: Dict[str, PhaseRow] = {}
    for _, span in tracer.walk():
        row = rows.get(span.name)
        if row is None:
            row = rows[span.name] = PhaseRow(span.name)
        row.add_self(span)
    ordered = sorted(rows.values(), key=lambda r: (-r.modeled_ns, r.name))

    untraced: Optional[PhaseRow] = None
    total = tracer.total_delta()
    if total is not None:
        untraced = PhaseRow("(untraced)")
        untraced.modeled_ns = total.modeled_ns
        untraced.wall_ns = 0
        for k in INT_COUNTER_FIELDS:
            untraced.counters[k] = getattr(total, k)
        for root in tracer.roots:
            if root.delta is None:
                continue
            untraced.modeled_ns -= root.delta.modeled_ns
            for k in INT_COUNTER_FIELDS:
                untraced.counters[k] -= getattr(root.delta, k)
    return ordered, untraced


# -- Chrome trace-event JSON ----------------------------------------------

_MODELED_TID = 1
_DEVICE_TID = 2


def _span_event(span: Span) -> Dict[str, Any]:
    args: Dict[str, Any] = dict(span.attrs)
    args["wall_ns"] = span.wall_ns
    if span.delta is not None:
        for k in INT_COUNTER_FIELDS:
            v = getattr(span.delta, k)
            if v:
                args[k] = v
        if span.delta.payload_bytes:
            args["write_amplification"] = round(
                span.delta.write_amplification(), 4
            )
        ts = span.t0_modeled / 1e3
        dur = span.delta.modeled_ns / 1e3
    else:
        # No stats: fall back to the wall timeline (still nests correctly).
        ts = span.t0_wall / 1e3
        dur = span.wall_ns / 1e3
    return {
        "name": span.name,
        "cat": "modeled",
        "ph": "X",
        "ts": ts,
        "dur": dur,
        "pid": 1,
        "tid": _MODELED_TID,
        "args": args,
    }


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro modeled device"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": _MODELED_TID,
            "args": {"name": "spans (modeled time)"},
        },
    ]
    for _, span in tracer.walk():
        events.append(_span_event(span))
    if tracer.device_events:
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": _DEVICE_TID,
            "args": {"name": "device ops"},
        })
        for kind, at_ns, count, nbytes in tracer.device_events:
            events.append({
                "name": kind,
                "cat": "device",
                "ph": "i",
                "s": "t",
                "ts": at_ns / 1e3,
                "pid": 1,
                "tid": _DEVICE_TID,
                "args": {"count": count, "bytes": nbytes},
            })
    return events


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write ``{"traceEvents": [...]}`` JSON; returns the event count."""
    events = chrome_trace_events(tracer)
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "modeled_ns (ts/dur are modeled microseconds)",
            "dropped_device_events": tracer.dropped_device_events,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return len(events)


# -- invariant checks (empty list = the invariant holds) ------------------

def check_attribution(tracer: Tracer) -> List[str]:
    """Return human-readable failures; empty list = attribution is exact."""
    failures: List[str] = []
    total = tracer.total_delta()
    if total is None:
        return ["tracer has no stats; nothing to check"]
    rows, untraced = aggregate_phases(tracer)
    if not rows:
        failures.append("no spans were recorded")
        return failures

    modeled = sum(r.modeled_ns for r in rows) + untraced.modeled_ns
    tol = max(1e-6 * abs(total.modeled_ns), 1e-3)
    if abs(modeled - total.modeled_ns) > tol:
        failures.append(
            f"modeled-ns attribution leak: phases sum to {modeled}, "
            f"device total is {total.modeled_ns}"
        )
    for field in INT_COUNTER_FIELDS:
        got = sum(r.counters[field] for r in rows) + untraced.counters[field]
        want = getattr(total, field)
        if got != want:
            failures.append(
                f"counter {field!r} attribution leak: phases sum to {got}, "
                f"device total is {want}"
            )
    if untraced.modeled_ns < -tol:
        failures.append(
            f"(untraced) modeled ns is negative ({untraced.modeled_ns}): "
            "root spans overlap or double-count"
        )
    return failures


def check_recovery_reads(tracer: Tracer) -> List[str]:
    """A traced crash recovery reads every log byte once, sequentially:
    ``rebuild_log_cursors`` streams exactly the log region and
    ``replay_logs`` works from that image (no device read)."""
    reads = {
        r.name: (r.counters["seq_read_bytes"], r.counters["rnd_reads"])
        for r in aggregate_phases(tracer)[0]
    }
    failures: List[str] = []
    if any(reads.get("replay_logs", ())):
        failures.append(
            "replay_logs read the device (%d sequential bytes, %d random reads); "
            "it must work from the cursor-rebuild image" % reads["replay_logs"]
        )
    log_bytes = sum(s.attrs["log_bytes"] for s in tracer.find("rebuild_log_cursors"))
    if reads.get("rebuild_log_cursors", (0, 0)) != (log_bytes, 0):
        failures.append(
            "rebuild_log_cursors made %d random reads and streamed %d bytes of a "
            "%d-byte log region; expected one sequential pass"
            % (reads["rebuild_log_cursors"][::-1] + (log_bytes,))
        )
    return failures


def check_chrome_trace(path: str) -> List[str]:
    """Validate the written file is loadable Chrome trace-event JSON."""
    failures: List[str] = []
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        return [f"trace file {path!r} is not readable JSON: {e}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return [f"trace file {path!r} has no traceEvents array"]
    for i, ev in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                failures.append(f"event {i} missing {key!r}")
                break
        if ev.get("ph") == "X" and (ev.get("dur", -1) < 0 or ev.get("ts", -1) < 0):
            failures.append(f"event {i} ({ev.get('name')}) has bad ts/dur")
    return failures


# -- distribution summaries ------------------------------------------------

#: The canonical distribution summary order of the serving layer's
#: tail-latency stats.  ``p99`` is its headline tail metric.
DISTRIBUTION_KEYS = ("min", "p50", "mean", "p90", "p95", "p99", "max")

#: percentile value behind each ``pNN`` key (min/mean/max are computed
#: directly).
_PERCENTILES = {"p50": 50, "p90": 90, "p95": 95, "p99": 99}


def distribution_stats(values, unit: str = "us") -> Dict[str, float]:
    """Summary of a sample along :data:`DISTRIBUTION_KEYS`.

    Keys are suffixed with ``unit`` (``min_us``, ``p50_us``, ...);
    values are expected pre-scaled to that unit.  Returns ``{}`` for an
    empty sample.  This is the single percentile helper: the
    serve-workload latency report routes through it instead of
    hand-rolling ``np.percentile`` calls.
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        return {}
    out: Dict[str, float] = {}
    for key in DISTRIBUTION_KEYS:
        if key == "min":
            val = float(vals.min())
        elif key == "mean":
            val = float(vals.mean())
        elif key == "max":
            val = float(vals.max())
        else:
            val = float(np.percentile(vals, _PERCENTILES[key]))
        out[f"{key}_{unit}"] = val
    return out


# -- golden-tree serialization --------------------------------------------

#: counters pinned by the golden fixture: the write-path structure
#: (stores/flushes/fences and their byte totals).  Read-side counters and
#: anything float-valued are excluded for cross-platform stability.
GOLDEN_COUNTERS: Tuple[str, ...] = (
    "stores",
    "stored_bytes",
    "payload_bytes",
    "flushes",
    "flushed_lines",
    "fences",
    "ntstores",
    "media_bytes",
)
assert set(GOLDEN_COUNTERS) <= set(INT_COUNTER_FIELDS)


def _golden_span(span: Span) -> Dict[str, Any]:
    node: Dict[str, Any] = {"name": span.name}
    if span.delta is not None:
        counters = {
            k: getattr(span.delta, k)
            for k in GOLDEN_COUNTERS
            if getattr(span.delta, k)
        }
        if counters:
            node["counters"] = counters
    keep = {
        k: v for k, v in sorted(span.attrs.items())
        if isinstance(v, (int, str, bool)) and not isinstance(v, float)
    }
    if keep:
        node["attrs"] = keep
    if span.children:
        node["children"] = [_golden_span(c) for c in span.children]
    return node


def golden_tree(tracer: Tracer) -> Dict[str, Any]:
    """Deterministic structural summary of a trace for fixture pinning."""
    doc: Dict[str, Any] = {
        "version": 1,
        "span_count": tracer.span_count(),
        "roots": [_golden_span(r) for r in tracer.roots],
    }
    total = tracer.total_delta()
    if total is not None:
        doc["total"] = {
            k: getattr(total, k) for k in GOLDEN_COUNTERS if getattr(total, k)
        }
    return doc


def render_tree(doc: Dict[str, Any]) -> List[str]:
    """Flatten a golden tree into readable lines for diffing in failures."""
    lines = [f"span_count={doc.get('span_count')}"]
    total = doc.get("total")
    if total:
        lines.append(
            "total: " + " ".join(f"{k}={v}" for k, v in sorted(total.items()))
        )

    def walk(node: Dict[str, Any], depth: int) -> None:
        parts = [("  " * depth) + node["name"]]
        attrs = node.get("attrs")
        if attrs:
            parts.append(
                "[" + " ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
            )
        counters = node.get("counters")
        if counters:
            parts.append(
                " ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            )
        lines.append(" ".join(parts))
        for child in node.get("children", ()):
            walk(child, depth + 1)

    for root in doc.get("roots", ()):
        walk(root, 0)
    return lines


__all__ = [
    "INT_COUNTER_FIELDS",
    "GOLDEN_COUNTERS",
    "PhaseRow",
    "aggregate_phases",
    "chrome_trace_events",
    "write_chrome_trace",
    "golden_tree",
    "render_tree",
]
