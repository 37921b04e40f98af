"""Plain-text tables for the benchmark harness.

Every experiment prints two things: the regenerated table/figure series
(same rows the paper reports) and, where the paper gives numbers, a
``paper vs measured`` comparison so EXPERIMENTS.md can be audited
against ``bench_output.txt`` directly.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    floatfmt: str = "{:.2f}",
) -> str:
    srows: List[List[str]] = []
    for row in rows:
        srows.append(
            [floatfmt.format(c) if isinstance(c, float) else str(c) for c in row]
        )
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [f"== {title} ==", " | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in srows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _check_rows(rows: Iterable[Sequence]) -> List[Sequence[str]]:
    """Format ``(label, expected, measured, ok)`` rows (counts exactly)."""
    return [
        (
            label,
            want if isinstance(want, str) else f"{want:g}",
            str(got) if isinstance(got, (str, int)) else f"{got:.3g}",
            "yes" if ok else "NO",
        )
        for label, want, got, ok in rows
    ]


def paper_vs_measured(title: str, rows: Iterable[Sequence]) -> str:
    """Rows: (metric, paper_value, measured_value, predicate_result)."""
    return format_table(
        f"{title} — paper vs measured", ("metric", "paper", "measured", "ok?"), _check_rows(rows)
    )


def gate_table(title: str, rows: Iterable[Sequence]) -> str:
    """An arm's ``gates()`` rows: (gate, want, measured, ok)."""
    return format_table(
        f"{title} — gates", ("gate", "want", "measured", "ok?"), _check_rows(rows)
    )


def ingest_phase_table(results: Iterable) -> str:
    """Per-phase wall-clock vs modeled time for ingest results.

    Rows come from ``InsertResult.counters`` (harness-populated): one
    row per (system, phase) with the measured Python wall-clock next to
    the modeled device time, so interpreter overhead is visible and
    comparable across batch sizes.
    """
    rows = []
    for r in results:
        c = getattr(r, "counters", {}) or {}
        batch = int(c.get("batch_size", 0)) or "-"
        for phase in ("warmup", "timed"):
            wall = c.get(f"{phase}_wall_s")
            modeled = c.get(f"{phase}_modeled_s")
            if wall is None:
                continue
            ratio = wall / modeled if modeled else 0.0
            rows.append((r.system, batch, phase, wall, modeled, ratio))
    return format_table(
        "ingest wall-clock vs modeled (per phase)",
        ["system", "batch", "phase", "wall (s)", "modeled (s)", "wall/modeled"],
        rows,
        floatfmt="{:.3f}",
    )


def profile_table(tracer, title: str = "profile") -> str:
    """Per-phase attribution table for a :class:`~repro.obs.Tracer`.

    One row per span name with *self* attribution (each span's counter
    delta minus its children's), plus an ``(untraced)`` row for device
    activity outside every root span and a ``total`` row from
    ``tracer.total_delta()``.  Self deltas partition the traced
    interval, so the modeled-ms column sums to the total row within
    float rounding and the integer columns sum exactly.
    """
    from ..obs import aggregate_phases

    rows_in, untraced = aggregate_phases(tracer)
    total = tracer.total_delta()
    total_ns = total.modeled_ns if total is not None else 0.0

    def fmt(name, count, modeled_ns, wall_ns, counters, wa):
        share = 100.0 * modeled_ns / total_ns if total_ns else 0.0
        return (
            name,
            count,
            modeled_ns * 1e-6,
            share,
            wall_ns * 1e-6,
            counters["stores"],
            counters["flushes"],
            counters["fences"],
            counters["media_bytes"] // 1024,
            wa,
        )

    rows = [
        fmt(r.name, r.count, r.modeled_ns, r.wall_ns, r.counters,
            r.write_amplification())
        for r in rows_in
    ]
    if untraced is not None:
        rows.append(fmt(
            untraced.name, "-", untraced.modeled_ns, untraced.wall_ns,
            untraced.counters, untraced.write_amplification(),
        ))
    if total is not None:
        rows.append(fmt(
            "total", "-", total.modeled_ns, 0,
            {k: getattr(total, k)
             for k in ("stores", "flushes", "fences", "media_bytes")},
            total.write_amplification(),
        ))
    return format_table(
        title,
        ["phase", "spans", "modeled (ms)", "%", "self wall (ms)",
         "stores", "flushes", "fences", "media (KiB)", "WA"],
        rows,
        floatfmt="{:.3f}",
    )


#: tables collected during a benchmark session; pytest's capture swallows
#: per-test stdout of passing tests, so the benchmarks' conftest flushes
#: this registry in ``pytest_terminal_summary`` — that is how every table
#: reaches the tee'd ``bench_output.txt``.
_REPORTS: List[str] = []


def emit(text: str) -> None:
    """Print a report block and queue it for the end-of-session summary."""
    print("\n" + text + "\n")
    _REPORTS.append(text)


def flush_reports() -> List[str]:
    out = list(_REPORTS)
    _REPORTS.clear()
    return out


__all__ = [
    "format_table",
    "paper_vs_measured",
    "gate_table",
    "ingest_phase_table",
    "profile_table",
    "emit",
    "flush_reports",
]
