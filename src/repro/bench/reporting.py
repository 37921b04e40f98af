"""Plain-text tables for the benchmark harness.

Every experiment prints two things: the regenerated table/figure series
(same rows the paper reports) and, where the paper gives numbers, a
``paper vs measured`` comparison so EXPERIMENTS.md can be audited
against ``bench_output.txt`` directly.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..obs import DISTRIBUTION_KEYS


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


def paper_vs_measured(
    title: str,
    rows: Iterable[Sequence],
    headers: Sequence[str] = ("metric", "paper", "measured", "ok?"),
) -> str:
    """Rows: (metric, paper_value, measured_value, predicate_result)."""
    return format_table(f"{title} — paper vs measured", headers, _check_rows(rows))


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


def crash_sweep_table(report, title: str = "crash sweep") -> str:
    """Summarize a :class:`~repro.testing.SweepReport` (§4.4 robustness).

    One table: sweep coverage (events, points, exhaustive or sampled),
    oracle outcomes (in-flight ops that landed, reported-unrecoverable
    points under a poison policy), and the modeled recovery-time
    distribution across crash points.
    """
    pol = report.policy
    faults = ", ".join(
        s for s, on in (
            ("torn-stores", pol.torn_stores),
            ("persist-reorder", pol.persist_reorder),
            (f"poison={pol.poison_on_crash}", pol.poison_on_crash > 0),
            (f"transient={pol.transient_read_rate:g}", pol.transient_read_rate > 0),
        ) if on
    ) or "none (clean ADR)"
    rows = [
        ("persistence events", report.total_events),
        ("crash points swept", report.crash_points),
        ("coverage", "exhaustive" if report.exhaustive else "sampled"),
        ("fault policy", faults),
        ("in-flight op landed", report.in_flight_applied_count()),
        ("unrecoverable (reported)", report.unrecoverable_count()),
    ]
    stats = report.recovery_stats()
    for name in DISTRIBUTION_KEYS:
        key = f"{name}_us"
        if key in stats:
            rows.append((f"recovery {name} (us)", stats[key]))
    return format_table(title, ["metric", "value"], rows, floatfmt="{:.2f}")


def soak_table(report, title: str = "soak sweep") -> str:
    """Summarize a :class:`~repro.testing.SoakReport` (PR 7 robustness).

    Header rows give the run-level verdict — fault points survived,
    final health, damage accounting, and which oracle legs ran — then
    one row per round with that round's fault/repair activity.
    """
    pol = report.config.faults
    head = [
        ("ops applied / total", f"{report.ops_applied} / {report.ops_total}"),
        ("ops skipped (enumerated)", report.ops_skipped),
        ("fault points survived", report.fault_points),
        ("  transient (retried)", report.transient_faults),
        ("  hard poison", report.poison_events),
        ("quarantined ranges", report.quarantined),
        ("lost edges (enumerated)", report.lost_edges),
        ("final health", report.health.value),
        ("byte-identity checked", "yes" if report.byte_compared else "no (lossy divergence)"),
        ("fault policy", f"poison={pol.read_poison_rate:g} transient={pol.transient_read_rate:g} seed={pol.seed}"),
    ]
    out = [format_table(title, ["metric", "value"], head)]
    rows = [
        (
            r.round_index, r.ops_applied, r.scrub_steps,
            r.transient_faults, r.read_retries, r.poison_events,
            r.quarantined, r.lost_edges, r.health.value,
            r.analysis_result if r.analyzed else "-",
        )
        for r in report.rounds
    ]
    out.append(format_table(
        f"{title} — per round",
        ["round", "ops", "scrubs", "transient", "retries", "poison",
         "quarantined", "lost", "health", "edges seen"],
        rows,
    ))
    return "\n\n".join(out)


def race_check_table(report, title: str = "race check") -> str:
    """Summarize a :class:`~repro.testing.RaceCheckReport`.

    One row per scenario: how many schedules were driven, whether the
    schedule space was exhausted or sampled, how many interleaving
    decision points and protocol events those schedules covered, and
    the lock-discipline oracle's verdict (violations must be zero).
    """
    rows = [
        (
            s.name,
            s.schedules,
            "exhaustive" if s.exhaustive else "sampled",
            s.decision_points,
            s.events,
            s.violations,
            "ok" if s.ok else "FAIL",
        )
        for s in report.scenarios
    ]
    table = format_table(
        title,
        ["scenario", "schedules", "coverage", "decisions", "events", "violations", "verdict"],
        rows,
    )
    if report.failures:
        table += "\nfailures:\n" + "\n".join(
            f"  {f}" for f in report.failures[:10]
        )
    return table


def race_check_dry_table(counts, title: str = "race check (dry run)") -> str:
    """Per-scenario event counts from one default schedule each —
    the pre-flight view of how much interleaving surface a full
    exploration would cover (mirrors the crash sweep's dry run)."""
    kinds = sorted({k for c in counts.values() for k in c if k != "decision-points"})
    rows = [
        (name,)
        + tuple(c.get(k, 0) for k in kinds)
        + (c.get("decision-points", 0),)
        for name, c in counts.items()
    ]
    return format_table(title, ["scenario"] + kinds + ["decisions"], rows)


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
    "crash_sweep_table",
    "soak_table",
    "profile_table",
    "race_check_table",
    "race_check_dry_table",
    "emit",
    "flush_reports",
]
