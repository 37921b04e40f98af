"""Windowed temporal streams — the ingest→expire→analyze loop, twinned.

The ``temporal`` arm replays a sliding-window stream (adds, churn,
expiry down the tombstone path, density-triggered compaction) twice —
epoch-versioned view cache vs from-scratch materialization — and owns
the gates: identity asserted in the pair runner, view-reuse counts, and
the seeded stream's mutation ledger — see ``repro.bench.temporal_loop``.
"""

from conftest import run_arm, run_once
from repro.bench import emit, format_table, temporal_loop


def test_temporal_loop(benchmark):
    run_arm(benchmark, temporal_loop)


def test_temporal_loop_window_zero_and_one(benchmark):
    """Degenerate windows stay identical across arms: W=0 (everything
    expires the step it arrives) and W=1 (only the current step lives)."""

    def run():
        rows = []
        for window in (0, 1):
            pair = temporal_loop.run(scale=0.25, window=window, sources=2, max_steps=8)
            assert all(ok for *_, ok in temporal_loop.gates(pair))
            c = pair.cached.counters
            # W=0: every add either churns or expires the same step, so
            # nothing outlives its step; W=1 keeps exactly one step.
            rows.append((window, c["added"], c["churn_deleted"] + c["expired"],
                         pair.speedup))
        return rows

    rows = run_once(benchmark, run)
    emit(format_table(
        "degenerate windows (identity asserted per pair)",
        ["window", "added", "deleted", "speedup"],
        rows,
    ))
    w0 = rows[0]
    assert w0[1] == w0[2], "window 0 must delete every copy it ingests"
