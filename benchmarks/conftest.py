"""Shared benchmark configuration.

Benchmarks regenerate the paper's tables and figures on scaled proxy
datasets (``REPRO_SCALE`` environment variable, default 1.0 — see
``repro.datasets.registry`` for the proxy sizes).  Built systems are
cached across benchmarks within a session, so the analysis experiments
reuse the ingest done by the throughput experiments.

Every measured table comes from an arm of ``repro.bench`` — the same
``run`` the ``python -m repro.bench`` subcommand drives; ``run_arm``
also enforces the arm's gates.  The twins (cached vs from-scratch view,
served vs snapshot reads, sharded vs one pool, vectorized vs scalar
reads) are tests under ``tests/``, timed by ``benchmarks/perf``.

Run with ``pytest benchmarks/ --benchmark-only``; printed tables land
in the captured output (and thus in ``bench_output.txt``).
"""

import pytest

from repro.bench.harness import finish_arm
from repro.bench.reporting import emit, flush_reports
from repro.datasets import env_scale


def pytest_terminal_summary(terminalreporter):
    """Replay every experiment table into the terminal (and the tee'd
    bench_output.txt) — per-test stdout of passing tests is captured."""
    reports = flush_reports()
    if reports:
        terminalreporter.section("regenerated paper tables & figures")
        for block in reports:
            terminalreporter.write_line("")
            terminalreporter.write_line(block)


@pytest.fixture(scope="session")
def scale() -> float:
    return env_scale(1.0)


def run_once(benchmark, fn):
    """Record one timed run of ``fn`` with pytest-benchmark (experiments
    are long; statistical repetition adds nothing to modeled results)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def run_arm(benchmark, arm, **params):
    """One timed ``arm.run``; emit its report, enforce its gates."""
    return finish_arm(arm, run_once(benchmark, lambda: arm.run(**params)), emit)
