"""Incremental analytics views — the ingest→analyze loop, cached vs scratch.

The Fig. 7/8 experiments analyze one final graph; deployments interleave
ingest with repeated analysis.  The ``analysis-loop`` arm replays that
loop twice on identical streams and owns the gates (identity asserted
in the pair runner; view-reuse counts; the deterministic incrementality
proof) — see ``repro.bench.analysis_loop``.
"""

from conftest import run_arm
from repro.bench import analysis_loop


def test_analysis_loop(benchmark):
    run_arm(benchmark, analysis_loop)
