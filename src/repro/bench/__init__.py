"""Benchmark harness: regenerates every table and figure of the paper.

One arm per experiment (``run`` / ``report`` / ``gates`` — DESIGN.md
§17); ``python -m repro.bench`` and ``benchmarks/test_*`` are thin
drivers of the same ``run``.
"""

from .harness import (
    DEFAULT_BATCH_SIZE,
    build_system,
    get_built_system,
    get_static_csr,
    ingest,
    pick_source,
    run_kernel,
)
from .reporting import (
    emit,
    format_table,
    ingest_phase_table,
    paper_vs_measured,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "build_system",
    "ingest",
    "run_kernel",
    "get_built_system",
    "get_static_csr",
    "pick_source",
    "emit",
    "format_table",
    "ingest_phase_table",
    "paper_vs_measured",
]
