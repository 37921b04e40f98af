"""Online serving layer: snapshot-isolated point queries under writes.

The offline kernels (``repro.algorithms``) analyze a frozen snapshot;
this package serves *point queries* — ``degree``, ``neighbors``,
``edge_exists``, ``k_hop``, ``top_k_degree`` — from the same
epoch-versioned view machinery while writers stream ``EdgeBatch``
rounds underneath:

* :class:`~repro.serve.server.QueryServer` reads the store through its
  one view cache (``graph.view_cache``, shared with every other reader
  of the store; it decides reuse, patches the shards' rows and prices
  the patch) and hands out immutable
  :class:`~repro.serve.server.ServeView` objects pinned at a structure
  epoch — snapshot isolation for free, because a refresh allocates new
  read-only arrays and never mutates the ones a held view references.
* :mod:`~repro.serve.workload` generates Zipfian-skewed, seeded
  read/write op streams (YCSB-style hot-key skew, deletes restricted
  to live edges so degree semantics stay exact).
* :mod:`~repro.serve.driver` replays an op stream on the modeled clock
  (per-client lanes closed-loop, Poisson arrivals open-loop), reports
  per-class modeled p50/p99 via ``repro.obs`` spans, and can run the
  byte-identity twin: every served read compared against a direct
  fresh-snapshot read of the same stream point.
"""

from .server import (
    EPOCH_CHECK_NS,
    QueryServer,
    ServeView,
    degree_ns,
    k_hop_ns,
    row_ns,
    snapshot_open_ns,
    top_k_ns,
)
from .workload import ServeWorkloadConfig, ZipfianSampler, generate_workload
from .driver import (
    QUERY_CLASSES,
    ServeReport,
    SnapshotReader,
    run_serve_workload,
)

__all__ = [
    "EPOCH_CHECK_NS",
    "QueryServer",
    "ServeView",
    "ServeWorkloadConfig",
    "ZipfianSampler",
    "generate_workload",
    "QUERY_CLASSES",
    "ServeReport",
    "SnapshotReader",
    "run_serve_workload",
    "degree_ns",
    "row_ns",
    "k_hop_ns",
    "top_k_ns",
    "snapshot_open_ns",
]
