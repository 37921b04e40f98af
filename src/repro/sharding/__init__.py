"""Sharded multi-pool DGAP: vertex-striped shards behind a routing facade.

See DESIGN.md §14.  Public surface:

* :class:`ShardedDGAP` — N independent DGAP instances (own pool, locks,
  logs, fault policy each) addressed by global vertex ids.
* :class:`ShardRouter` — vectorized per-shard batch splitting.
* :class:`ShardedViewCache` — the view cache a store owns and hands out
  as ``g.view_cache`` (a plain ``DGAP`` is the one-shard case): decides
  reuse, patches each shard's rows, builds the merged global (out, in)
  CSR on demand — byte-identical to an unsharded build of the same
  stream — and prices both (``cache.last``).
* :mod:`~repro.sharding.partition` — the block-mixed id mapping.
"""

from .merge import ShardedViewCache, merge_in_csr, merge_out_csr
from .partition import (
    global_vertex_count,
    local_count,
    local_ids_to_global,
    shard_of,
    to_global,
    to_local,
)
from .router import ShardRouter
from .sharded import ShardedDGAP, ShardPoolGroup, shard_config

__all__ = [
    "ShardedDGAP",
    "ShardPoolGroup",
    "ShardRouter",
    "ShardedViewCache",
    "shard_config",
    "merge_out_csr",
    "merge_in_csr",
    "shard_of",
    "to_local",
    "to_global",
    "local_count",
    "global_vertex_count",
    "local_ids_to_global",
]
