"""Serving-layer twin — snapshot-isolated views vs per-query snapshots.

The ``serve`` arm on its pinned geometry (``dataset=None``: the vertex
count is fixed because the speedup is an nv-dependent ratio;
``REPRO_SCALE`` scales the op count only).  Byte-identity, the modeled
read-speedup floors and the reuse floor live with the arm — see
``repro.bench.serve``.
"""

import pytest
from conftest import run_arm
from repro.bench import serve


@pytest.mark.parametrize("shards", [1, 4], ids=["unsharded", "sharded"])
def test_serve_twin(benchmark, scale, shards):
    run_arm(benchmark, serve, dataset=None, shards=shards,
            ops=max(400, int(1500 * scale)), seed=7)
