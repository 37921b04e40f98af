"""Shard-scaling twin — one pool vs 4 pools on the same edge stream.

The ``shard`` arm over the synthetic ``scale`` notch (the headroom
dataset one step above the largest paper proxy): batched ingest,
vthreads and crash recovery, all gated on modeled time so the floors
engage at every ``REPRO_SCALE`` — see ``repro.bench.shard``.
"""

from conftest import run_arm
from repro.bench import shard


def test_shard_scaling(benchmark, scale):
    run_arm(benchmark, shard, dataset="scale", scale=scale)
