"""Vectorized read-path twin — scalar reference vs bulk pmem reads.

The ``readpath`` arm runs the rebalance-heavy loop and crash recovery
on both paths; its gate is the contract (identical bytes, media and
device accounting), its wall ratio is printed — see
``repro.bench.readpath``.
"""

from conftest import run_arm
from repro.bench import readpath


def test_readpath_twin(benchmark, scale):
    run_arm(benchmark, readpath, scale=scale)
