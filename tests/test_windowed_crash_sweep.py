"""Crash sweeps over windowed temporal workloads (the deletion fortress).

``make_windowed_workload`` replays a sliding-window stream as scalar
inserts, ``("expire", pairs)`` tombstone runs, and ``("compact",)``
tombstone-merge sweeps.  What the sweeps below pin:

* crashes *inside* an expiry run recover to the acked prefix plus some
  prefix of the in-flight run's deletes (the oracle tries every cut);
* crashes *inside* a compaction sweep are logically invisible — the
  generation switch either drops the whole sweep (the root never
  flipped; the half-built generation is freed at the reopen) or rolls
  it forward (the image's COPYBACK commit landed: flip, clears, finish),
  and reads never change either way — under the default, torn-store and
  persist-reorder policies, every sweep after the first streaming into
  a freed-then-reused region;
* with poison planted on the lines a crash tears (adversarial policy),
  recovery either repairs (dead bytes: a half-built or retired
  generation) or refuses (the committed image, the current generation)
  — never zeroes an image and then adopts it;
* both hold exhaustively on a single pool, and under sampled sweeps on
  the sharded facade where one machine-wide crash power-fails every
  pool mid-stream.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.pmem.faults import (
    ADVERSARIAL,
    DEFAULT_POLICY,
    PERSIST_REORDER,
    TORN_STORES,
    FaultPolicy,
)
from repro.sharding import ShardedDGAP
from repro.testing import (
    Model,
    SweepConfig,
    crash_sweep,
    make_windowed_workload,
    model,
)

CFG = dict(init_vertices=8, init_edges=256, segment_slots=64, elog_size=96)


def make_graph(injector, faults):
    return DGAP(DGAPConfig(**CFG), injector=injector, faults=faults)


def make_sharded(n):
    def factory(injector, faults):
        return ShardedDGAP(n, DGAPConfig(**CFG), injector=injector, faults=faults)

    return factory


def windowed_edges(n=20, seed=1):
    """Pairs with deliberate duplicates so expiry runs delete multiple
    copies and compaction finds matched tombstone pairs to drop."""
    rng = np.random.default_rng(seed)
    return [(int(s), int(d)) for s, d in
            zip(rng.integers(0, 8, n), rng.integers(0, 8, n))]


def windowed_workload():
    return make_windowed_workload(
        windowed_edges(), window=1, step=4, compact_every=2
    )


class TestBuilder:
    def test_op_structure(self):
        ops = make_windowed_workload(
            [(0, 1), (1, 2), (2, 3), (3, 4)], window=1, step=2, compact_every=2
        )
        kinds = [op[0] for op in ops]
        assert kinds == ["insert", "insert", "insert", "insert",
                         "expire", "compact"]
        assert ops[4] == ("expire", ((0, 1), (1, 2)))

    def test_window_zero_expires_each_step_immediately(self):
        ops = make_windowed_workload([(0, 1), (1, 2)], window=0, step=1,
                                     compact_every=5)
        assert ops == [("insert", 0, 1), ("expire", ((0, 1),)),
                       ("insert", 1, 2), ("expire", ((1, 2),))]

    def test_bad_geometry_rejected(self):
        for kw in ({"window": -1}, {"step": 0}, {"compact_every": 0}):
            with pytest.raises(ValueError):
                make_windowed_workload([(0, 1)], **kw)

    def test_compact_is_logically_invisible_to_expected_state(self):
        ops = windowed_workload()
        stripped = [op for op in ops if op[0] != "compact"]
        assert Model.after(ops).rows == Model.after(stripped).rows
        # and the workload actually contains both new op kinds
        kinds = {op[0] for op in ops}
        assert {"insert", "expire", "compact"} <= kinds

    def test_workload_exercises_compaction(self):
        """Guard: replayed crash-free, the workload drops tombstone
        pairs in at least one sweep (otherwise the sweeps below prove
        less than claimed)."""
        g = make_graph(None, None)
        for op in windowed_workload():
            model.apply(g, op)
        assert g.n_compactions > 0
        assert g.tombstone_pairs_compacted > 0
        # every sweep is a generation switch; the second streams into
        # the block the first one freed
        assert g.ea.gen == g.n_compactions == 2 and g.n_resizes == 0
        assert g.ea.region.offset + g.ea.region.nbytes == g.logs.region.offset  # generation 0's


class TestSinglePoolWindowedSweep:
    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, TORN_STORES, PERSIST_REORDER],
                             ids=["default", "torn", "reorder"])
    def test_exhaustive_windowed_sweep_passes_oracle(self, policy):
        rep = crash_sweep(
            make_graph,
            windowed_workload(),
            SweepConfig(faults=policy, exhaustive_threshold=5000,
                        idempotence_samples=3, seed=2),
        )
        assert rep.exhaustive
        assert rep.unrecoverable_count() == 0
        assert rep.in_flight_applied_count() > 0

    def test_poisoned_sweep_repairs_or_refuses(self):
        """Adversarial policy + poison on the torn lines: the oracle
        holds at every point recovery accepts; what it refuses, it
        names.  Both outcomes occur, so neither branch passes vacuously."""
        policy = dataclasses.replace(ADVERSARIAL, poison_on_crash=0.3, seed=5)
        rep = crash_sweep(
            make_graph,
            windowed_workload(),
            SweepConfig(faults=policy, exhaustive_threshold=5000,
                        idempotence_samples=0, seed=5),
        )
        refused = [r for r in rep.results if r.unrecoverable]
        assert refused and len(refused) < rep.crash_points
        assert all("beyond repair" in r.detail for r in refused)

    def test_sweep_is_deterministic(self):
        cfg = SweepConfig(faults=TORN_STORES, exhaustive_threshold=0,
                          samples=40, idempotence_samples=2, seed=7)
        a = crash_sweep(make_graph, windowed_workload(), cfg)
        b = crash_sweep(make_graph, windowed_workload(), cfg)
        assert [(r.total_index, r.acked, r.in_flight_applied, r.recovery_ns)
                for r in a.results] == \
               [(r.total_index, r.acked, r.in_flight_applied, r.recovery_ns)
                for r in b.results]


class TestShardedWindowedSweep:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_windowed_sweep_passes_oracle(self, n):
        rep = crash_sweep(
            make_sharded(n),
            make_windowed_workload(windowed_edges(28, seed=4),
                                   window=2, step=5, compact_every=3),
            SweepConfig(exhaustive_threshold=100, samples=80,
                        idempotence_samples=2, seed=11),
        )
        assert rep.unrecoverable_count() == 0
        assert rep.in_flight_applied_count() > 0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    window=st.integers(0, 2),
    step=st.integers(1, 5),
    compact_every=st.integers(1, 3),
    torn=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_property_windowed_workloads_survive_random_crashes(
    data, window, step, compact_every, torn, seed
):
    """Any small windowed stream geometry, with and without torn stores,
    a handful of random crash points: the oracle always holds."""
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        min_size=4, max_size=24,
    ))
    rep = crash_sweep(
        make_graph,
        make_windowed_workload(edges, window=window, step=step,
                               compact_every=compact_every),
        SweepConfig(faults=FaultPolicy(torn_stores=torn, seed=seed),
                    exhaustive_threshold=0, samples=6,
                    idempotence_samples=1, seed=seed),
    )
    assert rep.unrecoverable_count() == 0
