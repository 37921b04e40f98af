"""Batched vs per-edge equivalence for the whole mutation pipeline.

The batched DGAP path makes the same *placement* decisions as the scalar
path but persists them differently (DESIGN.md §5): each round is two
commit groups — all gap fills, one flush per distinct line, one fence;
then the same for the edge-log appends.  The contract pinned here, after
growing the vertex space to the batch maximum upfront (which
``_insert_batch`` does first):

* after every acknowledged batch the persistent image (media bytes) and
  the graph contents equal those of replaying ``insert_edge`` one edge at
  a time in the order recorded in ``last_batch_order`` (the batch may
  reorder edges across sources, never within one);
* ``stores`` / ``stored_bytes`` / ``payload_bytes`` and every read and
  streaming-store counter are equal to that replay;
* ``fences`` drop from one per edge to one per commit group;
* ``flushes`` and ``media_bytes`` never exceed the replay's.

The baseline systems don't reorder and persist per edge, so for them
batched == per-edge in stream order, counters and all.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.core.edge_array import EdgeArray
from repro.core.edge_log import EdgeLogs
from repro.bench.harness import build_system
from repro.core.batch import EdgeBatch

#: counters the commit-group protocol leaves equal to the scalar replay
EQUAL_STATS = (
    "stores",
    "stored_bytes",
    "payload_bytes",
    "ntstores",
    "ntstored_bytes",
    "seq_read_bytes",
    "rnd_reads",
)

INT_STATS = (
    "stores",
    "stored_bytes",
    "payload_bytes",
    "flushes",
    "flushed_lines",
    "flushed_bytes",
    "seq_flushes",
    "rnd_flushes",
    "inplace_flushes",
    "media_bytes",
    "fences",
    "ntstores",
    "ntstored_bytes",
    "seq_read_bytes",
    "rnd_reads",
)

common = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

batches = st.lists(
    st.tuples(st.integers(0, 47), st.integers(0, 47), st.booleans()),
    min_size=1,
    max_size=400,
)


@contextmanager
def commit_groups():
    """Count the commit groups (persisted batched writes) DGAP issues."""
    with mock.patch.object(
        EdgeArray, "write_slots", autospec=True, side_effect=EdgeArray.write_slots
    ) as fills, mock.patch.object(
        EdgeLogs, "append_scatter", autospec=True, side_effect=EdgeLogs.append_scatter
    ) as appends:
        yield lambda: fills.call_count + appends.call_count


def graph_sig(g):
    return {
        v: sorted(g.out_neighbors(v).tolist()) for v in range(g.num_vertices)
    }


def _to_batch(triples):
    arr = np.asarray(triples, dtype=np.int64)
    return EdgeBatch(arr[:, 0], arr[:, 1], arr[:, 2].astype(bool))


CFG = dict(init_vertices=16, init_edges=64)
#: 64-slot sections whose 10-entry (120 B) logs merge at 9, below capacity
MERGE_BELOW_FULL = dict(init_vertices=16, init_edges=64, segment_slots=64, elog_size=120)


class TestDGAPEquivalence:
    @given(batches, st.sampled_from([None, 64, 7]))
    @common
    def test_batched_equals_replay_in_recorded_order(self, triples, chunk):
        self._replay_check(triples, chunk, CFG)

    @given(batches, st.sampled_from([None, 64, 7]))
    @common
    def test_batched_equals_replay_when_logs_merge_below_full(self, triples, chunk):
        self._replay_check(triples, chunk, MERGE_BELOW_FULL)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 20: the batch's late flush leaves the next scalar insert an in-place flush, "
        "so the batched history costs 10 modeled ns more than its replay"))
    @pytest.mark.parametrize("cfg", [CFG, MERGE_BELOW_FULL], ids=["cfg", "merge_below_full"])
    def test_item_20_batch_costs_no_more_than_replay(self, cfg):
        triples = [(0, 0), (2, 0), (2, 0), (3, 0), (5, 0), (6, 0), (43, 0), (0, 44)]
        self._replay_check([(s, d, False) for s, d in triples], 7, cfg)

    def _replay_check(self, triples, chunk, cfg):
        batch = _to_batch(triples)
        a = DGAP(DGAPConfig(**cfg))
        b = DGAP(DGAPConfig(**cfg))
        grouped_edges = 0
        with commit_groups() as groups:
            for sub in batch.chunks(chunk or len(batch)):
                assert a.insert_edges(sub, batch_size=None) == len(sub)
                order = a.last_batch_order
                np.testing.assert_array_equal(np.sort(order), np.arange(len(sub)))
                if len(sub) > 1:  # a one-edge batch stays on the scalar path
                    grouped_edges += len(sub)

                if sub.max_vertex() >= b.va.num_vertices:
                    b.insert_vertex(sub.max_vertex())
                for i in order.tolist():
                    b.insert_edge(int(sub.src[i]), int(sub.dst[i]),
                                  tombstone=bool(sub.tombstone[i]))

                # acknowledged batch == acknowledged replay, byte for byte
                assert a.pool.device.dirty_lines == b.pool.device.dirty_lines == 0
                np.testing.assert_array_equal(a.pool.device.media, b.pool.device.media)
                assert graph_sig(a) == graph_sig(b)
            n_groups = groups()

        sa, sb = a.pool.stats, b.pool.stats
        for k in EQUAL_STATS:
            assert getattr(sa, k) == getattr(sb, k), k
        assert sa.fences - n_groups == sb.fences - grouped_edges
        assert n_groups <= grouped_edges
        assert sa.flushes <= sb.flushes
        assert sa.media_bytes <= sb.media_bytes
        assert sa.modeled_ns <= sb.modeled_ns * (1 + 1e-9)
        a.check_invariants()
        b.check_invariants()

    @given(batches)
    @common
    def test_batched_equals_stream_order_on_graph_contents(self, triples):
        batch = _to_batch(triples)
        a = DGAP(DGAPConfig(**CFG))
        a.insert_edges(batch)
        c = DGAP(DGAPConfig(**CFG))
        for s, d, t in triples:
            c.insert_edge(s, d, tombstone=bool(t))
        assert graph_sig(a) == graph_sig(c)
        assert a.num_edges == c.num_edges

    def test_per_source_order_is_preserved(self):
        # within one source, batch insertion must keep stream order
        # (neighbor lists are append-ordered until a rebalance sorts them)
        g = DGAP(DGAPConfig(**CFG))
        srcs = np.zeros(20, dtype=np.int64)
        dsts = np.arange(20, dtype=np.int64)[::-1].copy()
        g.insert_edges(EdgeBatch(srcs, dsts))
        h = DGAP(DGAPConfig(**CFG))
        for d in dsts.tolist():
            h.insert_edge(0, int(d))
        assert g.out_neighbors(0).tolist() == h.out_neighbors(0).tolist()

    def test_chunked_insert_counts_all_edges(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 40, size=(333, 2)).astype(np.int64)
        g = DGAP(DGAPConfig(**CFG))
        assert g.insert_edges(arr, batch_size=64) == 333

    def test_tombstones_count_as_accepted(self):
        g = DGAP(DGAPConfig(**CFG))
        b = EdgeBatch(
            np.array([1, 1, 1]), np.array([2, 2, 3]),
            np.array([False, True, False]),
        )
        assert g.insert_edges(b) == 3
        assert g.out_neighbors(1).tolist() == [3]


BASELINES = ("graphone", "llama", "xpgraph", "bal")


class TestBaselineEquivalence:
    @pytest.mark.parametrize("name", BASELINES)
    def test_batched_equals_per_edge(self, name):
        rng = np.random.default_rng(13)
        ne = 3000
        edges = rng.integers(0, 64, size=(ne, 2)).astype(np.int64)

        a = build_system(name, 64, ne)
        a.insert_edges(edges, batch_size=None)
        b = build_system(name, 64, ne)
        for s, d in edges.tolist():
            b.insert_edge(s, d)

        assert a.modeled_insert_ns() == pytest.approx(b.modeled_insert_ns(), rel=1e-9)
        assert a.pm_media_bytes() == b.pm_media_bytes()
        for da, db in zip(a._devices(), b._devices()):
            sa = {k: getattr(da.stats, k) for k in INT_STATS}
            sb = {k: getattr(db.stats, k) for k in INT_STATS}
            assert sa == sb
        pa, da_ = a.analysis_view().out_csr()
        pb, db_ = b.analysis_view().out_csr()
        for v in range(64):
            assert sorted(da_[pa[v] : pa[v + 1]].tolist()) == sorted(
                db_[pb[v] : pb[v + 1]].tolist()
            )

    @pytest.mark.parametrize("name", BASELINES)
    def test_chunking_does_not_change_state(self, name):
        rng = np.random.default_rng(29)
        ne = 2000
        edges = rng.integers(0, 48, size=(ne, 2)).astype(np.int64)
        a = build_system(name, 48, ne)
        a.insert_edges(edges, batch_size=None)
        b = build_system(name, 48, ne)
        b.insert_edges(edges, batch_size=77)
        assert a.modeled_insert_ns() == pytest.approx(b.modeled_insert_ns(), rel=1e-9)
        assert a.pm_media_bytes() == b.pm_media_bytes()
