"""Differential suite for windowed temporal semantics (DESIGN.md §16).

The contract under test: :class:`repro.temporal.TemporalWindowGraph`
driving a real DGAP — batched adds, FIFO churn deletes, sliding-window
expiry down the tombstone path, density-triggered compaction sweeps —
produces *byte-identical* out- and in-CSR views, every step — as the
store's own view cache patches them — to a naive pure-python reference
that implements the same window semantics over the shadow model's ordered
rows and remove-last deletion.  The reference shares no code with the
library's read path; only the in-CSR counting sort is the pinned
``build_in_csr`` builder (the single source of truth for (dst, src,
insertion) order, per DESIGN.md §7).

Hypothesis drives arbitrary streams (duplicate parallel edges, deletes
of absent pairs, empty steps) across window sizes including the
degenerate 0 (expire the current step's survivors immediately) and 1
(keep exactly the current step), with compaction both auto-triggered by
tombstone density and forced at fixed cadences.  The window's batched
tombstones on every store, power-failed or not, are the store machine's
``expire_batch``.

Below the adjacency, :class:`TestCopyTableBatches` pins every
``EdgeBatch`` the window hands ``insert_edges`` — content, dtype and
order — to a per-pair deque reference (:mod:`.harness.fifo_window`), and
:class:`TestCopyTableFootprint` bounds the window's own DRAM per live copy.
"""

import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.temporal.window
from repro.datasets import TEMPORAL_DATASETS
from repro.errors import GraphError
from repro.temporal import TemporalWindowGraph
from .harness.fifo_window import FifoWindow
from .harness.model import Model

from .stores import csr_bytes, make_store, model_csrs

common = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

NV = 24
SMALL = dict(init_vertices=NV, init_edges=256, segment_slots=64)


# -- the naive reference ----------------------------------------------------


class WindowRef:
    """Window semantics over the shadow model, independent of the library.

    The adjacency is :class:`~.harness.model.Model` (append-ordered rows;
    a delete removes the positionally *last* occurrence — the tombstone
    path's observable effect on byte-identical parallel copies);
    ``tags[(s, d)]`` holds the (non-decreasing) birth steps of that
    pair's live copies.  A churn delete consumes the oldest tag; expiry
    of step ``e`` consumes every tag equal to ``e``.
    """

    def __init__(self, window: int):
        self.window = window
        self.adj = Model()
        self.tags = defaultdict(list)
        self.t = 0

    def _drop(self, s, d):
        self.tags[(s, d)].pop(0)
        assert self.adj.delete(s, d), f"reference bookkeeping lost a copy of {(s, d)}"

    def step(self, adds, deletes):
        t = self.t
        self.t += 1
        for s, d in adds:
            self.adj.insert(s, d)
            self.tags[(s, d)].append(t)
        for s, d in deletes:
            if self.tags.get((s, d)):  # no live copy: skipped, no tombstone
                self._drop(s, d)
        e = t - self.window
        if e >= 0:
            for (s, d), tags in list(self.tags.items()):
                while tags and tags[0] == e:
                    self._drop(s, d)

    def live(self):
        return self.adj.num_edges


# -- strategies -------------------------------------------------------------

pair = st.tuples(st.integers(0, NV - 1), st.integers(0, NV - 1))
step_s = st.tuples(st.lists(pair, max_size=12), st.lists(pair, max_size=6))
stream_s = st.lists(step_s, min_size=1, max_size=10)
window_s = st.integers(0, 3)


# -- differential properties ------------------------------------------------


class TestWindowedStreamDifferential:
    @given(stream_s, window_s)
    @common
    def test_csr_byte_identical_to_reference_every_step(self, stream, window):
        """Arbitrary streams, auto-compaction at a low threshold so the
        sweep fires inside the property (not only in dedicated tests)."""
        g = make_store(**SMALL)
        wg = TemporalWindowGraph(g, window, compact_threshold=0.10)
        ref = WindowRef(window)
        for i, (adds, deletes) in enumerate(stream):
            st_ = wg.advance(adds, deletes)
            ref.step(adds, deletes)
            got = csr_bytes(g.view_cache.materialize())
            assert got == csr_bytes(model_csrs(ref.adj, g.num_vertices)), f"step {i} ({st_})"
            assert wg.live_edges() == ref.live()
        g.check_invariants()

    @given(stream_s, window_s, st.integers(1, 3))
    @common
    def test_forced_compaction_cadence_is_invisible(self, stream, window, every):
        """Compaction at a fixed cadence (auto off) never changes reads,
        and the swept graph keeps its invariants."""
        g = make_store(**SMALL)
        wg = TemporalWindowGraph(g, window, auto_compact=False)
        ref = WindowRef(window)
        for i, (adds, deletes) in enumerate(stream):
            wg.advance(adds, deletes)
            ref.step(adds, deletes)
            if (i + 1) % every == 0:
                before = g.tombstone_density()
                g.compact()
                assert g.tombstone_density() <= before
                g.check_invariants()
            got = csr_bytes(g.view_cache.materialize())
            assert got == csr_bytes(model_csrs(ref.adj, g.num_vertices)), f"step {i}"

# -- the batches themselves -------------------------------------------------


class Recorder:
    """A graph stand-in that keeps the bytes of every batch it is handed
    (tombstone density stays 0, so no compaction is asked for)."""

    def __init__(self):
        self.batches = []

    def insert_edges(self, batch, batch_size=None):
        self.batches.append((batch.src.tobytes(), batch.dst.tobytes(), batch.tombstone.tobytes()))

    def tombstone_density(self):
        return 0.0


def as_bytes(pairs, tombstone):
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0].tobytes(), arr[:, 1].tobytes(), np.full(len(arr), tombstone).tobytes()


@st.composite
def dup_streams(draw):
    """Streams over 2–5 vertices: parallel copies and repeat deletes abound."""
    nv = draw(st.integers(2, 5))
    p = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
    return draw(st.lists(st.tuples(st.lists(p, max_size=12), st.lists(p, max_size=8)),
                         min_size=1, max_size=12))


class TestCopyTableBatches:
    @given(dup_streams(), window_s)
    @example([([], []), ([(0, 1)], []), ([], []), ([], [])], 1)  # empty steps
    @example([([(0, 1)], [(1, 0), (0, 1), (0, 1)])], 2)  # absent pair; past the live count
    # churn eats the first copy of (0, 1); expiry still sends its first
    # occurrence, before (1, 0), not the surviving row's position
    @example([([(0, 1), (1, 0), (0, 1)], []), ([], [(0, 1)])], 1)
    @example([([(0, 1), (0, 1), (2, 0), (0, 1)], [(0, 1), (0, 1)])], 0)
    @settings(common, max_examples=200)
    def test_batches_match_the_per_pair_fifo(self, stream, window):
        g = Recorder()
        wg = TemporalWindowGraph(g, window)
        ref = FifoWindow(window)
        want = []
        for i, (adds, deletes) in enumerate(stream):
            wg.advance(adds, deletes)
            want += [as_bytes(p, tomb) for p, tomb in ref.step(adds, deletes)]
            assert g.batches == want, f"step {i}"
            assert wg.live_pair_counts() == ref.live_pair_counts()


class TestCopyTableFootprint:
    def test_dram_per_live_copy_is_bounded(self):
        """``orkut-stream`` at scale 0.25, window 6: once the window is
        full, what ``window.py`` itself holds (tracemalloc, by file) is at
        most 64 B per live copy — the copy table's 17 B per row, over its
        rows that churn consumed and the step expiry just dropped.  A
        deque and a tuple per copy held ~870 B."""
        spec = TEMPORAL_DATASETS["orkut-stream"]
        stream = spec.generate(0.25)
        only_window = [tracemalloc.Filter(True, repro.temporal.window.__file__)]
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            wg = TemporalWindowGraph(Recorder(), 6)
            worst = 0.0
            for step in stream:
                wg.advance(step)
                held = tracemalloc.take_snapshot().filter_traces(only_window)
                if wg.counters()["steps"] > 6:
                    worst = max(worst, sum(t.size for t in held.traces) / wg.live_edges())
        finally:
            if not tracing:
                tracemalloc.stop()
        assert wg.live_edges() > 1000
        assert worst <= 64, f"{worst:.0f} B per live copy"


# -- degenerate windows -----------------------------------------------------


class TestSharedPairingRule:
    """Snapshot reads and the compaction filter apply one deletion rule
    (``encoding.tombstone_matches``): what a read hides as a cancelled
    pair is exactly what a sweep drops."""

    run_s = st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=40)
    op_s = st.tuples(st.integers(0, 3), st.integers(0, 5), st.booleans())

    @given(run_s)
    @common
    def test_compacted_run_reads_back_the_same(self, seq):
        from repro.core.encoding import TOMB_BIT, tombstone_matches
        from repro.core.rebalance import GatherResult, _unmatched_mask

        def read(dsts, tomb):  # what a snapshot read keeps of a run
            return dsts[~(tomb | tombstone_matches(dsts, tomb))].tolist()

        dsts = np.array([d for d, _ in seq], dtype=np.int32)
        tomb = np.array([t for _, t in seq], dtype=bool)
        values = (dsts + 1) | np.where(tomb, TOMB_BIT, 0).astype(np.int32)
        run = GatherResult(0, 0, 0, 1, values, np.array([len(seq)]), np.empty(0, np.int64))
        keep = _unmatched_mask(run)
        assert read(dsts[keep], tomb[keep]) == read(dsts, tomb)
        # the swept run holds no pair any more: only unmatched tombstones
        assert not tombstone_matches(dsts[keep], tomb[keep]).any()
        assert (~keep).sum() % 2 == 0

    @given(st.lists(op_s, max_size=60))
    @common
    def test_sweep_is_invisible_to_reads(self, ops):
        """Random inserts/deletes incl. deletes of never-present edges
        (unmatched tombstones, kept) and re-inserts after a delete."""
        g = make_store(**SMALL)
        live = Model()
        unmatched = defaultdict(int)
        for s, d, delete in ops:
            if not delete:
                g.insert_edge(s, d)
                live.insert(s, d)
            else:
                g.delete_edge(s, d)
                unmatched[s] += not live.delete(s, d)
        before = {v: g.out_neighbors(v).tolist() for v in range(4)}
        assert before == {v: live.row(v) for v in range(4)}
        live_deg = g.va.live_degrees().copy()
        stats = g.compact()
        assert {v: g.out_neighbors(v).tolist() for v in range(4)} == before
        np.testing.assert_array_equal(g.va.live_degrees(), live_deg)
        for v in range(4):
            assert int(g.va.degree[v]) == len(live.row(v)) + unmatched[v]
        assert stats["tombstones_after"] == sum(unmatched.values())
        assert g.compact()["pairs_dropped"] == 0
        g.check_invariants()


class TestDegenerateWindows:
    def test_window_zero_graph_empty_after_every_step(self):
        g = make_store(**SMALL)
        wg = TemporalWindowGraph(g, 0, auto_compact=False)
        rng = np.random.default_rng(5)
        for t in range(6):
            adds = rng.integers(0, NV, size=(20, 2), dtype=np.int64)
            stats = wg.advance(adds)
            assert stats["expired"] == stats["added"]
            assert wg.live_edges() == 0
            assert int(g.va.live_degrees().sum()) == 0

    def test_window_one_keeps_exactly_the_current_step(self):
        g = make_store(**SMALL)
        wg = TemporalWindowGraph(g, 1, auto_compact=False)
        rng = np.random.default_rng(6)
        prev = 0
        for t in range(6):
            adds = rng.integers(0, NV, size=(15, 2), dtype=np.int64)
            stats = wg.advance(adds)
            assert stats["expired"] == prev  # last step's copies all expire
            assert wg.live_edges() == stats["added"]
            prev = stats["added"]

    def test_churn_consumes_the_oldest_copy_first(self):
        """FIFO: a churn delete releases the oldest birth tag, so the
        later copy still expires with its own step."""
        g = make_store(**SMALL)
        wg = TemporalWindowGraph(g, 3, auto_compact=False)
        wg.advance([(1, 2)])                   # step 0: birth tag 0
        wg.advance([(1, 2)], [(1, 2)])         # step 1: add tag 1, churn eats tag 0
        assert wg.live_pair_counts() == {(1, 2): 1}
        s2 = wg.advance([])                    # step 2
        s3 = wg.advance([])                    # step 3: tag-0 copy already gone
        assert (s2["expired"], s3["expired"]) == (0, 0)
        s4 = wg.advance([])                    # step 4: tag-1 copy expires
        assert s4["expired"] == 1
        assert wg.live_edges() == 0


# -- construction contracts -------------------------------------------------


class TestContracts:
    def test_negative_window_rejected(self):
        with pytest.raises(GraphError):
            TemporalWindowGraph(make_store(**SMALL), -1)

    def test_bad_compact_threshold_rejected(self):
        with pytest.raises(GraphError):
            TemporalWindowGraph(make_store(**SMALL), 2, compact_threshold=0.0)
        with pytest.raises(GraphError):
            TemporalWindowGraph(make_store(**SMALL), 2, compact_threshold=0.75)

    def test_adds_must_not_carry_tombstones(self):
        from repro.core.batch import EdgeBatch

        wg = TemporalWindowGraph(make_store(**SMALL), 2)
        batch = EdgeBatch(
            np.array([1]), np.array([2]), np.array([True])
        )
        with pytest.raises(GraphError):
            wg.advance(batch)

    def test_counters_ledger_balances(self):
        g = make_store(**SMALL)
        wg = TemporalWindowGraph(g, 2, auto_compact=False)
        rng = np.random.default_rng(9)
        for _ in range(8):
            adds = rng.integers(0, NV, size=(10, 2), dtype=np.int64)
            dels = rng.integers(0, NV, size=(4, 2), dtype=np.int64)
            wg.advance(adds, dels)
        c = wg.counters()
        assert c["added"] - c["churn_deleted"] - c["expired"] == wg.live_edges()
        assert int(g.va.live_degrees().sum()) == wg.live_edges()

    def test_the_seeded_stream_keeps_its_ledger(self):
        """``orkut-stream`` at scale 1, window 6, compaction at density
        0.25: every add lands, and the churn picks, expiry and the
        density-triggered sweeps come out as these golden integers (none
        is derivable from the arguments)."""
        spec = TEMPORAL_DATASETS["orkut-stream"]
        stream = spec.generate(1.0)
        nv, ne = spec.sizes(1.0)
        g = make_store(init_vertices=nv, init_edges=ne)
        wg = TemporalWindowGraph(g, 6, compact_threshold=0.25)
        for step in stream:
            wg.advance(step)
        c = wg.counters()
        assert c["added"] == sum(len(step.adds) for step in stream) == 65536
        assert (c["churn_deleted"], c["expired"], c["compactions"],
                g.tombstone_pairs_compacted) == (14531, 34630, 6, 49161)
