"""Conformance suite for the store surface (DESIGN.md §14).

A ``DGAP`` is a one-shard store: it carries the same members as a
``ShardedDGAP`` — mutation (``insert_vertex`` / ``insert_edge(s)`` /
``delete_edge`` / ``compact``), reads (``num_vertices`` / ``num_edges`` /
``out_degree`` / ``out_neighbors`` / ``tombstone_density``), lifecycle
(``check_invariants`` / ``shutdown`` / ``type(g).open(g.pool, cfg)`` /
``pool.crash()``) and composition (``shards`` / ``n_shards`` /
``pool.pools``).  Everything here drives the three stores through those
members only, never asking which class it was handed:

* (in ``test_store_machine.py``) one random history — batched insert
  with growth, scalar insert + delete, compact, served reads vs the
  fresh-snapshot twin, power failures, shutdown → open — yields
  byte-identical CSRs on all three after every step, and equal device
  counters and modeled serve costs on ``DGAP`` vs ``ShardedDGAP(1)``;
* one table of illegal calls raises the same exception everywhere,
  before the first device event;
* one view stack (DESIGN.md §7): the store cache's reuse, its read-only
  arrays and its modeled build cost, by hand, on all three;
* a shut-down store refuses writes, and ``shutdown()`` is all-or-nothing;
* a dropped store, and the graph a reopen replaced, free on their last
  reference: no reference cycle waits for the cyclic collector;
* one device ledger: ``Tracer(g.pool.stats)`` attributes every store
  exactly, and a grep gate keeps the ledger spoken one way;
* a grep gate pins the "is it sharded?" probe counts at zero.

The stores come from ``tests/stores.py``; the illegal-call tables are
importable on purpose: the state machine drives them.
"""

import dataclasses
import gc
import inspect
import re
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import DGAP, DGAPConfig
from repro.analysis import costs, viewcache
from repro.baselines.dgap_system import DGAPSystem
from repro.core.batch import EdgeBatch
from repro.bench.__main__ import ARMS
from repro.core.encoding import MAX_VERTEX
from repro.core.rebalance import ROOT_SHUTDOWN
from repro.errors import GraphError, VertexRangeError
from repro.obs import INT_COUNTER_FIELDS, Tracer, check_attribution, tracing
from repro.pmem.crash import CrashInjector
from repro.serve import QueryServer, top_k_ns
from repro.serve.driver import SnapshotReader, _bytes_equal
from repro.sharding import ShardedViewCache
from repro.sharding.partition import shard_of

from .stores import NV, STORES, counters, make_store, out_csr, reopen, served_csr

def test_partition_is_the_identity_at_one_shard():
    from repro.sharding.partition import (
        local_count, local_ids_to_global, shard_of, to_global, to_local,
    )

    ids = np.arange(1000)
    assert not shard_of(ids, 1).any()
    assert np.array_equal(to_local(ids, 1), ids)
    assert np.array_equal(to_global(ids, 0, 1), ids)
    assert np.array_equal(local_ids_to_global(1000, 0, 1), ids)
    assert all(local_count(m, 0, 1) == m + 1 for m in (0, 1, 63, 999))


@pytest.mark.parametrize("kind", STORES)
class TestComposition:
    def test_members(self, kind):
        g = make_store(kind)
        assert g.n_shards == len(g.shards) == len(g.pool.pools)
        assert [sh.pool for sh in g.shards] == list(g.pool.pools)
        assert all(isinstance(sh, DGAP) and sh.n_shards == 1 for sh in g.shards)
        assert sum(sh.num_vertices for sh in g.shards) == g.num_vertices == NV

    def test_plain_dgap_holds_no_merged_copy(self, kind):
        # `global_csr` is what the perf harness dispatches on, and a cached
        # merge would be a second CSR in RSS: the one-shard store has neither
        assert hasattr(make_store(kind), "global_csr") == (kind != "dgap")


# ---------------------------------------------------------------------------
# one device ledger: every store is traceable through pool.stats
# ---------------------------------------------------------------------------

def traced_totals(kind):
    """Trace the batched-ingest + delete + compact slice of the script."""
    g = make_store(kind)
    stream = np.random.default_rng(5).integers(0, 200, size=(3000, 2))
    own0 = [p.stats.snapshot() for p in g.pool.pools]
    tracer = Tracer(g.pool.stats)
    with tracing(tracer):
        for a in range(0, 3000, 750):
            g.insert_edges(stream[a : a + 750])
        for s, d in stream[:120].tolist():
            g.delete_edge(s, d)
        g.compact()
    return tracer, [p.stats.delta_since(b) for p, b in zip(g.pool.pools, own0)]


@pytest.mark.parametrize("kind", STORES)
def test_every_store_is_traceable(kind):
    tracer, own = traced_totals(kind)
    assert check_attribution(tracer) == [] and tracer.find("compact")
    total = tracer.total_delta()
    for k in INT_COUNTER_FIELDS:  # work sums over the pools, counter by counter
        assert getattr(total, k) == sum(getattr(d, k) for d in own), k
    assert total.modeled_ns == pytest.approx(sum(d.modeled_ns for d in own))
    if kind == "sharded1":  # the plain DGAP's totals: every counter and the float clock
        assert total == traced_totals("dgap")[0].total_delta()


# ---------------------------------------------------------------------------
# illegal calls: one table, every store, no device event
# ---------------------------------------------------------------------------

BAD = MAX_VERTEX + 1
ILLEGAL_WRITES = [
    ("delete_edge", (0, -5)),
    ("insert_edge", (3, -1)),
    ("insert_edge", (-1, 3)),
    ("insert_edge", (BAD, 0)),
    ("delete_edge", (0, BAD)),
    ("insert_edges", ([[0, -5]],)),
    ("insert_edges", ([[1, 2], [-1, 3]],)),
    ("insert_edges", ([[0, BAD]],)),
    ("insert_edges", (np.array([[BAD, 0], [1, 2]]),)),
]
#: (reader method, args); the first argument is the offending *global* id
ILLEGAL_READS = [
    ("degree", (-1,)),
    ("edge_exists", (-1, 0)),
    ("k_hop", (-1, 2)),
    ("degree", (10**6,)),
    ("neighbors", (NV,)),
    ("k_hop", (NV, 2)),
]
#: (reader method, args, the refused k): a count, not an id — GraphError
ILLEGAL_K = [
    ("top_k_degree", (-1,), -1),
    ("k_hop", (0, -2), -2),
]


def seeded(kind):
    g = make_store(kind, injector=CrashInjector())
    g.insert_edges([[0, 1], [3, 4], [5, 63]])
    return g


def refuse_write(g, method, args):
    """An illegal write is rejected before any device event; returns the
    (unchanged) out-CSR."""
    inj = g.pool.pools[0].device.injector  # the one every shard device shares
    before = inj.total_events, counters(g), out_csr(g)
    with pytest.raises(VertexRangeError):
        getattr(g, method)(*args)
    assert (inj.total_events, counters(g), out_csr(g)) == before
    g.check_invariants()
    return before[2]


def refuse_read(g, method, args):
    """Every reader names the offending global id (a row's ``NV`` stands
    for the first id past the end, whatever the store has grown to)."""
    nv = g.num_vertices
    bad = nv if args[0] == NV else args[0]
    want = f"vertex {bad} out of range [0, {nv})"
    for reader in (QueryServer(g).acquire(), SnapshotReader(g)):
        with pytest.raises(VertexRangeError) as exc:
            getattr(reader, method)(bad, *args[1:])
        assert str(exc.value) == want, type(reader).__name__
    for read in (g.out_degree, g.out_neighbors):
        with pytest.raises(VertexRangeError) as exc:
            read(bad)
        assert str(exc.value) == want


def refuse_k(g, method, args, k):
    """A negative count is a ``GraphError``, refused before any charge."""
    for reader in (QueryServer(g).acquire(), SnapshotReader(g)):
        reader.degree(0)
        charged = reader.last_query_ns
        with pytest.raises(GraphError) as exc:
            getattr(reader, method)(*args)
        assert str(exc.value) == f"k must be >= 0, got {k}", type(reader).__name__
        assert reader.last_query_ns == charged


@pytest.mark.parametrize("kind", STORES)
class TestIllegalCalls:
    @pytest.mark.parametrize("method,args", ILLEGAL_WRITES)
    def test_write_is_rejected_before_any_device_event(self, kind, method, args):
        g = seeded(kind)
        csr = refuse_write(g, method, args)
        assert g.num_vertices == NV and g.num_edges == 3
        assert out_csr(reopen(g, crash=True)) == csr

    @pytest.mark.parametrize("method,args", ILLEGAL_READS)
    def test_every_reader_names_the_global_id(self, kind, method, args):
        g = seeded(kind)
        refuse_read(g, method, args)
        # a refused snapshot read leaks no snapshot: shutdown still legal
        g.shutdown()

    @pytest.mark.parametrize("bad", [-1, 10**6])
    def test_a_snapshot_refuses_ids_outside_its_rows(self, kind, bad):
        """The snapshot is a reader too: a negative id must not wrap to the
        last row, and an id born after it was taken is not its row."""
        g = seeded(kind)
        snaps = [sh.consistent_view() for sh in g.shards]
        g.insert_vertex(NV + 5)
        for snap in snaps:
            nv = snap.num_vertices
            for v in (bad, nv):
                for read in (snap.out_degree, snap.out_neighbors):
                    with pytest.raises(VertexRangeError) as exc:
                        read(v)
                    assert str(exc.value) == f"vertex {v} out of range [0, {nv})"
            assert snap.out_degree(nv - 1) == snap.out_neighbors(nv - 1).size
            snap.release()
        g.shutdown()

    @pytest.mark.parametrize("method,args,k", ILLEGAL_K)
    def test_every_reader_refuses_a_negative_k(self, kind, method, args, k):
        g = seeded(kind)
        refuse_k(g, method, args, k)
        g.shutdown()

    def test_an_oversized_k_is_charged_for_what_it_returns(self, kind):
        g = seeded(kind)
        served, direct = QueryServer(g).acquire(), SnapshotReader(g)
        ids, degs = served.top_k_degree(10**6)
        assert ids.size == degs.size == NV
        assert _bytes_equal((ids, degs), direct.top_k_degree(10**6))
        assert served.last_query_ns == top_k_ns(NV, NV)
        open_ns = max(costs.snapshot_open_ns(sh.num_vertices) for sh in g.shards)
        assert direct.last_query_ns == open_ns + top_k_ns(NV, NV)

    def test_a_listed_k_is_charged_for_the_heads_it_merges(self, kind):
        """A ``k`` within every shard's top list reads ``k`` entries of each
        of the ``n`` lists at DRAM bandwidth plus the ``k`` results — no
        sweep of the degree vector, at N = 1 as at N = 3."""
        g = seeded(kind)
        served, direct = QueryServer(g).acquire(), SnapshotReader(g)
        n, k = g.n_shards, 3
        assert k <= min(ids.size for ids, _ in served.tops)
        assert _bytes_equal(served.top_k_degree(k), direct.top_k_degree(k))
        assert served.last_query_ns == k * costs.DRAM_RND_NS + n * k * 8.0 * costs.DRAM_SEQ_NS_PER_BYTE


@pytest.mark.parametrize("kind", ["dgap", "sharded3"])
def test_an_id_int64_cannot_hold_is_out_of_range(kind):
    """A batch range-checks its ids before the int64 cast, so an id past
    2**63 is a ``VertexRangeError`` like any other, not an overflow: from
    pairs, from ``(N, 2)`` uint64 and object arrays, and from one edge."""
    g = seeded(kind)
    huge = 2**70
    for edges in ([(huge, 1)], [(0, huge)], np.array([[2**64 - 1, 1]], dtype=np.uint64),
                  np.array([[0, huge]], dtype=object)):
        refuse_write(g, "insert_edges", (edges,))
    refuse_write(g, "insert_edge", (huge, 1))
    for build in (lambda: EdgeBatch.from_pairs([(huge, 1)]),
                  lambda: EdgeBatch(np.array([1, huge], dtype=object), np.array([2, 3]))):
        with pytest.raises(VertexRangeError, match=f"vertex {huge} out of range"):
            build()


@pytest.mark.xfail(strict=True, reason="known defect, DESIGN.md §9: a tombstone that "
                   "matches no live edge still decrements live_degree")
@pytest.mark.parametrize("kind", ["dgap", "sharded3"])
def test_an_unmatched_tombstone_leaves_every_count_alone(kind):
    """Deleting an edge the store does not hold changes nothing: the
    degree, the row, both readers' degree and the edge count agree."""
    g = make_store(kind)
    g.insert_edges([[1, 2], [1, 3], [0, 1]])
    g.delete_edge(1, 9)  # there is no 1 -> 9 edge
    view, direct = QueryServer(g).acquire(), SnapshotReader(g)
    assert g.out_degree(1) == len(g.out_neighbors(1)) == 2
    assert view.degree(1) == direct.degree(1) == 2
    assert g.num_edges == served_csr(view)[1].size == 3


# ---------------------------------------------------------------------------
# one view stack: reuse, frozen arrays, the modeled build cost (DESIGN.md §7)
# ---------------------------------------------------------------------------

#: wide enough that a one-vertex write dirties a strict subset of sections
WIDE = dict(init_vertices=256, init_edges=8192, segment_slots=64)


def wide_store(kind):
    g = make_store(kind, **WIDE)
    g.insert_edges(np.random.default_rng(3).integers(0, 256, size=(3000, 2)))
    return g


def patch_cost_by_hand(copied, sections, streamed, listed):
    """Per-shard degree copies of the rows the snapshot was scoped to +
    one PM probe per re-read section + the streamed entries at PM
    bandwidth + one DRAM pass over the top-list entries merged or
    ranked, shards in parallel — at any N, no merge."""
    return max(
        2.0 * rows * 8.0 * costs.DRAM_SEQ_NS_PER_BYTE
        + k * costs.PM_RND_NS
        + e * 4.0 * costs.PM_SEQ_NS_PER_BYTE
        + t * 8.0 * costs.DRAM_SEQ_NS_PER_BYTE
        for rows, k, e, t in zip(copied, sections, streamed, listed)
    )


def merge_cost_by_hand(g, total_edges):
    """The O(E) DRAM scatter into the global layout, N > 1 only."""
    return total_edges * 4.0 * costs.DRAM_SEQ_NS_PER_BYTE if g.n_shards > 1 else 0.0


def view_costs(kind):
    """(full, hit, patch) modeled ns of one store's served acquires, each
    checked against the closed form, ``cache.last`` and
    ``QueryServer.last_acquire_ns`` — and after each, what an analysis
    reader's ``materialize()`` of the same rows costs: the merge alone."""
    g = wide_store(kind)
    n = g.n_shards
    cache, server = g.view_cache, QueryServer(g)

    def build():
        server.acquire()
        patched = cache.last
        assert patched.epoch == tuple(sh.structure_epoch for sh in g.shards)
        assert patched.modeled_ns == server.last_acquire_ns
        (_, out_dsts), _ = cache.materialize()
        merged = cache.last
        assert merged.reused == patched.reused and merged.epoch == patched.epoch
        if not merged.reused:
            assert merged.modeled_ns == merge_cost_by_hand(g, out_dsts.size)
        return patched, out_dsts.size

    # first acquire: every section and every edge of every shard, and
    # every row ranked for the top list
    last, ne = build()
    own = [sh.num_edges for sh in g.shards]
    assert sum(own) == ne
    rows = [sh.num_vertices for sh in g.shards]
    full = patch_cost_by_hand(rows, [sh.ea.n_sections for sh in g.shards], own, rows)
    assert (last.reused, last.modeled_ns) == (False, full)

    # same epoch: the epoch check and nothing else, for either product
    last, _ = build()
    assert (last.reused, last.modeled_ns) == (True, costs.EPOCH_CHECK_NS)
    assert cache.last == last

    # one-vertex write: the owner copies that row's degrees, probes the
    # section it starts in, streams the three entries appended to it and
    # merges its listed rows with that one; every other shard reads nothing
    listed = [ids.size - int(5 in ids) + 1 for ids, _ in cache.tops]
    epochs = [sh.structure_epoch for sh in g.shards]
    merged = [st.delta_edges_merged for st in cache.stats]
    streamed = [st.entries_streamed for st in cache.stats]
    rebuilds = [st.full_rebuilds for st in cache.stats]
    g.insert_edges([[5, 9], [5, 11], [5, 13]])
    last, ne = build()
    assert [st.full_rebuilds for st in cache.stats] == rebuilds  # patched
    reread = [np.flatnonzero(sh.rows_changed_since(e, sh.num_vertices))
              for sh, e in zip(g.shards, epochs)]
    dirty = [np.unique(sh.va.start[rows] // sh.ea.segment_slots).size
             for sh, rows in zip(g.shards, reread)]
    delta = [st.delta_edges_merged - m for st, m in zip(cache.stats, merged)]
    owner = int(shard_of(5, n))  # vertex 5's row, and no other
    assert [rows.tolist() for rows in reread] == [[5 // n] * (r == owner) for r in range(n)]
    assert dirty == [int(r == owner) for r in range(n)] and delta[owner] == g.out_degree(5)
    tails = [st.entries_streamed - e for st, e in zip(cache.stats, streamed)]
    assert tails == [3 * (r == owner) for r in range(n)]  # the row's tail, not the row
    patch = patch_cost_by_hand(dirty, dirty, tails, [t * (r == owner) for r, t in enumerate(listed)])
    assert (last.reused, last.modeled_ns) == (False, patch)
    assert server.refresh_ns_total == full + patch
    assert (server.refreshes, server.reuses) == (2, 1)
    return full, costs.EPOCH_CHECK_NS, patch


class TestOneViewStack:
    def test_build_cost_is_the_closed_form_on_every_store(self):
        got = {kind: view_costs(kind) for kind in STORES}
        assert got["sharded1"] == got["dgap"]  # exactly, not approximately
        # three shards open and patch in parallel: a cheaper max, and a
        # served read never pays the merge — the same one-row patch
        assert got["sharded3"][0] < got["dgap"][0]
        assert got["sharded3"][2] == got["dgap"][2]

    @pytest.mark.parametrize("kind", STORES)
    def test_nothing_moved_returns_the_same_arrays_without_a_snapshot(self, kind, monkeypatch):
        g = wide_store(kind)
        cache = ShardedViewCache(g)
        reads = [cache.materialize] + ([g.global_csr] if kind != "dgap" else [])
        first = [read() for read in reads]
        stats = [st.as_dict() for st in cache.stats]

        def refuse():
            raise AssertionError("a same-epoch read opened a snapshot")

        for sh in g.shards:
            monkeypatch.setattr(sh, "consistent_view", refuse)
        for read, ((o_ip, o_ds), (i_ip, i_sr)) in zip(reads, first):
            (o_ip2, o_ds2), (i_ip2, i_sr2) = read()
            assert o_ip2 is o_ip and o_ds2 is o_ds and i_ip2 is i_ip and i_sr2 is i_sr
        assert [st.as_dict() for st in cache.stats] == stats
        assert cache.last.reused

    def test_analysis_view_arrays_are_read_only(self):
        system = DGAPSystem(NV, 1024)
        system.insert_edges(np.array([[0, 5], [0, 2], [3, 4]]))
        view = system.analysis_view()
        for arr in (*view.out_csr(), *view.in_csr()):
            assert not arr.flags.writeable
        assert system.graph.view_cache.last.modeled_ns > costs.EPOCH_CHECK_NS


# ---------------------------------------------------------------------------
# lifecycle: shutdown is final and all-or-nothing (paper §3.1.5)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", STORES)
class TestShutdown:
    def test_shut_down_store_refuses_writes(self, kind):
        g = seeded(kind)
        inj = g.pool.pools[0].device.injector
        g.shutdown()
        before = inj.total_events
        for write in (
            lambda: g.insert_edges([[2, 3], [0, 7]]),
            lambda: g.insert_edge(2, 3),
            lambda: g.delete_edge(0, 1),
            lambda: g.insert_vertex(NV + 5),
            lambda: g.compact(),
        ):
            with pytest.raises(GraphError, match="shut-down"):
                write()
        assert inj.total_events == before
        # reads still work, and nothing acknowledged is missing after reopen
        assert g.num_edges == 3 and list(g.out_neighbors(5)) == [63]
        g2 = reopen(g, crash=True)
        assert g2.num_edges == 3
        g2.insert_edges([[2, 3], [0, 7]])  # the reopened store is writable
        assert g2.num_edges == 5

    def test_blocked_shutdown_flags_no_shard_and_loses_nothing(self, kind):
        """A snapshot on the *last* shard blocks shutdown before any shard is
        flagged NORMAL_SHUTDOWN, so the store keeps taking durable writes."""
        g = make_store(kind)
        first = [[v, v + 1] for v in range(5)]
        g.insert_edges(first)
        snap = g.shards[-1].consistent_view()
        with pytest.raises(GraphError, match="active analysis snapshots"):
            g.shutdown()
        assert [p.read_root(ROOT_SHUTDOWN) for p in g.pool.pools] == [0] * g.n_shards
        snap.release()
        more = [[v, v + 2] for v in range(10, 16)]
        g.insert_edges(more)
        assert g.num_edges == 11
        g2 = reopen(g, crash=True)
        assert g2.num_edges == 11
        for s, d in first + more:
            assert d in g2.out_neighbors(s)


# ---------------------------------------------------------------------------
# lifetime: a store is freed on its last reference (DESIGN.md §7, §12)
# ---------------------------------------------------------------------------

@contextmanager
def refcounting_only():
    """Run the body with the cyclic collector off, as the benchmark's
    cycles do: what a cycle keeps alive stays alive."""
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


def worked(kind):
    """A store whose rebalancer, view caches and server have all run."""
    g = seeded(kind)
    assert QueryServer(g).acquire().degree(5) == 1
    g.view_cache.materialize()
    g.compact()
    return g


@pytest.mark.parametrize("kind", ["dgap", "sharded3"])
class TestLifetime:
    def test_a_dropped_store_frees_its_devices(self, kind):
        with refcounting_only():
            g = worked(kind)
            store, device = weakref.ref(g), weakref.ref(g.pool.pools[-1].device)
            del g
            assert store() is None
            assert device() is None

    def test_a_reopen_frees_the_graph_it_replaced(self, kind):
        with refcounting_only():
            g = worked(kind)
            g.pool.crash()
            g2 = type(g).open(g.pool, g.config)
            replaced = weakref.ref(g)
            del g
            assert replaced() is None
            assert g2.num_edges == 3 and QueryServer(g2).acquire().degree(5) == 1

    def test_a_reopen_keeps_no_recovery_scratch(self, kind):
        """Recovery's pivot-scan prefix sums (8 B per slot, twice) are the
        call's own: the reopened graph's rebalancer scratch holds none."""
        g = worked(kind)
        g.pool.crash()
        g2 = type(g).open(g.pool, g.config)
        for shard in g2.shards:
            assert not [key for key, _ in shard.rebalancer.dram_scratch()._bufs
                        if key.startswith("recovery.")]

    def test_a_reopen_peaks_near_its_slot_image(self, kind):
        """Recovery's pivot scan keeps one prefix sum alive at a time, an
        int32 one: a reopen's traced DRAM peak stays under 16 B per slot of
        the largest shard (two int64 prefixes alive together read ~28)."""
        g = make_store(kind, init_edges=1 << 18)
        g.insert_edges([(v, (v + 1) % NV) for v in range(NV)])
        g.pool.crash()
        slots = max(shard.ea.capacity for shard in g.shards)
        tracemalloc.start()
        try:
            type(g).open(g.pool, g.config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * slots


# ---------------------------------------------------------------------------
# grep gate: nobody above core/ asks which store it was handed
# ---------------------------------------------------------------------------

def _src():
    root = Path(repro.__file__).parent
    return {p.relative_to(root).as_posix(): p.read_text() for p in root.rglob("*.py")}


def _count(pattern, sources):
    return sum(len(re.findall(pattern, text)) for text in sources.values())


class TestOneSurface:
    def test_no_sharded_probe_is_left(self):
        src = _src()
        assert _count(r"hasattr\([^)]*[\"']shards[\"']", src) == 0
        assert _count(r"getattr\([^)]*[\"'](shards|pools|_views|view_cache)[\"']", src) == 0
        assert _count(r"self\.sharded\b(?!\.)", src) == 0
        assert _count(r"_GroupDevice", src) == 0

    def test_one_home_each(self):
        src = _src()
        assert _count(r"out of range \[0, \{", {k: v for k, v in src.items()
                                               if not k.startswith("pmem/")}) == 1
        assert "out of range [0, {" in src["core/encoding.py"]
        assert _count(r"except SimulatedCrash", {"s": src["sharding/sharded.py"]}) == 1
        # the facade's fields are assigned in `_assemble` and nowhere else
        for name in ("config", "shards", "n_shards", "router", "pool", "_views"):
            sets = re.findall(rf"^\s+(?:self|host)\.{name} = ", src["sharding/sharded.py"], flags=re.M)
            assert len(sets) == 1, name

        # one view stack: who decides reuse and who prices the build is
        # `sharding/merge.py` (the formula itself in `analysis/costs.py`);
        # who opens a shard's snapshot for a view, scoped to the rows it
        # reads, is that shard's patch cache
        def homes(pattern):
            return sorted(k for k, text in src.items() if re.search(pattern, text))

        # the serve layer's outside-in cost model and its private reach
        for gone in (r"_refresh_cost_ns", r"_stat_snapshot", r"SLF001",
                     "id_" + "stride", "row_" + "ids"):
            assert homes(gone) == [], gone
        assert homes(r"\._nv\b") == ["analysis/viewcache.py"]
        # one constructor site, one epoch-tuple build; a row-scoped snapshot
        # is opened by a view refresh and by the store's point read
        assert homes(r"DGAPViewCache\(") == ["sharding/merge.py"]
        assert homes(r"structure_epoch for") == ["sharding/merge.py"]
        assert homes(r"\.consistent_view\([^)]") == ["analysis/viewcache.py", "core/dgap.py"]
        # one view cache per store: built by the store's accessor (DGAP's
        # property, which ShardedDGAP reuses) and by nobody else under src/;
        # no point-view cache, one in-stream merge kernel, one view class,
        # one way to retire a pool region
        assert _count(r"ShardedViewCache\(", src) == 1
        assert "ShardedViewCache(self)" in src["core/dgap.py"].split("def view_cache")[1][:700]
        assert "view_cache = DGAP.view_cache" in src["sharding/sharded.py"]
        for gone in (r"_point_snap", r"point_view", r"drop_array", r"_merge_in_streams",
                     r"class BaseGraphView"):
            assert homes(gone) == [], gone
        assert _count(r"def merge_in_streams", src) == 1
        # the kernels that pull: PR every sweep, BFS bottom-up, BC's pulled levels
        assert [k for k in homes(r"\.in_csr\(\)") if k.startswith("algorithms/")] == [
            "algorithms/bc.py", "algorithms/bfs.py", "algorithms/pagerank.py"]
        # one side rule for a BFS/BC level: the view's own price of each
        # side, which is what it charges; no DRAM-tuned switch constants
        for gone in (r"_ALPHA", r"_BETA"):
            assert homes(gone) == [], gone
        assert homes(r"def pull_if_cheaper") == ["algorithms/common.py"]
        assert homes(r"pull_if_cheaper\(") == ["algorithms/bc.py", "algorithms/bfs.py",
                                               "algorithms/common.py"]
        # and for a BC backward level: the prices of both kinds of level,
        # and the backward sweep's charge, are read in that one helper
        for name in (r"frontier_ns\(", r"partial_scan_ns\(", r"account_partial_scan\("):
            assert [k for k in homes(name) if k.startswith("algorithms/")] == [
                "algorithms/common.py"], name
        # the bottom-up early-exit share is one constant, read by price and charge alike
        assert homes(r"BOTTOM_UP_EDGE_SHARE = ") == ["algorithms/common.py"]
        assert "0.4" not in src["algorithms/bfs.py"]
        # in-degrees are the view's cached array; no kernel counts its own
        assert [k for k in homes(r"bincount\(out_dsts") if k.startswith("algorithms/")] == []
        # a served read routes into the shards' own rows: the serve layer
        # reaches no global merge and no in-CSR
        serve = {k: v for k, v in src.items() if k.startswith("serve/")}
        assert _count(r"merge_out_csr|merge_in_csr|_merge_in|in_csr", serve) == 0
        assert homes(r"merge_in_streams\(") == ["analysis/view.py", "analysis/viewcache.py",
                                                "sharding/merge.py"]
        # one top-degree ranking, which the shards' top lists and both serve
        # arms call; a served top-k merges those lists and never scatters
        # the degree vector into global order
        read_path = {k: v for k, v in src.items() if k.split("/")[0] in ("analysis", "serve", "sharding")}
        assert _count(r"lexsort", read_path) == 1
        assert "lexsort" in src["analysis/viewcache.py"].split("def top_k_from_degrees")[1].split("\ndef ")[0]
        assert homes(r"def top_k_from_degrees") == ["analysis/viewcache.py"]
        assert "local_ids_to_global" not in src["serve/server.py"]
        # one Degree Cache: the full-vector copy has one home, no second
        # (copy-on-write) snapshot path; one reader of row bytes on the
        # view path, the tail reader; one writer of the stamp that voids
        # the prefixes tails are read behind, where a rewrite meets a filter
        assert homes(r"(?i)cow") == []
        assert homes(r"degrees\(\)\.copy\(\)") == ["core/snapshot.py"]
        view_path = {k: v for k, v in src.items()
                     if k in ("core/snapshot.py", "analysis/viewcache.py", "sharding/merge.py")
                     or k.startswith("serve/")}
        assert _count(r"\.ea\.slots\[|region\.view", view_path) == 1
        assert ".ea.slots[" in src["core/snapshot.py"].split("def _tails")[1].split("\n    def ")[0]
        # one chain reader: a merge, a snapshot and the invariant check
        # group streamed log rows by source; none chases a back-pointer,
        # re-reads a moved row, or resolves a single row its own way
        assert homes(r"def group_chains") == ["core/edge_log.py"]
        assert homes(r"group_chains\(") == ["core/dgap.py", "core/edge_log.py",
                                           "core/rebalance.py", "core/snapshot.py"]
        for gone in (r"walk_chain_arrays", r"_chain_buf", r"moved_since", r"_apply_tombstones",
                     r"_check_chains", r"slot_values"):
            assert homes(gone) == [], gone
        assert homes(r"history_epoch = [^0]") == ["core/rebalance.py"]
        assert _count(r"history_epoch = [^0]", src) == 1
        # one tombstone count, (Σdegree − Σlive) / 2: the density and the
        # analysis system's view mark both read it
        assert homes(r"deg - live") == ["core/dgap.py"]
        assert "self.tombstone_count()" in src["core/dgap.py"].split("def tombstone_density")[1][:400]
        assert "tombstone_count = DGAP.tombstone_count" in src["sharding/sharded.py"]
        assert ".tombstone_count()" in src["baselines/dgap_system.py"]
        # one carry per analysis system, created by DGAPSystem and handed
        # to every view it builds (clones share it); one append-only
        # predicate, CC's, which alone reads a view's mark
        assert homes(r"carry\b[^=\n]*= \{\}") == ["baselines/dgap_system.py"]
        assert homes(r"carry=") == ["analysis/view.py", "baselines/dgap_system.py"]
        assert homes(r"view\.mark\b") == ["algorithms/cc.py"]
        assert homes(r"def _appended") == ["algorithms/cc.py"]
        # one staleness signal: rows are stamped by one function, called by
        # the write path and the scrubber's lossy repair; no section stamps
        for gone in (r"_section_epoch", r"sections_dirty_since", r"_touch_sections",
                     r"_touch_slot_range"):
            assert homes(gone) == [], gone
        assert _count(r"row_epoch\[[^\]]*\] = ", src) == 1
        assert "row_epoch[vs] = " in src["core/dgap.py"].split("def _touch_rows")[1][:400]
        assert homes(r"\._touch_rows\(") == ["core/dgap.py", "resilience/scrub.py"]
        assert not re.search(r"\bmode\b", inspect.getsource(costs.view_build_ns))
        assert homes(r"def tombstone_matches") == ["core/encoding.py"]
        assert _count(r"def tombstone_matches", src) == 1  # the dict loop is a test oracle now
        assert viewcache.FULL_REBUILD_STALE_FRACTION == 0.9
        # the device profiles' numbers are derived, not restated
        assert homes(r"\b(305|85)\.0\b") == ["pmem/latency.py"]
        assert costs.PM_RND_NS == 305.0 and costs.DRAM_RND_NS == 85.0
        # one device ledger: PMemStats + spans; no side-channel, no group
        # half-mirror, no dead PMA lower bound, counter lists derived once
        for gone in (r"\bbuckets?\b", r"_GroupDelta", r"_GroupStats", r"pool_clocks",
                     r"rho_", r'"inplace_flushes"', r'"dropped_pending_lines"'):
            assert homes(gone) == [], gone
        assert homes(r"fields\(PMemStats\)") == ["pmem/stats.py"]
        # one commit group: a flush span straight into one fence is composed
        # by the device's group alone (its literal sequence), nowhere else
        group = r"flush_span\([^\n]*\)\n\s*[\w.]*sfence\(\)"
        assert _count(group, src) == 1
        assert re.search(group, src["pmem/device.py"].split("def commit_group")[1].split("\n    def ")[0])
        # "pools tick in parallel" is read in pool.clocks() only (the
        # baselines' devices run in sequence: they sum)
        assert homes(r"stats\.modeled_ns for") == ["baselines/interfaces.py", "pmem/pool.py"]
        # the paper's fixed values each have one home and are no option: the
        # merge point is computed once, per log, and every merge decision
        # compares a cursor against it; the PMA bounds are two constants
        assert _count(r"MERGE_TENTHS \*", src) == 1
        assert "MERGE_TENTHS *" in src["core/edge_log.py"].split("def merge_point")[1][:300]
        assert homes(r"merge_point\(") == ["core/edge_log.py"]
        assert homes(r"\.merge_at\b") == ["core/dgap.py", "core/edge_log.py", "resilience/scrub.py"]
        assert homes(r"TAU_(LEAF|ROOT) = ") == ["core/pma_tree.py"]
        for gone in (r"scalar_readpath", r"_scalar\(", r"DensityBounds", r"elog_merge_fraction",
                     r"tau_leaf", r"tau_root", r"fill_fraction", r"_merge_thr"):
            assert homes(gone) == [], gone
        # one slot rewriter: the scrubber judges damage and clears it, the
        # core's pipeline rewrites — resilience/ knows no slot or entry format
        resilience = {k: v for k, v in src.items() if k.startswith("resilience/")}
        for gone in (r"TOMB_BIT", r"\b_FIELDS\b", r"walk_chain_arrays", r"\.recount",
                     r"-\(v \+ 1\)"):
            assert _count(gone, resilience) == 0, gone
        for gone in (r"_repair_edge_log", r"_repair_edge_array"):
            assert homes(gone) == [], gone
        assert homes(r"_rewrite_window\(") == ["core/rebalance.py"]
        assert re.search(r"\ndef _unmatched_mask\(((?!\ndef ).)*\ndef _lost_mask\(",
                         src["core/rebalance.py"], flags=re.S)  # the two filters, side by side
        assert _count(r"def _unmatched_mask", src) == _count(r"def _lost_mask", src) == 1
        # one owner per on-media encoding: the slot encoding — the tombstone
        # bit, the pivot shift both ways — is spelled in core/encoding.py
        # alone; the log entry's layout — its fields and their biases — in
        # core/edge_log.py alone; a slot's worth to a live degree is
        # `encoding.worth`, which the write paths and recovery call
        assert homes(r"\bTOMB_BIT\b") == ["core/encoding.py"]
        assert homes(r"-\([^()\n]*(?:\([^()\n]*\))?[^()\n]*\+ 1\)") == ["core/encoding.py"]
        assert homes(r"-\(?\s*slots\b[^\n]*-\s*1\b") == ["core/encoding.py"]
        assert homes(r"\bslots\s*<\s*0") == ["core/encoding.py"]
        assert homes(r"\b(?:rows|image|entries|entry|e)\[(?:[^\[\]]|\[(?:[^\[\]]|\[[^\[\]]*\])*\])*"
                     r",\s*[012]\s*\]") == ["core/edge_log.py"]
        assert homes(r"astype\(np\.int64\)\s*[-+]\s*[12]\b|\b(?:srcs?|back_gidxs?)\b\)?\s*\+\s*[12]\b"
                     ) == ["core/edge_log.py"]
        assert homes(r"decode_pivot|decode_edge|live_deltas|\.encoded\(|-1 if tomb") == []
        assert homes(r"\bworth\(") == ["core/dgap.py", "core/encoding.py", "core/recovery.py"]
        # and the PM mirrors of the vertex and edge arrays are rewritten by their owners
        assert homes(r"[\"'.]_regions\b") == ["core/vertex_array.py"]
        assert homes(r"[\"'.]_occ_region\b") == ["core/edge_array.py"]
        # the pool header has one builder, DGAP's roots one list
        assert [k for k in homes(r"pool_mod\._") if not k.startswith("pmem/")] == []
        assert homes(r"\.geometry_roots\(\)") == ["core/dgap.py", "resilience/scrub.py"]
        # one undo-log backup (the fused two-fence snapshot) and one writer
        # lock (the ascending, flag-gated multi-lock); no persistent word
        # that nothing reads; `distinct` is the one dedupe rule
        for gone in (r"ROOT_INIT_CAP", r"PHASE_", r"_F_PHASE", r"_F_PROGRESS", r"def begin\b",
                     r"def backup\b", r"_SectionGuard"):
            assert homes(gone) == [], gone
        assert homes(r"def acquire\(") == ["serve/server.py"]
        assert _count(r"np\.unique\(", src) == 0
        # one reading of an ingest batch size ("None or <= 0 is one
        # unbounded batch"), which the CLI and every store's split call
        assert homes(r"(batch_size|bs)( is not None and \w+)? (<=|>) 0") == ["core/batch.py"]
        assert homes(r"def batch_limit|def sub_batches") == ["core/batch.py"]
        assert homes(r"sub_batches\(") == ["baselines/interfaces.py", "core/batch.py", "core/dgap.py"]
        assert homes(r"batch_limit\(") == ["bench/__main__.py", "core/batch.py"]
        # one generation switch: the root flips in one function, which the
        # live switch and recovery's roll-forward both call; dead generation
        # regions are freed by one function (the flip, a switch unwinding
        # and open call it), judged by the one dead-state rule; the store
        # has one scratch, named and (re)allocated in one function; a log
        # region's name — its geometry — is built and parsed in two places
        assert _count(r"write_root\(ROOT_GEN", src) == 1
        assert "write_root(ROOT_GEN" in src["core/rebalance.py"].split("def _flip")[1][:400]
        assert _count(r"\._flip\(", src) == 2
        assert homes(r"\.free_array\(") == ["core/dgap.py", "core/rebalance.py",
                                              "core/vertex_array.py", "pmem/pool.py"]
        # reap, the pool's own regrow, the previous shutdown's meta.*, the
        # PM vertex array's previous mirror
        assert _count(r"\.free_array\(", src) == 4
        assert homes(r"\.reap\(\)") == ["core/rebalance.py", "core/recovery.py"]
        assert _count(r"\.reap\(\)", src) == 3
        assert homes(r"dead_state\(") == ["core/rebalance.py", "core/recovery.py", "resilience/scrub.py"]
        assert homes(r'"rebal\.scratch') == ["core/rebalance.py"]
        get_scratch = src["core/rebalance.py"].split("def _get_scratch")[1].split("\n    @traced")[0]
        assert _count(r"_array\(SCRATCH", src) == get_scratch.count("_array(SCRATCH") == 4
        assert homes(r'"elogs\.g') == ["core/edge_log.py", "core/recovery.py"]
        for gone in (r"FreeListAllocator", r"_scratch_seq", r"_resize_locked", r"abandoned"):
            assert homes(gone) == [], gone
        # the verification harness says each thing once: one DFS explorer,
        # one dry-run-then-arm loop (tests call `crash_points`), one adjacency
        # model and in-flight rule — no multiset fallback, no second shadow graph
        here = Path(__file__).parent
        tests = {p.relative_to(here).as_posix(): p.read_text() for p in here.rglob("*.py")
                 if p.name != Path(__file__).name}
        def suite_homes(pattern, prefix=""):
            return sorted(k for k, text in tests.items() if k.startswith(prefix) and re.search(pattern, text))
        assert suite_homes(r"\bfrontier\b", "harness/") == ["harness/schedules.py"]
        assert suite_homes(r"total_events - base") == ["harness/crashsweep.py"]
        assert _count(r"total_events - base", tests) == 1
        for gone in (r"_ordered_ops", r"\b_match\(", r"class NaiveWindowRef", r"def run_script"):
            assert _count(gone, src) == _count(gone, tests) == 0, gone
        # the bench package is a leaf: nothing else under src/ imports it;
        # the invariant checks over a traced run and the percentile
        # summary that tests and the serve report call live in repro.obs,
        # once each
        outside_bench = {k: v for k, v in src.items() if not k.startswith("bench/")}
        assert _count(r"(?m)^\s*(?:from|import)\s+(?:repro\.bench|\.+bench)\b", outside_bench) == 0
        for name in ("check_attribution", "check_recovery_reads", "check_chrome_trace",
                     "distribution_stats"):
            assert homes(rf"def {name}\(") == ["obs/export.py"], name
            assert _count(rf"def {name}\(", src) == 1, name
        # one table of crash sweeps; beside it only the generation switch's spy sweep
        assert suite_homes(r"crash_sweep\(") == [
            "harness/crashsweep.py", "test_crash_sweeps.py", "test_generation_switch.py"]
        # the suite owns its harness: nothing under src/ imports tests/ or
        # names the harness packages the library once shipped; and the bench
        # CLI runs the paper's experiments and nothing else
        assert _count(r"(?m)^\s*(?:from|import)\s+tests\b|\brepro\.(?:testing|workloads)\b", src) == 0
        assert list(ARMS) == ["insert", "analysis", "ablation", "recovery", "profile"]

    def test_dgap_did_not_grow_a_merged_view(self):
        assert not hasattr(DGAP, "global_csr")
        assert len(dataclasses.fields(DGAPConfig)) == 11
