"""Incremental analytics views: epoch tracking, cache identity, dtypes.

The contract under test (DESIGN.md §7): the epoch-versioned view cache
must be *invisible* — every cached materialization is byte-identical to
the rows the store reads back (under arbitrary histories: the store
machine's ``analyze``, ``tests/test_store_machine.py``), kernel outputs and
modeled seconds are bit-identical cached vs uncached, and the counters
prove the cache really is incremental (it skips clean sections).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.analysis.costs import (
    DRAM_SEQ_NS_PER_BYTE,
    EPOCH_CHECK_NS,
    PM_RND_NS,
    PM_SEQ_NS_PER_BYTE,
)
from repro.analysis.view import ID_DTYPE, INDPTR_DTYPE
from repro.analysis.viewcache import TOP_ROWS
from repro.baselines import SYSTEMS, DGAPSystem, StaticCSR
from repro.bench.harness import SOURCE_KERNELS, build_system, load_stream
from repro.algorithms import KERNELS
from repro.core.batch import EdgeBatch
from repro.datasets import TEMPORAL_DATASETS
from repro.obs import Tracer, tracing
from repro.pmem.constants import XPLINE
from repro.resilience import RepairOutcome, ResilienceManager
from repro.serve import QueryServer
from repro.serve.driver import SnapshotReader, _bytes_equal
from repro.sharding import ShardedViewCache
from repro.sharding.partition import shard_of
from repro.temporal import TemporalWindowGraph
from .harness import model
from .harness.model import Model

from .stores import STORES, csr_bytes, make_store, model_csrs, rows_bytes
from .test_resilience import hot_graph

common = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

NV = 24
#: small geometry from the existing property tests: a few hundred edges
#: force merges, rebalances and at least one resize.
SMALL = dict(init_vertices=NV, init_edges=256, segment_slots=64)


def small_system(**overrides) -> DGAPSystem:
    cfg = DGAPConfig(**{**SMALL, **overrides})
    return DGAPSystem(cfg.init_vertices, cfg.init_edges, config=cfg)


def assert_view_matches_scratch(system, view):
    """Both CSRs byte-equal (dtypes too) to the rows the store reads back."""
    g = system.graph
    want = model_csrs(Model(rows=model.of(g)), g.num_vertices)
    assert csr_bytes((view.out_csr(), view.in_csr())) == csr_bytes(want)


# -- rows go stale by vertex; layout operations invalidate nothing ----------

#: ids past NV grow the id space; the tiny edge log (8 entries) keeps
#: chains pending and makes writes merge and rebalance on their own
GROW = NV + 8
TINY_LOG = dict(init_vertices=NV, init_edges=256, segment_slots=64, elog_size=96)

vertex = st.integers(0, GROW - 1)
store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ins"), vertex, vertex),
        st.tuples(st.just("del"), vertex, vertex),
        st.tuples(st.just("batch"), st.lists(st.tuples(vertex, vertex), min_size=2, max_size=12)),
        st.tuples(st.just("merge"), st.integers(0, 63)),
        st.tuples(st.just("window"), st.integers(0, 63)),
        st.tuples(st.just("resize"), st.integers(0, 63)),
        st.tuples(st.just("compact")),
    ),
    min_size=1,
    max_size=25,
)


def view_bytes(views):
    return [arr.tobytes() for pair in views for arr in pair]


def rows_rebuilt(cache):
    return [(st.full_rebuilds, st.vertices_rebuilt) for st in cache.stats]


def layout_op(g, op):
    """Run one layout-only operation straight on a shard's rebalancer."""
    if op[0] == "compact":
        return g.compact()
    sh = g.shards[op[1] % g.n_shards]
    sec = op[1] % sh.ea.n_sections
    if op[0] == "window":
        sh.rebalancer.rebalance_window(*sh.ea.tree.window_at(sec, 1), 1)
    elif op[0] == "resize" and sh.n_resizes < 2:  # each doubles the array: the pool is finite
        sh.rebalancer.resize()
    else:
        sh.rebalancer.merge_section(sec)


@pytest.mark.parametrize("kind", STORES)
class TestRowsNotSections:
    @given(store_ops)
    @common
    def test_layout_operations_invalidate_nothing_and_writes_exactly_their_rows(self, kind, ops):
        """Between reads, a log merge, a window rebalance, a resize or a
        compaction sweep hands back the *same four array objects* with no
        row re-read; a write re-reads exactly the rows it had as a source
        (plus the vertices born since) and patches to the bytes a fresh
        cache builds from scratch."""
        g = make_store(kind, **TINY_LOG)
        n = g.n_shards
        g.insert_edges(np.random.default_rng(2).integers(0, NV, size=(120, 2)))
        cache = ShardedViewCache(g)
        held = cache.materialize()
        for op in ops:
            if op[0] in ("merge", "window", "resize", "compact"):
                before = rows_rebuilt(cache)
                layout_op(g, op)
                again = cache.materialize()
                assert all(a is b for x, y in zip(again, held) for a, b in zip(x, y)), op
                assert rows_rebuilt(cache) == before, op
                # the epoch moved but no row did: still a reuse, the epoch check
                assert cache.last == (cache.last.epoch, True, EPOCH_CHECK_NS)
                continue
            epochs = [sh.structure_epoch for sh in g.shards]
            was_nv = [sh.num_vertices for sh in g.shards]
            before = rows_rebuilt(cache)
            if op[0] == "batch":
                g.insert_edges(np.array(op[1], dtype=np.int64))
                srcs = {s for s, _ in op[1]}
            else:
                (g.insert_edge if op[0] == "ins" else g.delete_edge)(op[1], op[2])
                srcs = {op[1]}
            held = cache.materialize()
            assert view_bytes(held) == view_bytes(ShardedViewCache(g).materialize()), op
            for r, sh in enumerate(g.shards):
                want = {v // n for v in srcs if shard_of(v, n) == r}
                want |= set(range(was_nv[r], sh.num_vertices))
                got = np.flatnonzero(sh.rows_changed_since(epochs[r], sh.num_vertices))
                assert set(got.tolist()) == want, (op, r)
                (full0, rows0), (full1, rows1) = before[r], rows_rebuilt(cache)[r]
                if full1 == full0:  # patched: no row more, no row fewer
                    assert rows1 - rows0 == len(want), (op, r)
        g.check_invariants()

    def test_born_vertices_and_a_reopened_store_come_back_right(self, kind):
        g = make_store(kind, **TINY_LOG)
        g.insert_edges(np.random.default_rng(4).integers(0, NV, size=(200, 2)))
        cache = ShardedViewCache(g)
        cache.materialize()
        g.insert_vertex(NV + 2)  # born with no edge: three empty rows
        (out_ip, _), (in_ip, _) = cache.materialize()
        assert out_ip.size == in_ip.size == NV + 4
        g.insert_edge(NV + 5, 1)  # born by a write, as source and as domain
        held = cache.materialize()
        assert view_bytes(held) == view_bytes(ShardedViewCache(g).materialize())
        assert sum(st.full_rebuilds for st in cache.stats) == g.n_shards  # the first builds only

        for crash in (True, False):
            g.pool.crash() if crash else g.shutdown()
            g = type(g).open(g.pool, g.config)
            # stamps are DRAM-only: a reopened store starts with none
            assert not any(sh.rows_changed_since(0, sh.num_vertices).any() for sh in g.shards)
            cache = ShardedViewCache(g)
            assert view_bytes(cache.materialize()) == view_bytes(held)
            g.insert_edges([[3, 4], [NV + 1, 3]])
            g.delete_edge(3, 4)
            held = cache.materialize()
            assert view_bytes(held) == view_bytes(ShardedViewCache(g).materialize())


# -- a refresh reads only what was appended: tail patch == from-scratch ------

pair = st.tuples(vertex, vertex)
tail_ops = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.lists(pair, min_size=1, max_size=12), st.booleans()),
        st.tuples(st.just("redo"), vertex, vertex),   # delete, then re-insert the pair
        st.tuples(st.just("del"), vertex, vertex),    # unmatched when the pair is absent
        st.tuples(st.just("hub"), st.integers(0, NV - 1), st.integers(1, 30)),
        st.tuples(st.just("birth"), st.integers(NV, GROW + 8)),
        st.tuples(st.sampled_from(["merge", "window", "resize"]), st.integers(0, 63)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("repair"), st.integers(0, 63)),
        st.tuples(st.just("refresh")),
    ),
    min_size=1,
    max_size=25,
)


def assert_top_lists_exact(cache, fresh):
    """Each shard's patched top list is a prefix of a from-scratch
    ranking, at least half a list long (or every row)."""
    for (ids, degs), (want_ids, want_degs), (ip, _) in zip(cache.tops, fresh.tops, fresh.rows()):
        assert ids.size >= min(TOP_ROWS // 2, ip.size - 1)
        assert ids.tobytes() == want_ids[: ids.size].tobytes()
        assert degs.tobytes() == want_degs[: ids.size].tobytes()


def lossy_repair(g, k):
    """Destroy one XPLine of a shard's edge array and let the scrubber
    close the holes (a filtered rewrite, like compaction)."""
    sh = g.shards[k % g.n_shards]
    lines = sh.ea.region.nbytes // XPLINE
    sh.pool.device.poison(sh.ea.region.offset + (k % lines) * XPLINE, XPLINE)
    ResilienceManager(sh).full_scrub()


@pytest.mark.parametrize("kind", STORES)
class TestTailPatch:
    @given(tail_ops)
    @common
    def test_every_refresh_is_the_from_scratch_build(self, kind, ops):
        """Duplicate pairs, delete-then-reinsert, unmatched tombstones,
        tails straddling the array run and the log chain, births, layout
        operations and the two history rewrites, refreshed at random
        points — alternately a served acquire (the rows alone) and an
        analysis ``materialize()`` of the same cache (the merge, over an
        in-CSR as many patches behind as acquires ran since): each
        refresh equals a fresh cache's build byte for byte (per-shard
        rows, or the out- and in-CSR), and a held view keeps its epoch's
        bytes."""
        g = make_store(kind, **TINY_LOG)
        g.insert_edges(np.random.default_rng(8).integers(0, NV, size=(150, 2)))
        cache, server = g.view_cache, QueryServer(g)
        held = server.acquire()
        pinned = held.epoch, rows_bytes(held)
        turns = iter(range(10**6))

        def refresh():
            fresh = ShardedViewCache(g)
            if next(turns) % 2:
                assert view_bytes(cache.materialize()) == view_bytes(fresh.materialize())
            else:
                assert rows_bytes(server.acquire()) == view_bytes(fresh.rows())
            assert_top_lists_exact(cache, fresh)

        for op in ops:
            if op[0] == "batch":
                g.insert_edges(EdgeBatch(*np.array(op[1], dtype=np.int64).T,
                                         np.full(len(op[1]), op[2])))  # all lives or all deletes
            elif op[0] == "redo":
                g.insert_edges([op[1:], op[1:]])  # a duplicate pair
                g.delete_edge(*op[1:])
                refresh()  # the tombstone lands in a tail of its own
                g.insert_edge(*op[1:])
            elif op[0] == "del":
                g.delete_edge(*op[1:])
            elif op[0] == "hub":
                g.insert_edges([[op[1], d % NV] for d in range(op[2])])
            elif op[0] == "birth":
                g.insert_vertex(op[1])
            elif op[0] == "repair":
                lossy_repair(g, op[1])
            elif op[0] == "refresh":
                refresh()
            else:
                layout_op(g, op)
        refresh()
        refresh()
        assert (held.epoch, rows_bytes(held)) == pinned
        g.check_invariants()

    def test_one_edge_on_a_hub_streams_one_entry(self, kind):
        g, cache, owner, read = hub_store(kind)
        listed = cache.tops[owner][0].size  # the hub's old entry gives way to its new one
        assert HUB in cache.tops[owner][0]
        g.insert_edge(HUB, 7)
        did, build_ns = read(), cache.last.modeled_ns
        assert [(b["rows_copied"], b["sections_probed"], b["entries_streamed"], b["top_entries"])
                for b in did] == [(1, 1, 1, listed) if r == owner else (0, 0, 0, 0) for r in range(g.n_shards)]
        assert cache.stats[owner].vertices_rebuilt == g.shards[owner].num_vertices + 1
        # the rows' patch is priced at any N without the merge ...
        assert build_ns == (2.0 * 1 * 8.0 * DRAM_SEQ_NS_PER_BYTE + 1 * PM_RND_NS + 1 * 4.0 * PM_SEQ_NS_PER_BYTE
                            + listed * 8.0 * DRAM_SEQ_NS_PER_BYTE)
        # ... which the first reader of the global arrays pays, alone
        ne = cache.materialize()[0][1].size
        assert cache.last.modeled_ns == ne * 4.0 * DRAM_SEQ_NS_PER_BYTE * (g.n_shards > 1)

    def test_a_compaction_costs_one_whole_row_read_then_tails_resume(self, kind):
        g, cache, owner, read = hub_store(kind)
        sh = g.shards[owner]
        for d in range(40):
            g.delete_edge(HUB, d % NV)
        read()
        before = int(sh.va.degree[HUB // g.n_shards])
        assert g.compact()["pairs_dropped"] == 40
        assert {b["mode"] for b in read()} == {"reuse"}  # a layout operation: no row re-read
        g.insert_edge(HUB, 9)
        raw = int(sh.va.degree[HUB // g.n_shards])
        assert raw == before - 80 + 1 > 500
        did = read()[owner]  # the prefix is void: every degree, the stale row whole
        assert (did["mode"], did["rows_copied"], did["entries_streamed"]) == ("incremental", sh.num_vertices, raw)
        g.insert_edge(HUB, 11)
        did = read()[owner]
        assert (did["mode"], did["rows_copied"], did["entries_streamed"]) == ("incremental", 1, 1)
        assert view_bytes(cache.materialize()) == view_bytes(ShardedViewCache(g).materialize())


@pytest.mark.parametrize("kind", STORES)
def test_a_top_list_shrunk_below_half_is_refilled_once(kind):
    """Every row holds two edges, so each list is its shard's lowest ids
    and its floor a degree-2 row.  One tombstone on the store's top row per
    read drops a listed row through the floor: the list shortens by one
    per read, with no sweep, until fewer than half remain — then exactly
    one refill ranks every row again.  Every answer along the way equals
    a fresh snapshot's."""
    nv = 240
    g = make_store(kind, init_vertices=nv, init_edges=4096)
    g.insert_edges([[v, (v + j) % nv] for j in (1, 2) for v in range(nv)])
    server, direct = QueryServer(g), SnapshotReader(g)
    cache = g.view_cache
    server.acquire()
    assert [ids.size for ids, _ in cache.tops] == [TOP_ROWS] * g.n_shards
    for _ in range(nv):
        v = int(direct.top_k_degree(1)[0][0])
        g.delete_edge(v, int(g.out_neighbors(v)[-1]))
        sizes = [ids.size for ids, _ in cache.tops]
        view = server.acquire()
        for k in (1, 8, TOP_ROWS // 2, TOP_ROWS + 1):
            assert _bytes_equal(view.top_k_degree(k), direct.top_k_degree(k)), k
        refills = [st.top_refills for st in cache.stats]
        if any(refills):
            break
        owner = int(shard_of(v, g.n_shards))
        assert [ids.size for ids, _ in cache.tops] == [t - (r == owner) for r, t in enumerate(sizes)]
    r = int(np.flatnonzero(refills)[0])
    assert refills == [int(i == r) for i in range(g.n_shards)]
    assert (sizes[r], cache.tops[r][0].size) == (TOP_ROWS // 2, TOP_ROWS)


HUB = 5


def hub_store(kind):
    """A store whose vertex ``HUB`` holds 600 entries, a cache built on it,
    and ``read()``: refresh the rows under a tracer, return each shard's
    ``view_materialize`` annotations (what ``view_build_ns`` prices)."""
    g = make_store(kind, init_vertices=64, init_edges=4096)
    g.insert_edges(np.random.default_rng(9).integers(0, 64, size=(500, 2)))
    g.insert_edges([[HUB, d % NV] for d in range(600)])
    cache = ShardedViewCache(g)
    cache.materialize()

    def read():
        tracer = Tracer(g.pool.stats)
        with tracing(tracer):
            cache.rows()
        return [sp.attrs for sp in tracer.find("view_materialize")]

    return g, cache, int(shard_of(HUB, g.n_shards)), read


# -- every row-changing site stamps its row ---------------------------------

V = 9  # the vertex every site test writes to
SITE_CFG = dict(init_vertices=64, init_edges=1024)


def fill_trailing_gap(g, v):
    """Append to ``v`` until the slot behind its run is occupied."""
    while True:
        pos = int(g.va.start[v] + g.va.array_degree[v])
        if pos >= g.ea.capacity or g.ea.slots[pos] != 0:
            return
        g.insert_edge(v, 1)


def tombstones(dsts):
    n = len(dsts)
    return EdgeBatch(np.full(n, V), np.array(dsts), np.ones(n, dtype=bool))


#: name -> (config, fill V's gap first?, mutation, the counter proving the site ran, by how much)
ROW_SITES = {
    "scalar gap insert": ({}, False, lambda g: g.insert_edge(V, 7), "n_array_inserts", 1),
    "scalar log append": ({}, True, lambda g: g.insert_edge(V, 7), "n_log_inserts", 1),
    "no-EL shift insert": (
        dict(use_edge_log=False), True, lambda g: g.insert_edge(V, 7), "n_shift_inserts", 1),
    "batch fast phase": ({}, False, lambda g: g.insert_edges([[V, 7], [V, 8]]), "n_array_inserts", 2),
    "batch log phase": ({}, True, lambda g: g.insert_edges([[V, 7], [V, 8]]), "n_log_inserts", 2),
    "scalar gap tombstone": ({}, False, lambda g: g.delete_edge(V, 3), "n_array_inserts", 1),
    "scalar log tombstone": ({}, True, lambda g: g.delete_edge(V, 3), "n_log_inserts", 1),
    "no-EL shift tombstone": (
        dict(use_edge_log=False), True, lambda g: g.delete_edge(V, 3), "n_shift_inserts", 1),
    "batch gap tombstones": (
        {}, False, lambda g: g.insert_edges(tombstones([3, 5])), "n_array_inserts", 2),
    "batch log tombstones": (
        {}, True, lambda g: g.insert_edges(tombstones([3, 5])), "n_log_inserts", 2),
}


def assert_patched_like_scratch(g, mutate, row=V):
    """A view cached before ``mutate`` moves, re-reading ``row`` alone, to
    the bytes a from-scratch build gives after it."""
    cache = ShardedViewCache(g)
    before = view_bytes(cache.materialize())
    epoch, rebuilt = g.structure_epoch, cache.stats[0].vertices_rebuilt
    mutate()
    after = view_bytes(cache.materialize())
    assert after == view_bytes(ShardedViewCache(g).materialize())
    assert after != before
    assert np.flatnonzero(g.rows_changed_since(epoch, g.num_vertices)).tolist() == [row]
    assert cache.stats[0].vertices_rebuilt == rebuilt + 1


class TestEveryRowChangingSiteStamps:
    @pytest.mark.parametrize("site", ROW_SITES)
    def test_write_path_site(self, site):
        """A view cached *before* the mutation differs *after* it exactly
        as a from-scratch build does — drop the site's stamp and the
        cache keeps serving the old row."""
        over, fill, mutate, counter, by = ROW_SITES[site]
        g = DGAP(DGAPConfig(**{**SITE_CFG, **over}))
        g.insert_edges(np.random.default_rng(6).integers(0, 64, size=(300, 2)))
        g.insert_edges([[V, 3], [V, 5], [V, 3]])
        if fill:
            fill_trailing_gap(g, V)
        ran = getattr(g, counter)
        assert_patched_like_scratch(g, lambda: mutate(g))
        assert getattr(g, counter) == ran + by  # the site under test is the one that ran

    @pytest.mark.parametrize("region", ["edge-array", "edge-log"])
    def test_lossy_scrub_repair(self, region):
        """A repair that *loses* entries changes the rows it lost them
        from; the cached view must follow."""
        g = hot_graph()  # vertex 0: array edges and a live log chain
        if region == "edge-array":
            off = g.ea.region.offset  # vertex 0's pivot and run start
        else:
            s0 = int(np.flatnonzero(g.logs.counts)[0])
            reg = g.logs.region
            off = reg.offset + s0 * g.logs.entries_per_section * 3 * reg.itemsize
        g.pool.device.poison(off, XPLINE)
        lossy = []
        assert_patched_like_scratch(g, lambda: lossy.extend(
            e for e in ResilienceManager(g).full_scrub() if e.outcome is RepairOutcome.LOSSY
        ), row=0)
        assert [e.kind for e in lossy] == [region] and dict(lossy[0].lost_by_vertex).keys() == {0}


# -- delete-heavy histories: tombstones and compaction sweeps --------------

#: each row inserts one edge and deletes its pair 1–2 times (a second
#: delete is an unmatched no-op tombstone), so every history is >50%
#: deletes — the regime the temporal expiry path lives in.
delete_heavy_ops = st.lists(
    st.tuples(
        st.integers(0, NV - 1),
        st.integers(0, NV - 1),
        st.integers(1, 2),  # deletes issued per insert
        st.booleans(),      # analyze right after this row
    ),
    min_size=4,
    max_size=30,
)


class TestDeleteHeavyHistories:
    @given(delete_heavy_ops, st.integers(0, 3))
    @common
    def test_cached_view_survives_delete_heavy_interleavings(self, rows, cmod):
        """Interleavings that are mostly deletions — matched tombstones,
        unmatched no-op tombstones, and periodic tombstone-merge
        compaction sweeps — never diverge the cached view from scratch."""
        system = small_system()
        n_ins = n_del = 0
        for i, (s, d, dels, analyze) in enumerate(rows):
            system.graph.insert_edge(s, d)
            n_ins += 1
            for _ in range(dels):
                system.graph.delete_edge(s, d)
                n_del += 1
            if analyze:
                assert_view_matches_scratch(system, system.analysis_view())
            if cmod and (i + 1) % (cmod + 1) == 0:
                system.graph.compact()
                assert_view_matches_scratch(system, system.analysis_view())
        system.graph.delete_edge(rows[0][0], rows[0][1])
        n_del += 1
        assert n_del > n_ins  # strictly delete-heavy, by construction
        assert_view_matches_scratch(system, system.analysis_view())

    @given(delete_heavy_ops)
    @common
    def test_batched_tombstones_match_scratch(self, rows):
        """The same delete-heavy histories applied as tombstone
        EdgeBatches (the temporal expiry path) instead of scalar ops."""
        from repro.core.batch import EdgeBatch

        system = small_system()
        for s, d, dels, analyze in rows:
            system.graph.insert_edge(s, d)
            src = np.full(dels, s, dtype=np.int64)
            dst = np.full(dels, d, dtype=np.int64)
            system.graph.insert_edges(
                EdgeBatch(src, dst, np.ones(dels, dtype=bool))
            )
            if analyze:
                assert_view_matches_scratch(system, system.analysis_view())
        if system.graph.tombstone_density() > 0:
            system.graph.compact()
        assert_view_matches_scratch(system, system.analysis_view())


# -- kernels: cached vs uncached bit-identity ------------------------------


class TestKernelIdentity:
    @staticmethod
    def kernel_round(cached, scratch, source=3):
        """Every kernel on a fresh view of each system: outputs and
        modeled seconds bit-identical, and the cache builds once and
        serves every other trial whole while from scratch every trial
        builds."""
        c0, s0 = cached.view_counters(), scratch.view_counters()
        for name, fn in KERNELS.items():
            vc, vs = cached.analysis_view(), scratch.analysis_view()
            vc.reset_clock()
            vs.reset_clock()
            args = (source,) if name in SOURCE_KERNELS else ()
            rc, rs = fn(vc, *args), fn(vs, *args)
            assert rc.tobytes() == rs.tobytes(), name
            assert rc.dtype == rs.dtype, name
            for threads in (1, 8, 16):
                assert vc.seconds(threads) == vs.seconds(threads), name
        c1, s1 = cached.view_counters(), scratch.view_counters()
        assert c1["view_builds"] - c0["view_builds"] == 1
        assert c1["whole_view_hits"] - c0["whole_view_hits"] == len(KERNELS) - 1
        assert s1["view_builds"] - s0["view_builds"] == len(KERNELS)

    def test_outputs_and_modeled_seconds_bit_identical(self):
        rng = np.random.default_rng(7)
        edges = rng.integers(0, NV, size=(600, 2), dtype=np.int64)
        cached, scratch = small_system(), small_system()
        scratch.view_caching = False
        for part in np.array_split(edges, 3):
            for system in (cached, scratch):
                system.insert_edges(part)
                system.finalize()
            self.kernel_round(cached, scratch)

    def test_windowed_stream_with_sweeps_stays_identical(self):
        """The windowed loop — adds, churn and expiry down the tombstone
        path — runs a kernel round after every step, and again right
        after each compaction sweep: a sweep moves no row but rewrites
        the layout (merged chains, dropped pairs), so the whole view must
        not be reused across it — its chain share and scan overhead moved."""
        spec = TEMPORAL_DATASETS["orkut-stream"]
        nv, _ = spec.sizes(0.05)
        # small sections, so the sweeps find pending edge-log chains
        cached, scratch = (build_system("dgap", nv, 1024, segment_slots=64)
                           for _ in range(2))
        scratch.view_caching = False
        windows = [TemporalWindowGraph(s.graph, 3, auto_compact=False)
                   for s in (cached, scratch)]
        chains_merged = []
        for step in spec.generate(0.05)[:12]:
            for wg in windows:
                wg.advance(step)
            self.kernel_round(cached, scratch)
            if cached.graph.tombstone_density() >= 0.2:
                chains_merged.append(int(cached.graph.logs.live_counts.sum()))
                for s in (cached, scratch):
                    s.graph.compact()
                self.kernel_round(cached, scratch)
        assert len(chains_merged) >= 2 and max(chains_merged) > 0
        assert (cached.graph.tombstone_pairs_compacted
                == scratch.graph.tombstone_pairs_compacted > 0)


# -- counters: the cache must actually be incremental ----------------------


class TestCounters:
    def build(self):
        # enough sections that one vertex's neighborhood is a strict
        # subset: 4096 slots / 128 = 32 sections
        system = small_system(init_vertices=64, init_edges=4096, segment_slots=128)
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 64, size=(1200, 2), dtype=np.int64)
        system.insert_edges(edges)
        system.finalize()
        system.analysis_view()
        return system

    def test_unchanged_graph_is_a_whole_view_hit(self):
        system = self.build()
        c0 = system.view_counters()
        system.analysis_view()
        c1 = system.view_counters()
        assert c1["whole_view_hits"] == c0["whole_view_hits"] + 1
        assert c1["view_builds"] == c0["view_builds"]
        assert c1["sections_rebuilt"] == c0["sections_rebuilt"]
        assert c1["vertices_rebuilt"] == c0["vertices_rebuilt"]

    def test_localized_batch_rebuilds_dirty_sections_only(self):
        system = self.build()
        c0 = system.view_counters()
        batch = np.array([[5, 9], [5, 11], [5, 13]], dtype=np.int64)
        system.insert_edges(batch)
        system.finalize()
        view = system.analysis_view()
        c1 = system.view_counters()
        assert c1["incremental_builds"] == c0["incremental_builds"] + 1
        assert c1["full_rebuilds"] == c0["full_rebuilds"]
        d_secs = c1["sections_rebuilt"] - c0["sections_rebuilt"]
        assert 0 < d_secs < c1["sections_total"]
        assert c1["rows_reused"] > c0["rows_reused"]
        assert c1["delta_edges_merged"] > c0["delta_edges_merged"]
        assert_view_matches_scratch(system, view)

    def test_a_localized_increment_patches_cheaper_than_a_scattered_one(self):
        """The modeled patch (``cache.last``) of 512 edges whose sources
        span 1/32 of the id space (the ``analyze-loop`` workload's share)
        costs at least 3x less than 512 edges from all of it."""
        nv, edges = load_stream("orkut", 0.05)
        system = build_system("dgap", nv, edges.shape[0])
        system.insert_edges(edges)
        system.finalize()
        system.analysis_view()
        rng = np.random.default_rng(0)
        span = nv // 32
        patch_ns = []
        for lo, width in (((nv - span) // 2, span), (0, nv)):
            srcs = lo + rng.integers(0, width, 512)
            system.insert_edges(np.stack([srcs, rng.integers(0, nv, 512)], axis=1))
            system.finalize()
            system.analysis_view()
            patch_ns.append(system.graph.view_cache.last.modeled_ns)
        local, scattered = patch_ns
        assert scattered >= 3 * local, (local, scattered)


# -- aliasing: views never alias the persistent buffers --------------------


class TestAliasing:
    def make(self, caching):
        system = small_system()
        rng = np.random.default_rng(11)
        system.insert_edges(rng.integers(0, NV, size=(400, 2), dtype=np.int64))
        system.finalize()
        system.view_caching = caching
        return system

    @pytest.mark.parametrize("caching", [True, False])
    def test_view_arrays_do_not_alias_persistent_state(self, caching):
        """Pins the satellite decision to drop the defensive ``.copy()``
        in ``DGAPSystem._build_view``: ``to_csr`` (and the incremental
        cache) must hand out arrays that share no memory with the
        simulated PM buffer or the live slot array."""
        system = self.make(caching)
        view = system.analysis_view()
        indptr, dsts = view.out_csr()
        for persistent in (system.graph.pool.device.buf, system.graph.ea.slots):
            assert not np.shares_memory(dsts, persistent)
            assert not np.shares_memory(indptr, persistent)

    @pytest.mark.parametrize("caching", [True, False])
    def test_view_is_stable_under_later_mutations(self, caching):
        system = self.make(caching)
        view = system.analysis_view()
        indptr, dsts = view.out_csr()
        ip0, ds0 = indptr.copy(), dsts.copy()
        rng = np.random.default_rng(12)
        system.insert_edges(rng.integers(0, NV, size=(300, 2), dtype=np.int64))
        system.finalize()
        system.analysis_view()  # triggers a (possibly incremental) rebuild
        np.testing.assert_array_equal(indptr, ip0)
        np.testing.assert_array_equal(dsts, ds0)


# -- dtype standard across every system ------------------------------------


class TestDtypeStandard:
    def views(self):
        rng = np.random.default_rng(5)
        edges = rng.integers(0, 32, size=(300, 2), dtype=np.int64)
        for name, cls in SYSTEMS.items():
            system = cls(32, 400)
            system.insert_edges(edges)
            system.finalize()
            yield name, system.analysis_view()
        yield "csr", StaticCSR(32, edges).analysis_view()

    def test_csr_arrays_use_documented_dtypes(self):
        for name, view in self.views():
            out_ip, out_ds = view.out_csr()
            in_ip, in_sr = view.in_csr()
            assert out_ip.dtype == INDPTR_DTYPE, name
            assert in_ip.dtype == INDPTR_DTYPE, name
            assert out_ds.dtype == ID_DTYPE, name
            assert in_sr.dtype == ID_DTYPE, name
            # derived id arrays are intp: they are fancy-index operands
            assert view.out_src_ids().dtype == np.intp, name
            assert view.num_edges == out_ip[-1] == len(out_ds), name


# -- satellite: one shared multi_arange ------------------------------------


def test_multi_arange_single_implementation():
    from repro import nputil
    from repro.algorithms import common as algo_common
    from repro.core import dgap as core_dgap, snapshot as core_snapshot

    assert algo_common.multi_arange is nputil.multi_arange
    assert core_snapshot.multi_arange is core_dgap.multi_arange is nputil.multi_arange
    got = nputil.multi_arange(np.array([3, 10, 7]), np.array([2, 0, 3]))
    np.testing.assert_array_equal(got, [3, 4, 7, 8, 9])
