"""Incremental analytics views: epoch tracking, cache identity, dtypes.

The contract under test (DESIGN.md §7): the epoch-versioned view cache
must be *invisible* — every cached materialization is element-identical
to a from-scratch rebuild of the same snapshot, kernel outputs and
modeled seconds are bit-identical cached vs uncached, and the counters
prove the cache really is incremental (it skips clean sections).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DGAPConfig
from repro.analysis.view import ID_DTYPE, INDPTR_DTYPE, build_in_csr
from repro.baselines import SYSTEMS, DGAPSystem, StaticCSR
from repro.bench.harness import SOURCE_KERNELS
from repro.algorithms import KERNELS
from repro.sharding import ShardedViewCache

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


def scratch_reference(system):
    """(out, in) CSR rebuilt from scratch off a fresh snapshot."""
    with system.graph.consistent_view() as snap:
        indptr, dsts = snap.to_csr()
    nv = system.graph.num_vertices
    return (np.asarray(indptr), np.asarray(dsts)), build_in_csr(
        np.asarray(indptr), np.asarray(dsts), nv
    )


def assert_view_matches_scratch(system, view):
    (ref_ip, ref_ds), (ref_iip, ref_isr) = scratch_reference(system)
    out_ip, out_ds = view.out_csr()
    in_ip, in_sr = view.in_csr()
    np.testing.assert_array_equal(out_ip, ref_ip)
    np.testing.assert_array_equal(out_ds, ref_ds)
    np.testing.assert_array_equal(in_ip, ref_iip)
    np.testing.assert_array_equal(in_sr, ref_isr)
    assert out_ip.dtype == ref_ip.dtype and out_ds.dtype == ref_ds.dtype
    assert in_ip.dtype == ref_iip.dtype and in_sr.dtype == ref_isr.dtype


# -- the tentpole property: cache == scratch under arbitrary histories ----

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("ins"), st.integers(0, NV - 1), st.integers(0, NV - 1)),
        st.tuples(st.just("del"), st.integers(0, NV - 1), st.integers(0, NV - 1)),
        st.tuples(
            st.just("batch"),
            st.lists(
                st.tuples(st.integers(0, NV - 1), st.integers(0, NV - 1)),
                min_size=1,
                max_size=40,
            ),
        ),
        st.tuples(st.just("analyze")),
    ),
    min_size=1,
    max_size=40,
)


class TestIncrementalViewProperty:
    @given(ops_strategy)
    @common
    def test_cached_view_identical_to_scratch(self, ops):
        """Arbitrary interleavings of inserts, deletes, batches and
        analysis rounds — enough volume on the small geometry to force
        merges, rebalance windows and resizes — never diverge the cached
        materialization from a from-scratch one (elements *and* dtypes).
        """
        system = small_system()
        for op in ops:
            if op[0] == "ins":
                system.graph.insert_edge(op[1], op[2])
            elif op[0] == "del":
                # deleting a missing edge is a no-op tombstone — legal
                system.graph.delete_edge(op[1], op[2])
            elif op[0] == "batch":
                system.insert_edges(np.array(op[1], dtype=np.int64))
            else:
                assert_view_matches_scratch(system, system.analysis_view())
        # always end with one analyze so every history is checked
        assert_view_matches_scratch(system, system.analysis_view())

    @given(ops_strategy)
    @common
    def test_second_view_cache_follows_first(self, ops):
        """A second, independent view cache attached mid-history must
        agree too (epoch stamps are monotone, never cleared per-cache)."""
        system = small_system()
        late = None
        for i, op in enumerate(ops):
            if op[0] == "ins":
                system.graph.insert_edge(op[1], op[2])
            elif op[0] == "del":
                system.graph.delete_edge(op[1], op[2])
            elif op[0] == "batch":
                system.insert_edges(np.array(op[1], dtype=np.int64))
            else:
                system.analysis_view()
                if late is None:
                    late = ShardedViewCache(system.graph)
                out, inn = late.materialize()
        if late is not None:
            out, inn = late.materialize()
            (ref_ip, ref_ds), (ref_iip, ref_isr) = scratch_reference(system)
            np.testing.assert_array_equal(out[0], ref_ip)
            np.testing.assert_array_equal(out[1], ref_ds)
            np.testing.assert_array_equal(inn[0], ref_iip)
            np.testing.assert_array_equal(inn[1], ref_isr)


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
    def test_outputs_and_modeled_seconds_bit_identical(self):
        rng = np.random.default_rng(7)
        edges = rng.integers(0, NV, size=(600, 2), dtype=np.int64)
        cached, scratch = small_system(), small_system()
        scratch.view_caching = False
        for part in np.array_split(edges, 3):
            cached.insert_edges(part)
            scratch.insert_edges(part)
            cached.finalize()
            scratch.finalize()
            for name, fn in KERNELS.items():
                vc, vs = cached.analysis_view(), scratch.analysis_view()
                vc.reset_clock()
                vs.reset_clock()
                args = (3,) if name in SOURCE_KERNELS else ()
                rc, rs = fn(vc, *args), fn(vs, *args)
                assert rc.tobytes() == rs.tobytes(), name
                assert rc.dtype == rs.dtype, name
                for threads in (1, 8, 16):
                    assert vc.seconds(threads) == vs.seconds(threads), name


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
            assert view.in_dst_ids().dtype == np.intp, name
            assert view.num_edges == out_ip[-1] == len(out_ds), name


# -- satellite: one shared multi_arange ------------------------------------


def test_multi_arange_single_implementation():
    from repro import nputil
    from repro.algorithms import common as algo_common
    from repro.core import snapshot as core_snapshot

    assert algo_common.multi_arange is nputil.multi_arange
    assert core_snapshot._multi_arange is nputil.multi_arange
    got = nputil.multi_arange(np.array([3, 10, 7]), np.array([2, 0, 3]))
    np.testing.assert_array_equal(got, [3, 4, 7, 8, 9])
