"""Unit tests for the PMA density tree, slot encoding and vertex array."""

import numpy as np
import pytest

from repro.core import encoding as enc
from repro.core.edge_array import EdgeArray
from repro.core.pma_tree import PMATree
from repro.core.vertex_array import NO_EL, VertexArray, make_vertex_array
from repro.errors import VertexRangeError
from repro.pmem import PMemPool


class TestEncoding:
    def test_pivot_roundtrip(self):
        ids = np.array([0, 1, 17, enc.MAX_VERTEX])
        for v in ids.tolist():
            assert enc.pivot_vertices(enc.encode_pivot(v)) == v
            assert enc.encode_pivot(v) < 0
        slots = enc.encode_pivot(ids)  # an array is one more case of the same functions
        assert slots.dtype == enc.SLOT_DTYPE and enc.is_pivot(slots).all()
        np.testing.assert_array_equal(enc.pivot_vertices(slots), ids)
        np.testing.assert_array_equal(enc.worth(slots), 0)

    def test_edge_roundtrip(self):
        dsts = np.array([0, 5, 12345, enc.MAX_VERTEX])
        for tomb in (False, True):
            for dst in dsts.tolist():
                slot = enc.encode_edge(dst, tomb)
                assert slot > 0
                assert (enc.edge_dsts(slot), enc.is_tombstone(slot)) == (dst, tomb)
                assert enc.worth(slot) == (-1 if tomb else 1)
        # arrays, with a tombstone mask or none; the top id keeps its tombstone bit apart
        tombs = np.array([False, True, False, True])
        for mask, want in ((tombs, tombs), (None, np.zeros(4, bool))):
            slots = enc.encode_edge(dsts) if mask is None else enc.encode_edge(dsts, mask)
            assert slots.dtype == enc.SLOT_DTYPE and (slots > 0).all()
            np.testing.assert_array_equal(enc.edge_dsts(slots), dsts)
            np.testing.assert_array_equal(enc.is_tombstone(slots), want)
            np.testing.assert_array_equal(enc.worth(slots), np.where(want, -1, 1))
            np.testing.assert_array_equal(slots, [enc.encode_edge(d, t) for d, t in zip(dsts, want)])

    def test_gap_is_zero(self):
        assert enc.GAP == 0

    def test_vectorized_classification(self):
        slots = np.array(
            [0, enc.encode_pivot(3), enc.encode_edge(7), enc.encode_edge(9, True)],
            dtype=np.int32,
        )
        np.testing.assert_array_equal(slots == enc.GAP, [True, False, False, False])
        np.testing.assert_array_equal(enc.is_pivot(slots), [False, True, False, False])
        np.testing.assert_array_equal(enc.is_edge(slots), [False, False, True, True])
        np.testing.assert_array_equal(enc.is_tombstone(slots), [False, False, False, True])
        assert enc.pivot_vertices(slots[1:2])[0] == 3
        np.testing.assert_array_equal(enc.edge_dsts(slots[2:]), [7, 9])


class TestPMATree:
    def test_thresholds_interpolate(self):
        t = PMATree(16, 64)
        assert t.tau(0) == pytest.approx(0.92)
        assert t.tau(t.height) == pytest.approx(0.70)
        taus = [t.tau(h) for h in range(t.height + 1)]
        assert taus == sorted(taus, reverse=True)

    def test_single_section_tree(self):
        t = PMATree(1, 64)
        assert t.height == 0
        assert t.tau(0) == pytest.approx(0.70)

    def test_non_pow2_rejected(self):
        with pytest.raises(ValueError):
            PMATree(12, 64)

    def test_window_alignment(self):
        t = PMATree(8, 64)
        assert t.window_at(5, 0) == (5, 6)
        assert t.window_at(5, 1) == (4, 6)
        assert t.window_at(5, 2) == (4, 8)
        assert t.window_at(5, 3) == (0, 8)

    def test_find_window_escalates(self):
        t = PMATree(4, 64)
        occ = np.array([64, 0, 0, 0], dtype=np.int64)  # leaf 0 full
        lo, hi, level = t.find_rebalance_window(occ, 0)
        assert (lo, hi) == (0, 2) and level == 1

    def test_find_window_needs_resize(self):
        t = PMATree(4, 64)
        occ = np.full(4, 63, dtype=np.int64)  # everything ~full
        assert t.find_rebalance_window(occ, 0) is None

    def test_find_window_level0_ok(self):
        t = PMATree(4, 64)
        occ = np.array([10, 0, 0, 0], dtype=np.int64)
        lo, hi, level = t.find_rebalance_window(occ, 0)
        assert level == 0

    def test_density(self):
        """A window's density is its combined occupancy over its slots;
        the level it clears is the window returned."""
        t = PMATree(4, 64)
        occ = np.array([58, 58, 0, 0], dtype=np.int64)
        assert t.find_rebalance_window(occ, 0) == (0, 1, 0)  # 58/64 <= 0.92
        # 59/64 > tau(0) and 117/128 > tau(1) = 0.81; 117/256 clears the root
        occ[0] += 1
        assert t.find_rebalance_window(occ, 0) == (0, 4, 2)

    def test_section_slot_mapping(self):
        """Slot -> section lives on the edge array; the tree sees sections."""
        ea = EdgeArray(PMemPool(1 << 20), 256, 64)
        assert [ea.section_of(s) for s in (0, 63, 64, 255)] == [0, 0, 1, 3]
        assert ea.tree.window_at(ea.section_of(130), 1) == (2, 4)


class TestVertexArray:
    def test_init_state(self):
        va = VertexArray(10)
        assert va.num_vertices == 10
        assert (va.el[:10] == NO_EL).all()
        assert va.degrees().sum() == 0

    def test_setters(self):
        va = VertexArray(4)
        va.set_degree(2, 5)
        va.set_start(2, 100)
        va.set_el(2, 7)
        assert va.degree[2] == 5 and va.start[2] == 100 and va.el[2] == 7

    def test_check(self):
        va = VertexArray(4)
        with pytest.raises(VertexRangeError):
            va.check(4)
        va.check(3)

    def test_grow_preserves(self):
        va = VertexArray(4)
        va.set_degree(3, 9)
        va.grow(100)
        assert va.num_vertices == 100
        assert va.degree[3] == 9
        assert va.el[50] == NO_EL

    def test_grow_noop_backwards(self):
        va = VertexArray(10)
        va.grow(5)
        assert va.num_vertices == 10

    def test_update_window(self):
        va = VertexArray(8)
        arrs = [np.arange(3) + k for k in range(5)]
        va.update_window(2, 5, arrs[0], arrs[1], arrs[2], arrs[3], arrs[4])
        np.testing.assert_array_equal(va.start[2:5], arrs[0])
        np.testing.assert_array_equal(va.degree[2:5], arrs[1])

    def test_pm_backend_mirrors(self):
        pool = PMemPool(1 << 20)
        va = make_vertex_array(8, dram_placement=False, pool=pool)
        before = pool.stats.flushes
        va.set_degree(3, 7)
        assert pool.stats.flushes > before  # persistent in-place update
        assert va._regions["degree"].view[3] == 7

    def test_pm_backend_grows_a_generation_and_reopens(self):
        """Growing past the mirror's capacity moves it to ``vertexarr.*.g1``
        regions holding the DRAM values; a crash + reopen (which builds a
        fresh mirror under the old names) reads the same graph."""
        from repro import DGAP, DGAPConfig

        cfg = DGAPConfig(init_vertices=4, init_edges=256, segment_slots=64, dram_placement=False)
        g = DGAP(cfg)
        for i in range(12):
            g.insert_edge(i % 4, i % 4)
        assert not g.pool.has_array("vertexarr.degree.g1")
        g.insert_edge(1, 20)  # vertex 20 is past the 16-entry mirror
        for f in ("degree", "start", "el"):
            grown = g.pool.get_array(f"vertexarr.{f}.g1")
            assert grown.count > 16
            np.testing.assert_array_equal(grown.view, getattr(g.va, f))
        before = {v: g.out_neighbors(v).tolist() for v in range(g.num_vertices)}
        g.pool.crash()
        g = DGAP.open(g.pool, cfg)
        assert {v: g.out_neighbors(v).tolist() for v in range(g.num_vertices)} == before
        g.insert_edge(20, 3)
        assert g.va._regions["degree"].view[20] == 1  # the reopened mirror is live

    def test_pm_backend_requires_pool(self):
        with pytest.raises(ValueError):
            make_vertex_array(8, dram_placement=False, pool=None)

    def test_dram_backend_no_pm_traffic(self):
        va = make_vertex_array(8, dram_placement=True)
        assert va.is_dram
