"""Hypothesis property tests on the core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.encoding import (
    GAP,
    MAX_VERTEX,
    edge_dsts,
    encode_edge,
    encode_pivot,
    is_tombstone,
    pivot_vertices,
    tombstone_matches,
    worth,
)
from repro.core.pma_tree import PMATree
from repro.nputil import multi_arange as _multi_arange
from repro.pmem import CACHE_LINE, PMemDevice


common = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

class TestEncodingProperties:
    @given(st.integers(0, (1 << 30) - 2))
    @common
    def test_pivot_roundtrip(self, v):
        assert pivot_vertices(encode_pivot(v)) == v
        ids = np.array([0, v, MAX_VERTEX])
        np.testing.assert_array_equal(pivot_vertices(encode_pivot(ids)), ids)

    @given(st.integers(0, (1 << 29) - 2), st.booleans())
    @common
    def test_edge_roundtrip(self, dst, tomb):
        slot = encode_edge(dst, tomb)
        assert (edge_dsts(slot), is_tombstone(slot)) == (dst, tomb)
        dsts, tombs = np.array([0, dst, MAX_VERTEX]), np.array([tomb, not tomb, True])
        slots = encode_edge(dsts, tombs)
        np.testing.assert_array_equal(edge_dsts(slots), dsts)
        np.testing.assert_array_equal(is_tombstone(slots), tombs)
        np.testing.assert_array_equal(worth(slots), np.where(tombs, -1, 1))

    @given(st.integers(0, (1 << 29) - 2), st.integers(0, (1 << 29) - 2))
    @common
    def test_encodings_disjoint(self, a, b):
        # pivots negative, edges positive, gap zero: never collide, and
        # only an edge is worth anything to a live degree
        slots = np.array([encode_pivot(a), GAP, encode_edge(b)])
        assert slots[0] < slots[1] == 0 < slots[2]
        np.testing.assert_array_equal(worth(slots), [0, 0, 1])


class TestPMATreeProperties:
    @given(st.integers(0, 63), st.integers(0, 6))
    @common
    def test_windows_nest(self, section, level):
        t = PMATree(64, 64)
        lo1, hi1 = t.window_at(section, level)
        lo2, hi2 = t.window_at(section, min(level + 1, t.height))
        assert lo2 <= lo1 and hi1 <= hi2
        assert lo1 <= section < hi1

    @given(st.lists(st.integers(0, 64), min_size=16, max_size=16), st.integers(0, 15))
    @common
    def test_found_window_is_within_bound(self, occ, section):
        t = PMATree(16, 64)
        occ = np.asarray(occ, dtype=np.int64)
        res = t.find_rebalance_window(occ, section)
        if res is not None:
            lo, hi, level = res
            assert occ[lo:hi].sum() / ((hi - lo) * 64) <= t.tau(level) + 1e-9
        else:
            assert occ.sum() / (16 * 64) > t.tau(t.height)


class TestDeviceProperties:
    @given(st.data())
    @common
    def test_persisted_data_survives_crash(self, data):
        dev = PMemDevice(16 * 1024)
        n_ops = data.draw(st.integers(1, 20))
        persisted = {}
        for _ in range(n_ops):
            off = data.draw(st.integers(0, 255)) * CACHE_LINE
            val = data.draw(st.binary(min_size=1, max_size=16))
            dev.store(off, val)
            if data.draw(st.booleans()):
                dev.persist(off, len(val))
                persisted[off] = val
        dev.crash()
        for off, val in persisted.items():
            # the whole covering line persisted; the bytes must match the
            # last persisted value unless a later store to the same line
            # was also persisted (dict keeps last-per-offset anyway)
            assert bytes(dev.read(off, len(val))) == val


class TestSnapshotHelpers:
    @given(
        st.lists(st.integers(0, 1000), min_size=0, max_size=50),
        st.lists(st.integers(1, 30), min_size=0, max_size=50),
    )
    @common
    def test_multi_arange_matches_naive(self, starts, counts):
        n = min(len(starts), len(counts))
        s = np.asarray(starts[:n], dtype=np.int64)
        c = np.asarray(counts[:n], dtype=np.int64)
        got = _multi_arange(s, c)
        want = np.concatenate(
            [np.arange(a, a + k) for a, k in zip(s, c)] or [np.empty(0, np.int64)]
        )
        np.testing.assert_array_equal(got, want)

    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=40))
    @common
    def test_tombstones_cancel_exactly_one_earlier(self, seq):
        dsts = np.array([d for d, _ in seq], dtype=np.int64)
        tomb = np.array([t for _, t in seq], dtype=bool)
        out = dsts[~(tomb | tombstone_matches(dsts, tomb))]
        # reference: simple stack simulation
        stacks = {}
        keep = []
        for i, (d, t) in enumerate(seq):
            if t:
                if stacks.get(d):
                    keep[stacks[d].pop()] = None
            else:
                keep.append(d)
                stacks.setdefault(d, []).append(len(keep) - 1)
        want = [d for d in keep if d is not None]
        assert out.tolist() == want


def tombstone_matches_oracle(keys, tomb, run_off=(0,), sizes=None):
    """The per-entry spelling of the pairing rule ``tombstone_matches``
    used to be: one stack of open live positions per key, per run."""
    matched = np.zeros(keys.size, dtype=bool)
    ks, ts = keys.tolist(), tomb.tolist()
    for o, s in zip(run_off, (keys.size,) if sizes is None else sizes):
        open_pos: dict = {}
        for i in range(o, o + s):
            if ts[i]:
                stack = open_pos.get(ks[i])
                if stack:
                    matched[stack.pop()] = True
                    matched[i] = True
            else:
                open_pos.setdefault(ks[i], []).append(i)
    return matched


class TestTombstonePairing:
    #: few keys and many tombstones: re-insertions after deletes, deletes
    #: of never-present keys and stacks several lives deep all occur
    run_s = st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=30)

    @given(st.lists(run_s, min_size=1, max_size=6))
    @common
    def test_matches_the_stack_oracle_over_several_runs(self, runs):
        seq = [e for run in runs for e in run]
        keys = np.array([k for k, _ in seq], dtype=np.int32)
        tomb = np.array([t for _, t in seq], dtype=bool)
        sizes = np.array([len(run) for run in runs], dtype=np.int64)
        off = np.cumsum(sizes) - sizes
        got = tombstone_matches(keys, tomb, off, sizes)
        np.testing.assert_array_equal(got, tombstone_matches_oracle(keys, tomb, off, sizes))
        # the same entries as one run pair differently: keys meet across rows
        np.testing.assert_array_equal(
            tombstone_matches(keys, tomb), tombstone_matches_oracle(keys, tomb)
        )
        # runs that do not cover the array leave the rest unmarked
        if len(runs) > 1:
            part = tombstone_matches(keys, tomb, off[1:], sizes[1:])
            np.testing.assert_array_equal(
                part, tombstone_matches_oracle(keys, tomb, off[1:], sizes[1:])
            )
            assert not part[: sizes[0]].any()

    def test_reinsertion_survives_and_unmatched_delete_stays(self):
        # a b a ~a ~a ~a a ~b ~c : the third ~a and ~c match nothing
        keys = np.array([0, 1, 0, 0, 0, 0, 0, 1, 2])
        tomb = np.array([0, 0, 0, 1, 1, 1, 0, 1, 1], dtype=bool)
        want = np.array([1, 1, 1, 1, 1, 0, 0, 1, 0], dtype=bool)
        np.testing.assert_array_equal(tombstone_matches(keys, tomb), want)
