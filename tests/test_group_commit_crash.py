"""Crash consistency of the commit-group write protocol (DESIGN.md §5).

A batched round persists its gap fills as one commit group and its
edge-log appends as a second one (all stores, one flush per distinct
line, one fence).  A power failure inside a group may persist any
8-byte-chunk / cache-line subset of its stores, so recovery restores the
per-vertex-prefix guarantee itself with two cuts:

* ``_scan_edge_array`` cuts each run at its first gap and persistently
  zeroes any nonzero slot between that gap and the next pivot;
* ``_replay_logs`` accepts a valid log entry only if its back-pointer
  chain is intact and persistently invalidates the rest.

Here the two torn shapes are planted directly into a quiescent image;
the ``batched`` rows of ``test_crash_sweeps.py`` sweep every persistence
event of batched workloads under every fault policy against the
per-vertex-prefix oracle.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro import DGAP, DGAPConfig
from repro.core import recovery
from repro.core.encoding import encode_edge
from repro.errors import SimulatedCrash
from repro.pmem import CACHE_LINE, CrashInjector
from .harness import model
from .harness.readpath_ref import scalar_readpath
from .stores import reopen

CFG = dict(init_vertices=8, init_edges=256, segment_slots=64, elog_size=96)
SLOTS_PER_LINE = CACHE_LINE // 4


@pytest.fixture(params=[False, True], ids=["vectorized", "scalar"])
def readpath(request):
    """Each test runs on the store's read path and on the reference one."""
    with scalar_readpath() if request.param else contextlib.nullcontext():
        yield


def plant(dev, off: int, data: np.ndarray) -> None:
    """Make ``data`` part of the durable image, as a torn group would."""
    raw = np.ascontiguousarray(data).view(np.uint8)
    dev.buf[off : off + raw.size] = raw
    dev.media[off : off + raw.size] = raw


def assert_idempotent(g2, inj):
    """A second crash — during or after recovery — changes nothing."""
    want = model.of(g2)
    media = g2.pool.device.media.copy()
    g3 = reopen(g2, crash=True)
    assert model.of(g3) == want
    np.testing.assert_array_equal(g3.pool.device.media, media)
    for k in (1, 2, 3):  # power failures inside the recovery itself
        inj.arm(k)
        try:
            DGAP.open(g3.pool, g3.config)
        except SimulatedCrash:
            pass
        inj.disarm()
        assert model.of(reopen(g3, crash=True)) == want


class TestPlantedTornShapes:
    def test_slot_behind_a_gap_is_cut_and_scrubbed(self, readpath):
        cfg = DGAPConfig(**CFG)
        inj = CrashInjector()
        g = DGAP(cfg, injector=inj)
        g.insert_edges([(v, (v + 1) % 8) for v in range(8)])
        v, d = 3, 0
        # grow v's run until its next free slot k is the last of a line
        while (int(g.va.start[v] + g.va.array_degree[v]) % SLOTS_PER_LINE
               != SLOTS_PER_LINE - 1):
            g.insert_edge(v, d % 8)
            d += 1
        before = model.of(g)
        k = int(g.va.start[v] + g.va.array_degree[v])
        assert k + 6 < int(g.va.start[v + 1]) - 1  # all inside v's own gap
        # slot k's line was lost; k+1, k+2 and k+5 (next line) persisted
        garbage = [k + 1, k + 2, k + 5]
        for s in garbage:
            plant(g.pool.device, g.ea.byte_off(s),
                  np.asarray(encode_edge(s % 8), dtype=np.int32))

        g2 = reopen(g, crash=True)
        assert model.of(g2) == before  # the per-vertex prefix, no phantoms
        slots = g2.pool.device.media.view(np.int32)
        base = g2.ea.region.offset // 4
        assert not slots[base + k : base + k + 6].any()  # scrubbed on media
        assert_idempotent(g2, inj)
        # the recovered run is writable again, through the cut slot
        g2.insert_edges([(v, 1), (v, 2)])
        assert g2.out_neighbors(v).tolist() == before[v] + [1, 2]
        g2.check_invariants()

    def test_log_entry_with_missing_back_target_is_rejected(self, readpath):
        # 32 vertices: 0..3 share PMA section 0 and therefore its edge log
        cfg = DGAPConfig(**{**CFG, "init_vertices": 32})
        inj = CrashInjector()
        g = DGAP(cfg, injector=inj)
        assert g.ea.section_of(int(g.va.start[1]) - 1) == 0
        # fill vertex 0's gap, then overflow into its section's edge log
        d = 0
        while g.n_log_inserts < 2:
            g.insert_edge(0, d % 8)
            d += 1
        g.insert_edges([(1, 5), (1, 6)])
        before = model.of(g)
        logs = g.logs
        sec = g.ea.section_of(int(g.va.start[0]) - 1)
        c = int(logs.counts[sec])
        head = int(g.va.el[0])
        assert head >= 0 and c + 4 <= logs.capacity
        # entry c never persisted; c+1 (back -> c) and c+2 (back -> c+1)
        # did, and so did c+3, a sibling's well-rooted entry
        base = logs.gidx(sec, c)
        rows = {
            base + 1: (0 + 1, int(encode_edge(6)), base + 2),
            base + 2: (0 + 1, int(encode_edge(7)), base + 1 + 2),
            base + 3: (1 + 1, int(encode_edge(4)), -1 + 2),
        }
        for gidx, row in rows.items():
            plant(g.pool.device, logs.region.byte_offset(gidx * 3),
                  np.asarray(row, dtype=np.int32))

        g2 = reopen(g, crash=True)
        want = dict(before)
        want[1] = before[1] + [4]  # the rooted sibling entry is a legal prefix
        assert model.of(g2) == want
        assert int(g2.va.el[0]) == head  # chain head back on the intact entry
        view = g2.pool.device.media.view(np.int32)
        fld = g2.logs.region.offset // 4
        for gidx in (base + 1, base + 2):  # invalidated on media, still spent
            assert view[fld + gidx * 3 + 1] == 0
            assert view[fld + gidx * 3] != 0
        assert int(g2.logs.counts[sec]) == c + 4
        assert_idempotent(g2, inj)
        g2.insert_edges([(0, 1), (0, 2)])
        assert g2.out_neighbors(0).tolist() == before[0] + [1, 2]
        g2.check_invariants()

    def test_clean_image_costs_no_extra_recovery_traffic(self):
        """Nothing torn -> the cuts read and write nothing of their own."""
        cfg = DGAPConfig(**CFG)
        g = DGAP(cfg)
        rng = np.random.default_rng(0)
        g.insert_edges(rng.integers(0, 8, size=(120, 2)), batch_size=16)
        g.pool.crash()
        with mock.patch.object(recovery, "_zero_slots") as scrub, \
                mock.patch.object(type(g.logs), "invalidate_entries") as inval:
            DGAP.open(g.pool, cfg)
        assert not scrub.called and not inval.called
