"""Tests for the benchmark harness, reporting helpers and cost model glue."""

import functools

import numpy as np
import pytest

from repro.analysis import costs
from repro.analysis.view import CSR_PM_GEOMETRY, AnalysisClock, StorageGeometry
from repro.baselines.interfaces import InsertProfile, PM_WRITE_BW_BYTES_PER_S
from repro.bench.harness import build_system, get_built_system, get_static_csr, ingest, run_kernel
from repro.bench.reporting import format_table, paper_vs_measured
from repro.bench import paper_data
from repro.datasets import get_dataset


class TestInsertProfile:
    def test_t1_is_modeled_time(self):
        p = InsertProfile(edges=1000, modeled_ns=1e6, pm_media_bytes=0, serial_fraction=0.5)
        assert p.seconds(1) == pytest.approx(1e-3)
        assert p.meps(1) == pytest.approx(1.0)

    def test_amdahl(self):
        p = InsertProfile(edges=1000, modeled_ns=1e9, pm_media_bytes=0, serial_fraction=0.5)
        # 50% serial: at infinite threads, half the time remains
        assert p.seconds(10_000) == pytest.approx(0.5, rel=1e-3)

    def test_bandwidth_floor(self):
        p = InsertProfile(
            edges=1000, modeled_ns=1e9, pm_media_bytes=int(PM_WRITE_BW_BYTES_PER_S),
            serial_fraction=0.0,
        )
        # parallel time would be 1/16 s but the media floor is 1 s
        assert p.seconds(16) == pytest.approx(1.0)

    def test_floor_not_applied_single_thread(self):
        p = InsertProfile(
            edges=1000, modeled_ns=1e6, pm_media_bytes=int(PM_WRITE_BW_BYTES_PER_S),
            serial_fraction=0.0,
        )
        assert p.seconds(1) == pytest.approx(1e-3)


class TestAnalysisClock:
    def test_split(self):
        c = AnalysisClock()
        c.charge(1000, serial_fraction=0.25)
        assert c.ser_ns == pytest.approx(250)
        assert c.par_ns == pytest.approx(750)
        assert c.seconds(1) == pytest.approx(1e-6)
        assert c.seconds(3) == pytest.approx((250 + 250) * 1e-9)

    def test_reset(self):
        c = AnalysisClock()
        c.charge(10)
        c.reset()
        assert c.seconds(1) == 0


class TestGeometry:
    def test_csr_geometry_is_pure_stream(self):
        ns = CSR_PM_GEOMETRY.scan_ns(1000, 10_000)
        assert ns == pytest.approx(10_000 * 4 * costs.PM_SEQ_NS_PER_BYTE)

    def test_gap_overhead(self):
        g = StorageGeometry(name="x", scan_overhead=0.5)
        assert g.scan_ns(0, 1000) == pytest.approx(1000 * 4 * 1.5 * costs.PM_SEQ_NS_PER_BYTE)

    def test_frontier_includes_chain_term(self):
        g = StorageGeometry(name="x", chain_rnd_per_edge=0.5, chain_rnd_ns=100)
        base = StorageGeometry(name="y")
        assert g.frontier_ns(10, 100) == pytest.approx(base.frontier_ns(10, 100) + 50 * 100)


class TestHarness:
    def test_build_system_all_names(self):
        for name in ("dgap", "bal", "llama", "graphone", "xpgraph"):
            s = build_system(name, 64, 1000)
            assert s.name == name

    def test_ingest_checkpoints_after_warmup(self):
        spec = get_dataset("orkut")
        edges = spec.generate(0.03)
        nv, _ = spec.sizes(0.03)
        system = build_system("dgap", nv, edges.shape[0])
        res = ingest(system, spec, edges)
        assert res.edges_timed == edges.shape[0] - int(0.1 * edges.shape[0])
        assert res.dataset == "orkut"
        assert res.wall_s > 0

    def test_cache_returns_same_object(self):
        a, _ = get_built_system("graphone", "citpatents", scale=0.03)
        b, _ = get_built_system("graphone", "citpatents", scale=0.03)
        assert a is b

    def test_cache_distinguishes_kwargs(self):
        a, _ = get_built_system("xpgraph", "citpatents", scale=0.03)
        b, _ = get_built_system("xpgraph", "citpatents", scale=0.03, log_capacity_edges=None)
        assert a is not b

    def test_static_csr_cached(self):
        assert get_static_csr("citpatents", 0.03) is get_static_csr("citpatents", 0.03)

    def test_run_kernel_source_kernels(self):
        sys, _ = get_built_system("graphone", "citpatents", scale=0.03)
        view = sys.analysis_view()
        t = run_kernel(view, "bfs", source=0)
        assert t[1] > 0

    def test_run_kernel_times_cc_from_scratch_every_time(self):
        """Experiments share one built system: the second CC on its
        unchanged graph must not pick up the first one's labels."""
        system = build_system("dgap", 64, 1000)
        system.insert_edges(np.random.default_rng(0).integers(0, 64, size=(300, 2)))
        first = run_kernel(system.analysis_view(), "cc")
        assert run_kernel(system.analysis_view(), "cc") == first


class TestReporting:
    def test_format_table(self):
        out = format_table("T", ["a", "b"], [["x", 1.5], ["yy", 2.25]])
        assert "== T ==" in out
        assert "1.50" in out and "yy" in out

    def test_paper_vs_measured_flags(self):
        out = paper_vs_measured("X", [("m", 1.0, 1.1, True), ("n", 2.0, 9.9, False)])
        assert "yes" in out and "NO" in out


class TestPaperData:
    def test_tables_cover_all_systems(self):
        for ds, row in paper_data.TABLE3_MEPS.items():
            assert set(row) == {"dgap", "bal", "llama", "graphone", "xpgraph"}, ds
            for trip in row.values():
                assert len(trip) == 3

    def test_table4_kernels(self):
        assert set(paper_data.TABLE4_SECONDS) == {"pr", "bfs", "bc", "cc"}

    def test_fig6_is_t1_column(self):
        assert paper_data.FIG6_MEPS["orkut"]["dgap"] == paper_data.TABLE3_MEPS["orkut"]["dgap"][0]


class TestGatesCatchTheMechanism:
    """Each count gate that replaced a wall-clock floor fails — and
    ``main()`` exits nonzero — when the mechanism the floor stood for is
    switched off."""

    def expect_gate_failure(self, monkeypatch, arm, broken, argv, needle):
        from repro.bench.__main__ import main

        failed = [label for label, *_, ok in arm.gates(broken) if not ok]
        assert any(needle in label for label in failed), failed
        # wraps: the CLI derives the arm's flags from run's signature
        monkeypatch.setattr(arm, "run", functools.wraps(arm.run)(lambda **params: broken))
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code not in (0, None) and needle in str(ei.value.code)

    def test_insert_group_arm_ingested_per_edge(self, monkeypatch):
        from repro.bench import insert as arm

        good = arm.run("citpatents", 0.05)
        assert all(ok for *_, ok in arm.gates(good))
        broken = arm.InsertArms(
            good.dataset, good.scale, good.batch_size, good.per_edge,
            group=good.per_edge["dgap"],  # batch_size=1 in the "batched" slot
        )
        self.expect_gate_failure(monkeypatch, arm, broken, ["insert"], "fences per edge")
