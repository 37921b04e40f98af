"""Latency-model and config-validation tests."""

import pytest

from repro.config import DGAPConfig
from repro.core.edge_log import MERGE_TENTHS
from repro.pmem.latency import DRAM, OPTANE_ADR, OPTANE_EADR


class TestProfiles:
    def test_paper_asymmetries(self):
        """§2.1.2: PM writes ~7-8x DRAM; reads ~2-3x DRAM."""
        write_ratio = (
            OPTANE_ADR.store_per_line_ns + OPTANE_ADR.flush_rnd_per_line_ns
        ) / (DRAM.store_per_line_ns + DRAM.flush_rnd_per_line_ns)
        assert 5 < write_ratio < 12
        read_ratio = OPTANE_ADR.read_rnd_per_line_ns / DRAM.read_rnd_per_line_ns
        assert 2 < read_ratio < 5

    def test_inplace_penalty_only_on_adr(self):
        assert OPTANE_ADR.flush_inplace_extra_ns > 0
        assert OPTANE_EADR.flush_inplace_extra_ns == 0
        assert DRAM.flush_inplace_extra_ns == 0

    def test_eadr_flags(self):
        assert OPTANE_EADR.persistent_caches
        assert not OPTANE_ADR.persistent_caches
        assert DRAM.volatile and not OPTANE_ADR.volatile

    def test_helpers(self):
        assert OPTANE_ADR.seq_read_ns(1000) == pytest.approx(1000 * OPTANE_ADR.read_seq_per_byte_ns)
        assert OPTANE_ADR.rnd_read_ns(10) == pytest.approx(10 * OPTANE_ADR.read_rnd_per_line_ns)
        assert OPTANE_ADR.rnd_read_ns(10, 128) == pytest.approx(20 * OPTANE_ADR.read_rnd_per_line_ns)

    def test_with_overrides(self):
        p = OPTANE_ADR.with_overrides(fence_ns=1.0)
        assert p.fence_ns == 1.0
        assert OPTANE_ADR.fence_ns != 1.0  # frozen original untouched


class TestConfigValidation:
    def test_defaults_are_papers(self):
        cfg = DGAPConfig()
        assert cfg.elog_size == 2048  # ELOG_SZ = 2K
        assert cfg.ulog_size == 2048  # ULOG_SZ = 2K
        assert MERGE_TENTHS == 9  # merge at 90 %

    def test_elog_entries(self):
        assert DGAPConfig(elog_size=2048).elog_entries == 170  # 12B entries

    @pytest.mark.parametrize(
        "kw",
        [
            dict(init_vertices=0),
            dict(init_edges=-1),
            dict(ulog_size=-8),
            dict(init_vertices=-1),
            dict(init_edges=0),
            dict(gap_distribution="randomly"),
            dict(segment_slots=100),  # not a power of two
            dict(segment_slots=32),  # too small
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            DGAPConfig(**kw)

    def test_ablation_combinations_constructible(self):
        for el in (True, False):
            for ul in (True, False):
                for dp in (True, False):
                    DGAPConfig(use_edge_log=el, use_undo_log=ul, dram_placement=dp)
