import numpy as np
import pytest

from spiketrim.backbone import ModelConfig, init_model
from spiketrim.efficiency import (SOP_REPORT_HEADER, EnergyModel, SopLedger,
                                  count_attention, count_linear, energy_mj,
                                  reduction_percent, sop_report_csv)
from spiketrim.engine import forward_prefix, forward_suffix
from spiketrim.errors import CountOverflowError
from spiketrim.tensors import SpikeTensor


class TestCounting:
    def test_count_linear(self):
        assert count_linear(4, 8) == 32
        assert count_linear(0, 100) == 0
        assert count_linear(7, 1) == 7

    def test_count_attention_convention(self):
        assert count_attention(3, 4, 2) == (12, 32)
        # zero queries: QK work vanishes but the A*V MACs are structural
        assert count_attention(0, 4, 2) == (0, 32)
        assert count_attention(5, 1, 2) == (5, 2)

    def test_overflow_checked(self):
        with pytest.raises(CountOverflowError):
            count_linear(2**40, 2**40)


class TestLedger:
    def test_entrywise_merge(self):
        # counts for one label accumulate entrywise; other labels are untouched
        a = SopLedger()
        a.add("x", 5, 2)
        a.add("x", 1, 1)
        a.add("y", dense_macs=7)
        assert a.entries == {"x": (6, 3), "y": (0, 7)}

    def test_prefix_totals(self):
        led = SopLedger()
        led.add("stage3.block1.qkv", 10)
        led.add("stage3.block1.attn", 5, 20)
        led.add("stage3.block0.qkv", 99)
        assert led.totals("stage3.block1") == (15, 20)
        assert led.total_ops() == 99 + 15 + 20

    def test_prefix_stops_at_label_boundary(self):
        # an 11-block stage: block1's totals must not take in block10's
        cfg = ModelConfig(steps=2, in_channels=1, height=2, width=2, num_classes=2,
                          channels=4, w_scales=((1.0,) * 11,),
                          insert_block="1.1", seed=1)
        model = init_model(cfg)
        frames = SpikeTensor(np.ones((2, 3, 1, 2, 2), dtype=np.uint8))
        prefix = forward_prefix(model, frames)
        ledger = forward_suffix(model, prefix, None).ledger
        assert prefix.label == "stage1.block1"
        assert "stage1.block10.qkv" in ledger.entries
        own = [v for k, v in ledger.entries.items() if k.startswith("stage1.block1.")]
        assert len(own) == 3
        assert ledger.totals(prefix.label) == (sum(s for s, _ in own),
                                               sum(m for _, m in own))
        # a whole label still matches itself
        assert ledger.totals("stage1.block1.qkv") == ledger.entries["stage1.block1.qkv"]

    def test_overflow_on_add(self):
        led = SopLedger()
        led.add("x", 2**62)
        with pytest.raises(CountOverflowError):
            led.add("x", 2**62)


class TestEnergy:
    def test_unit_conversion(self):
        led = SopLedger()
        led.add("net", spike_accumulates=10**9)
        assert energy_mj(led, EnergyModel(0.9)) == pytest.approx(0.9)

    def test_empty_ledger(self):
        assert energy_mj(SopLedger()) == 0.0

    def test_table_scale_anchor(self):
        # 1.457 mJ at 0.9 pJ/op implies ~1.619e12 ops: unit sanity only
        led = SopLedger()
        led.add("net", spike_accumulates=int(1.457e-3 / 0.9e-12))
        assert energy_mj(led) == pytest.approx(1.457, rel=1e-6)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(0.0)


class TestReduction:
    def test_simple(self):
        assert reduction_percent(100, 90) == pytest.approx(10.0)
        assert reduction_percent(123, 123) == 0.0

    def test_rounded_table_values(self):
        assert round(reduction_percent(1.233e9, 1.050e9), 2) == 14.84

    def test_zero_base(self):
        with pytest.raises(ValueError):
            reduction_percent(0, 0)


class TestReportCsv:
    def test_format(self):
        rows = [dict(keep_ratio=1.0, block_sops=100, block_macs=50,
                     block_total=150, reduction_pct=0.0, energy_mj=0.000135)]
        text = sop_report_csv(rows)
        lines = text.split("\n")
        assert lines[0] == SOP_REPORT_HEADER
        assert lines[1] == "1.000000,100,50,150,0.000000,0.000135"
        assert text.endswith("\n")
