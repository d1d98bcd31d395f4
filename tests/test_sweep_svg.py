import numpy as np
import pytest
from dataclasses import replace

from spiketrim import engine, selection
from spiketrim.backbone import ModelConfig
from spiketrim.data import SyntheticSpec
from spiketrim.efficiency import energy_mj
from spiketrim.errors import ConfigError
from spiketrim.engine import forward_full
from spiketrim.head import accuracies
from spiketrim.svg import emit_svg_lines
from spiketrim.sweep import (ResultRow, SweepConfig, build_plan, parse_config_text,
                             prepared_model, rows_csv, run_sweep,
                             sweep_config_from_entries)


def small_setup():
    spec = SyntheticSpec(train_samples=64, test_samples=32)
    model_cfg = ModelConfig()
    cfg = SweepConfig(strategies=("uncert-prune", "random-prune", "none"),
                      keep_ratios=(1.0, 0.5), seeds=(1, 2))
    return cfg, model_cfg, spec


class TestConfigParsing:
    def test_key_value_comments(self):
        text = "# grid\nstrategies = uncert-prune,none\nseeds=3,4  # two seeds\n\nlambda=0.5\n"
        entries = parse_config_text(text)
        cfg = sweep_config_from_entries(entries)
        assert cfg.strategies == ("uncert-prune", "none")
        assert cfg.seeds == (3, 4)
        assert cfg.lam == 0.5

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("this is not a pair\n")

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            SweepConfig(strategies=("uncert-pruneX",))

    @pytest.mark.parametrize("kwargs", [dict(strategies=()), dict(keep_ratios=()),
                                        dict(seeds=()), dict(score_mode="bogus")],
                             ids=["strategies", "keep_ratios", "seeds", "score_mode"])
    def test_empty_grid_or_unknown_mode_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs)

    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.keep_ratios == (1.0, 0.8, 0.6, 0.4, 0.2)
        assert cfg.seeds == (1, 2, 3, 4, 5)


class TestRunSweep:
    def test_row_count_and_order(self):
        cfg, model_cfg, spec = small_setup()
        rows = run_sweep(cfg, model_cfg, spec)
        assert len(rows) == 3 * 2 * 2
        keys = [(r.strategy, r.keep_ratio, r.seed) for r in rows]
        assert keys == sorted(keys)

    def test_baseline_anchoring(self):
        cfg, model_cfg, spec = small_setup()
        rows = run_sweep(cfg, model_cfg, spec)
        none_rows = {(r.keep_ratio, r.seed): r for r in rows if r.strategy == "none"}
        for r in rows:
            if r.keep_ratio == 1.0:
                anchor = none_rows[(1.0, r.seed)]
                assert r.acc1 == anchor.acc1
                assert r.block_sops == anchor.block_sops

    def test_monotone_block_sops(self):
        cfg, model_cfg, spec = small_setup()
        rows = run_sweep(cfg, model_cfg, spec)
        for seed in (1, 2):
            by_ratio = {r.keep_ratio: r.block_sops for r in rows
                        if r.strategy == "uncert-prune" and r.seed == seed}
            assert by_ratio[1.0] > by_ratio[0.5]

    def test_acc5_column_holds_acc1_below_five_classes(self):
        cfg, model_cfg, spec = small_setup()
        rows = run_sweep(cfg, model_cfg, spec)
        assert spec.classes < 5
        assert all(r.acc5 == r.acc1 for r in rows)


    def test_rows_equal_full_forward_per_cell(self):
        # shared prefix and shared unreduced cell give each cell's own numbers
        spec = SyntheticSpec(train_samples=64, test_samples=32, p_background=0.35)
        model_cfg = ModelConfig()
        cfg = SweepConfig(seeds=(3,), keep_ratios=(1.0, 0.6, 0.2))
        rows = run_sweep(cfg, model_cfg, spec)
        model, _, test = prepared_model(model_cfg, spec, 3, cfg.l2)
        expected = []
        for name in cfg.strategies:
            for ratio in cfg.keep_ratios:
                plan = build_plan(cfg, name, ratio, 3)
                res = forward_full(model, test.frames, plan)
                acc1, _ = accuracies(res.logits, test.labels)
                expected.append(ResultRow(name, ratio, 3, acc1, acc1,
                                          res.ledger.totals("stage3.block1")[0],
                                          energy_mj(res.ledger)))
        expected.sort(key=lambda r: (r.strategy, r.keep_ratio, r.seed))
        assert rows == expected

    def test_prefix_and_unreduced_cell_run_once_per_seed(self, monkeypatch):
        # one seed of the default 5x5 grid: train + test embeddings; SSA blocks
        # 4 (train) + 3 (test prefix) + 1 (the shared unreduced cell) + 16
        # (one insertion block per reduced cell)
        calls = {"patch_embed": 0, "ssa_forward": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for module, attr in ((engine, "patch_embed"), (engine, "ssa_forward"),
                             (selection, "ssa_forward")):
            monkeypatch.setattr(module, attr, counting(attr, getattr(module, attr)))
        spec = SyntheticSpec(train_samples=32, test_samples=16)
        rows = run_sweep(SweepConfig(seeds=(1,)), ModelConfig(), spec)
        assert len(rows) == 25
        assert calls == {"patch_embed": 2, "ssa_forward": 24}


class TestCsv:
    def _rows(self):
        return [ResultRow("uncert-prune", 1.0, 1, 0.75, 1.0, 1234, 0.001),
                ResultRow("uncert-prune", 0.5, 1, 0.5, 0.875, 600, 0.0005)]

    def test_header_flags_small_c(self):
        text = rows_csv(self._rows(), num_classes=4)
        assert text.splitlines()[0] == "strategy,keep_ratio,seed,acc1,acc5(=acc1),block_sops,energy_mj"
        text5 = rows_csv(self._rows(), num_classes=10)
        assert ",acc5," in text5.splitlines()[0]

    def test_fixed_decimals(self):
        line = rows_csv(self._rows(), 4).splitlines()[1]
        assert line == "uncert-prune,1.000000,1,0.750000,1.000000,1234,0.001000"

    def test_trailing_newline_lf(self):
        text = rows_csv(self._rows(), 4)
        assert text.endswith("\n") and "\r" not in text

    def test_row_invariant(self):
        with pytest.raises(ValueError):
            ResultRow("none", 1.0, 1, 0.9, 0.5, 0, 0.0)  # acc5 < acc1


class TestSvg:
    def _rows(self):
        rows = []
        for si, strat in enumerate(("a-prune", "b-prune", "c-prune")):
            for ratio in (1.0, 0.8, 0.6, 0.4, 0.2):
                rows.append(ResultRow(strat, ratio, 1, 0.5 + 0.05 * si + 0.1 * ratio,
                                      1.0, 10, 0.1))
        return rows

    def test_structure_counts(self):
        svg = emit_svg_lines(self._rows())
        assert svg.count("<polyline") == 3
        assert svg.count("<circle") == 15
        assert svg.count("</svg>") == 1

    def test_polyline_vertices(self):
        svg = emit_svg_lines(self._rows())
        for line in svg.splitlines():
            if line.startswith("<polyline"):
                pts = line.split('points="')[1].split('"')[0].split()
                assert len(pts) == 5

    def test_single_row_point_only(self):
        svg = emit_svg_lines([ResultRow("solo", 0.5, 1, 0.8, 1.0, 5, 0.1)])
        assert "<polyline" not in svg
        assert svg.count("<circle") == 1

    def test_deterministic_bytes(self):
        a = emit_svg_lines(self._rows())
        b = emit_svg_lines(list(self._rows()))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_svg_lines([])
