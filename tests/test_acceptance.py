"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Thresholds come from acceptance.cfg at the repository root.

Criteria 3/4/5/7 share five prepared seed models (default synthetic spec,
default model config) through a module-scoped fixture; every cell is still an
independent evaluation of that seed's test split.
"""
import io
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from spiketrim.backbone import ModelConfig
from spiketrim.cli import cli_main
from spiketrim.data import SyntheticSpec, bayes_accuracy
from spiketrim.engine import ReductionPlan, forward_full
from spiketrim.head import predictions
from spiketrim.selection import Strategy, build_keep_mask
from spiketrim.sweep import (SweepConfig, build_plan, parse_config_text,
                             prepared_model, rows_csv, run_sweep)
from spiketrim.svg import emit_svg_lines
from spiketrim.tensors import topk_rows
from spiketrim.uncertainty import score_tokens, uncertainty_trajectories

ROOT = Path(__file__).resolve().parent.parent
THRESHOLDS = parse_config_text((ROOT / "acceptance.cfg").read_text())
RECOVERY_THRESHOLD = float(THRESHOLDS["recovery_threshold"])
MIN_GAP = float(THRESHOLDS["min_gap_points"]) / 100.0
MIN_STRICT = int(THRESHOLDS["min_strict_seeds"])

SEEDS = (1, 2, 3, 4, 5)
SPEC = SyntheticSpec()  # 8x8 tokens, C=4, T=4 default
MODEL_CFG = ModelConfig()
CFG = SweepConfig()


def report(criterion: str, started: float, budget_s: float, detail: str = ""):
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {criterion}: PASS in {elapsed:.1f}s"
          + (f" ({detail})" if detail else ""))
    assert elapsed < budget_s, f"{criterion} exceeded {budget_s}s budget"


@pytest.fixture(scope="module")
def prepared():
    """seed -> (model with trained head, test split)."""
    out = {}
    for seed in SEEDS:
        model, _, test = prepared_model(MODEL_CFG, SPEC, seed)
        out[seed] = (model, test)
    return out


def _acc(model, test, plan) -> float:
    res = forward_full(model, test.frames, plan)
    return float((predictions(res.logits) == test.labels).mean())


def test_criterion_1_formula_oracles():
    t0 = time.time()
    from spiketrim.selftest import run_selftest
    buf = io.StringIO()
    failures = run_selftest(out=lambda s: buf.write(s + "\n"))
    assert failures == 0, buf.getvalue()
    report("criterion 1 (formula oracle suite)", t0, 5.0,
           f"{buf.getvalue().strip().splitlines()[-1]}")


def test_criterion_2_identity_invariant():
    t0 = time.time()
    small = ["--train-samples", "48", "--test-samples", "24"]
    for seed in range(1, 21):
        digests = []
        for strategy_args in (["--strategy", "none"],
                              ["--strategy", "uncert-prune", "--keep-ratio", "1.0"]):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(["run", "--seed", str(seed), *small, *strategy_args])
            assert code == 0
            digest = [line for line in buf.getvalue().splitlines()
                      if line.startswith("logits_sha256=")]
            digests.append(digest[0])
        assert digests[0] == digests[1], f"seed {seed}: logits differ"
    report("criterion 2 (keep-ratio-1.0 identity, 20 seeds)", t0, 30.0)


def test_criterion_3_selection_trend(prepared):
    t0 = time.time()
    accs = {}
    for kind in ("uncert-prune", "random-prune", "low-uncert-prune"):
        for ratio in (0.4, 0.2):
            for seed in SEEDS:
                model, test = prepared[seed]
                plan = ReductionPlan(Strategy(kind=kind, seed=seed), ratio)
                accs[(kind, ratio, seed)] = _acc(model, test, plan)

    def mean(kind, ratio):
        return float(np.mean([accs[(kind, ratio, s)] for s in SEEDS]))

    for ratio in (0.4, 0.2):
        u, r, lo = (mean("uncert-prune", ratio), mean("random-prune", ratio),
                    mean("low-uncert-prune", ratio))
        assert u >= r >= lo, f"ordering violated at ratio {ratio}: {u}, {r}, {lo}"
    gap = mean("uncert-prune", 0.2) - mean("random-prune", 0.2)
    assert gap >= MIN_GAP, f"gap at 0.2 is {gap:.4f} < {MIN_GAP}"
    strict = sum(accs[("uncert-prune", 0.2, s)] > accs[("random-prune", 0.2, s)]
                 for s in SEEDS)
    assert strict >= MIN_STRICT, f"uncert>random strict in only {strict}/5 seeds"
    report("criterion 3 (selection-strategy trend)", t0, 300.0,
           f"gap@0.2={gap * 100:.1f} points, strict {strict}/5")


def test_criterion_4_prune_beats_merge(prepared):
    t0 = time.time()
    prune, merge = [], []
    for seed in SEEDS:
        model, test = prepared[seed]
        prune.append(_acc(model, test,
                          ReductionPlan(Strategy(kind="uncert-prune", seed=seed), 0.6)))
        merge.append(_acc(model, test,
                          ReductionPlan(Strategy(kind="uncert-merge", seed=seed), 0.6)))
    assert np.mean(prune) >= np.mean(merge), (prune, merge)
    report("criterion 4 (prune >= merge at keep 0.6)", t0, 300.0,
           f"prune={np.mean(prune):.4f} merge={np.mean(merge):.4f}")


def test_criterion_5_score_ablations(prepared):
    t0 = time.time()
    full, std_only = [], []
    for seed in SEEDS:
        model, test = prepared[seed]
        full.append(_acc(model, test,
                         ReductionPlan(Strategy(kind="uncert-prune", seed=seed,
                                                lam=0.9), 0.6)))
        std_only.append(_acc(model, test,
                             ReductionPlan(Strategy(kind="uncert-prune", seed=seed,
                                                    score_mode="std_only"), 0.6)))
    assert np.mean(full) >= np.mean(std_only), (full, std_only)

    # lambda = 0 must reproduce the mean-only keep sets exactly
    model, test = prepared[1]
    stage = forward_full(model, test.frames).stage_tokens[-2]
    u = uncertainty_trajectories(stage, model.head)
    lam0 = score_tokens(u, lam=0.0, mode="full")
    mean_only = score_tokens(u, mode="mean_only")
    m_lam0 = build_keep_mask(lam0, 0.6, Strategy(kind="uncert-prune"))
    m_mean = build_keep_mask(mean_only, 0.6, Strategy(kind="uncert-prune"))
    assert (m_lam0 == m_mean).all()
    report("criterion 5 (temporal-score ablations)", t0, 300.0,
           f"full={np.mean(full):.4f} std_only={np.mean(std_only):.4f}")


def test_criterion_6_sop_structure(prepared):
    t0 = time.time()
    model, test = prepared[1]
    s, b = model.config.parse_insert()
    prefix = f"stage{s + 1}.block{b}"
    sops, totals = [], []
    for ratio in (1.0, 0.8, 0.6, 0.4):
        plan = build_plan(CFG, "uncert-prune", ratio, 1)
        res = forward_full(model, test.frames, plan)
        sa, mac = res.ledger.totals(prefix)
        sops.append(sa)
        totals.append(sa + mac)
    assert sops[0] > sops[1] > sops[2] > sops[3], sops
    from spiketrim.efficiency import reduction_percent
    reductions = [reduction_percent(totals[0], t) for t in totals]
    assert reductions[0] == 0.0
    assert reductions[1] < reductions[2] < reductions[3], reductions
    report("criterion 6 (block SOP monotonicity)", t0, 60.0,
           f"sops={sops} reductions={[f'{r:.2f}' for r in reductions]}")


def test_criterion_7_ground_truth_recovery(prepared):
    t0 = time.time()
    # calibration ceiling: the generative model is fully separable
    bayes = [bayes_accuracy(prepared[s][1]) for s in SEEDS]
    assert min(bayes) >= 0.99, bayes
    hits = total = 0
    for seed in SEEDS:
        model, test = prepared[seed]
        res = forward_full(
            model, test.frames,
            ReductionPlan(Strategy(kind="uncert-prune", seed=seed), 0.99))
        top_rows = topk_rows(res.selection.scores.data, SPEC.signature_tokens)
        for m, row in enumerate(top_rows.tolist()):
            truth = set(test.signature_positions[int(test.labels[m])])
            top = set(row)
            hits += top == truth
            total += 1
    recovery = hits / total
    assert recovery >= RECOVERY_THRESHOLD, recovery
    report("criterion 7 (signature-token recovery)", t0, 300.0,
           f"recovery={recovery:.3f} vs threshold {RECOVERY_THRESHOLD}")


def test_criterion_8_sweep_determinism(tmp_path):
    t0 = time.time()
    args = ["sweep", "--strategies", "uncert-prune,random-prune",
            "--ratios", "1.0,0.6,0.2", "--seeds", "1,2",
            "--train-samples", "96", "--test-samples", "48"]
    outputs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(args + ["--out", str(out)])
        assert code == 0
        outputs.append(((out / "results.csv").read_bytes(),
                        (out / "results.svg").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "CSV outputs differ"
    assert outputs[0][1] == outputs[1][1], "SVG outputs differ"
    report("criterion 8 (sweep byte determinism)", t0, 300.0,
           f"{len(outputs[0][0])} CSV bytes, {len(outputs[0][1])} SVG bytes")


def test_criterion_9_property_suites():
    t0 = time.time()
    import test_properties as props
    props.test_spike_tensor_binarity_closure()
    props.test_gather_scatter_roundtrip()
    props.test_merge_convexity_and_weight_normalization()
    props.test_ledger_merge_commutativity()
    props.test_lif_leak_law()
    report("criterion 9 (randomized invariant suites)", t0, 60.0,
           "5 suites x >=1000 cases")
