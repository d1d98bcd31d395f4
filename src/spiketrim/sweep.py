"""Experiment sweeps over selection strategies, keep ratios, and seeds.

A sweep config's insert_block, when set, replaces the model config's
insertion block once before any seed runs; plans carry only a strategy and a
keep ratio. Each seed synthesizes its dataset, initializes its model and fits
the ridge head on the unreduced train split. Every cell of the seed then
evaluates the test split with the cell's reduction applied at the insertion
block. The blocks before that block do not depend on the reduction, so they
run once per seed (engine.forward_prefix), and the cells that leave the
block unreduced (strategy `none`, or keep ratio 1.0) share one evaluation; a
cell's numbers are the same as those of a full forward pass under its plan.
Rows are emitted in sorted (strategy, ratio, seed) order and all real
numbers print with fixed six decimals, so the CSV is byte-stable for equal
configs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .backbone import Model, ModelConfig, init_model
from .data import Dataset, SyntheticSpec, synth_dataset
from .efficiency import energy_mj, reduction_percent
from .engine import Prefix, ReductionPlan, forward_prefix, forward_suffix
from .errors import ConfigError
from .head import RidgeConfig, accuracies, train_head
from .selection import STRATEGY_KINDS, Strategy
from .uncertainty import SCORE_MODES

DEFAULT_RATIOS = (1.0, 0.8, 0.6, 0.4, 0.2)
DEFAULT_SEEDS = (1, 2, 3, 4, 5)
DEFAULT_STRATEGIES = ("uncert-prune", "uncert-merge", "random-prune",
                      "low-uncert-prune", "none")


@dataclass(frozen=True)
class SweepConfig:
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    keep_ratios: tuple[float, ...] = DEFAULT_RATIOS
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    lam: float = 0.9
    insert_block: Optional[str] = None  # None = the model config's own
    score_mode: str = "full"
    l2: float = 1e-3

    def __post_init__(self):
        for name, values in (("seed", self.seeds), ("strategy", self.strategies),
                             ("keep ratio", self.keep_ratios)):
            if not values:
                raise ConfigError(f"at least one {name} required")
        for name in self.strategies:
            if name not in STRATEGY_KINDS:
                raise ConfigError(f"unknown strategy {name!r}")
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"unknown score mode {self.score_mode!r}; "
                              f"expected one of {', '.join(SCORE_MODES)}")
        for r in self.keep_ratios:
            if not 0.0 < r <= 1.0:
                raise ConfigError(f"keep ratio {r} outside (0, 1]")


@dataclass(frozen=True)
class ResultRow:
    strategy: str
    keep_ratio: float
    seed: int
    acc1: float
    acc5: float
    block_sops: int
    energy_mj: float

    def __post_init__(self):
        if not 0.0 <= self.acc1 <= self.acc5 <= 1.0:
            raise ValueError("accuracies must satisfy 0 <= acc1 <= acc5 <= 1")


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {ln}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


SWEEP_CONFIG_KEYS = ("strategies", "keep_ratios", "seeds", "lambda",
                     "insert_block", "score_mode", "l2")


def sweep_config_from_entries(entries: dict[str, str]) -> SweepConfig:
    unknown = sorted(set(entries) - set(SWEEP_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown sweep config key(s) {', '.join(unknown)}; "
                          f"expected {', '.join(SWEEP_CONFIG_KEYS)}")
    kwargs = {}
    if "strategies" in entries:
        kwargs["strategies"] = tuple(s.strip() for s in entries["strategies"].split(",") if s.strip())
    if "keep_ratios" in entries:
        kwargs["keep_ratios"] = tuple(float(s) for s in entries["keep_ratios"].split(","))
    if "seeds" in entries:
        kwargs["seeds"] = tuple(int(s) for s in entries["seeds"].split(","))
    if "lambda" in entries:
        kwargs["lam"] = float(entries["lambda"])
    if "insert_block" in entries:
        kwargs["insert_block"] = entries["insert_block"]
    if "score_mode" in entries:
        kwargs["score_mode"] = entries["score_mode"]
    if "l2" in entries:
        kwargs["l2"] = float(entries["l2"])
    return SweepConfig(**kwargs)


def build_plan(cfg: SweepConfig, strategy_name: str, ratio: float, seed: int) -> ReductionPlan:
    return ReductionPlan(
        strategy=Strategy(kind=strategy_name, lam=cfg.lam, seed=seed,
                          score_mode=cfg.score_mode),
        keep_ratio=ratio,
    )


def prepared_model(model_config: ModelConfig, spec: SyntheticSpec, seed: int,
                   l2: float = 1e-3) -> tuple[Model, Dataset, Dataset]:
    """Seeded dataset + model with a ridge head trained on the train split."""
    train, test = synth_dataset(spec, seed)
    model = init_model(replace(model_config, seed=seed))
    train_head(model, train.frames, train.labels, RidgeConfig(l2=l2))
    return model, train, test


def evaluate_cell(model: Model, prefix: Prefix, labels,
                  plan: Optional[ReductionPlan]) -> tuple[float, float, int, float]:
    result = forward_suffix(model, prefix, plan)
    acc1, acc5 = accuracies(result.logits, labels)
    if model.config.num_classes < 5:
        acc5 = acc1  # top-5 is vacuous below five classes; column holds acc1
    block_sops, _ = result.ledger.totals(prefix=prefix.label)
    return acc1, acc5, block_sops, energy_mj(result.ledger)


def run_sweep(cfg: SweepConfig, model_config: ModelConfig,
              spec: SyntheticSpec) -> list[ResultRow]:
    if cfg.insert_block is not None:
        model_config = replace(model_config, insert_block=cfg.insert_block)
    rows: list[ResultRow] = []
    for seed in cfg.seeds:
        model, _, test = prepared_model(model_config, spec, seed, cfg.l2)
        prefix = forward_prefix(model, test.frames)
        unreduced = None  # the cell every unreduced plan gives
        for strategy_name in cfg.strategies:
            for ratio in cfg.keep_ratios:
                plan = build_plan(cfg, strategy_name, ratio, seed)
                if plan.reduces:
                    cell = evaluate_cell(model, prefix, test.labels, plan)
                elif unreduced is None:
                    cell = unreduced = evaluate_cell(model, prefix, test.labels, plan)
                else:
                    cell = unreduced
                acc1, acc5, block_sops, e_mj = cell
                rows.append(ResultRow(strategy=strategy_name, keep_ratio=ratio,
                                      seed=seed, acc1=acc1, acc5=acc5,
                                      block_sops=block_sops, energy_mj=e_mj))
    rows.sort(key=lambda r: (r.strategy, r.keep_ratio, r.seed))
    return rows


def rows_csv(rows: Sequence[ResultRow], num_classes: int) -> str:
    """Fixed-header CSV; with C < 5 the acc5 column holds acc1 and the header
    flags it."""
    acc5_name = "acc5" if num_classes >= 5 else "acc5(=acc1)"
    lines = [f"strategy,keep_ratio,seed,acc1,{acc5_name},block_sops,energy_mj"]
    for r in rows:
        lines.append(
            f"{r.strategy},{r.keep_ratio:.6f},{r.seed},{r.acc1:.6f},{r.acc5:.6f},"
            f"{r.block_sops},{r.energy_mj:.6f}"
        )
    return "\n".join(lines) + "\n"


def sop_rows(model: Model, test: Dataset, ratios: Sequence[float], seed: int,
             cfg: SweepConfig) -> list[dict]:
    """Block-level efficiency report rows for the model's pruned insertion
    block."""
    prefix = forward_prefix(model, test.frames)
    rows = []
    base_total = None
    for ratio in sorted(ratios, reverse=True):
        name = "none" if ratio == 1.0 else "uncert-prune"
        plan = build_plan(cfg, name, ratio, seed)
        result = forward_suffix(model, prefix, plan)
        sa, mac = result.ledger.totals(prefix=prefix.label)
        total = sa + mac
        if base_total is None:
            base_total = total
        rows.append({
            "keep_ratio": ratio,
            "block_sops": sa,
            "block_macs": mac,
            "block_total": total,
            # block-level reduction, whole-network energy: pruning one block
            # cuts its ops sharply while total power moves only slightly
            "reduction_pct": reduction_percent(base_total, total),
            "energy_mj": energy_mj(result.ledger),
        })
    return rows
