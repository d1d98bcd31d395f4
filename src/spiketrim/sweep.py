"""Experiment sweeps over selection strategies, keep ratios, and seeds.

Each sweep cell is an independent end-to-end run: synthesize the seed's
dataset, initialize the seed's model, fit the ridge head on the unreduced
train split, then evaluate the test split with the cell's reduction applied
at the insertion block. Rows are emitted in sorted (strategy, ratio, seed)
order and all real numbers print with fixed six decimals, so the CSV is
byte-stable for equal configs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .backbone import Model, ModelConfig, init_model
from .data import Dataset, SyntheticSpec, synth_dataset
from .efficiency import EnergyModel, energy_mj, reduction_percent
from .engine import ReductionPlan
from .errors import ConfigError
from .head import RidgeConfig, eval_metrics, train_head
from .selection import STRATEGY_KINDS, Strategy

# external (CLI/CSV) strategy names <-> internal kinds
STRATEGY_NAMES = {kind: kind.replace("_", "-") for kind in STRATEGY_KINDS}
STRATEGY_KINDS_BY_NAME = {name: kind for kind, name in STRATEGY_NAMES.items()}

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
    insert_block: Optional[str] = None  # None = model default
    score_mode: str = "full"
    l2: float = 1e-3

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("at least one seed required")
        for name in self.strategies:
            if name not in STRATEGY_KINDS_BY_NAME:
                raise ConfigError(f"unknown strategy {name!r}")
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
    kind = STRATEGY_KINDS_BY_NAME[strategy_name]
    return ReductionPlan(
        strategy=Strategy(kind=kind, lam=cfg.lam, seed=seed, score_mode=cfg.score_mode),
        keep_ratio=ratio,
        insert_block=cfg.insert_block,
    )


def prepared_model(model_config: ModelConfig, spec: SyntheticSpec, seed: int,
                   l2: float = 1e-3) -> tuple[Model, Dataset, Dataset]:
    """Seeded dataset + model with a ridge head trained on the train split."""
    train, test = synth_dataset(spec, seed)
    model = init_model(replace(model_config, seed=seed))
    train_head(model, train.frames, train.labels, RidgeConfig(l2=l2))
    return model, train, test


def evaluate_cell(model: Model, test: Dataset, plan: Optional[ReductionPlan],
                  insert_prefix: str) -> tuple[float, float, int, float]:
    acc1, acc5, result = eval_metrics(model, test.frames, test.labels, plan)
    if model.config.num_classes < 5:
        acc5 = acc1  # top-5 is vacuous below five classes; column holds acc1
    block_sops, _ = result.ledger.totals(prefix=insert_prefix)
    return acc1, acc5, block_sops, energy_mj(result.ledger)


def run_sweep(cfg: SweepConfig, model_config: ModelConfig,
              spec: SyntheticSpec) -> list[ResultRow]:
    s, b = model_config.parse_insert(cfg.insert_block)
    insert_prefix = f"stage{s + 1}.block{b}"
    rows: list[ResultRow] = []
    for seed in cfg.seeds:
        model, _, test = prepared_model(model_config, spec, seed, cfg.l2)
        for strategy_name in cfg.strategies:
            for ratio in cfg.keep_ratios:
                plan = build_plan(cfg, strategy_name, ratio, seed)
                acc1, acc5, block_sops, e_mj = evaluate_cell(model, test, plan, insert_prefix)
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
    """Block-level efficiency report rows for the pruned insertion block."""
    s, b = model.config.parse_insert(cfg.insert_block)
    prefix = f"stage{s + 1}.block{b}"
    rows = []
    base_total = None
    for ratio in sorted(ratios, reverse=True):
        name = "none" if ratio == 1.0 else "uncert-prune"
        plan = build_plan(cfg, name, ratio, seed)
        _, _, result = eval_metrics(model, test.frames, test.labels, plan)
        sa, mac = result.ledger.totals(prefix=prefix)
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
            "energy_mj": energy_mj(result.ledger, EnergyModel()),
        })
    return rows
