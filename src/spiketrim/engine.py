"""End-to-end forward pass with optional token reduction at one block, split
at the insertion block.

The insertion block is the model's (ModelConfig.insert_block); a reduction
plan says only how to reduce there: a strategy and a keep ratio.
forward_prefix validates the input and runs patch embedding, every stage's
entry transform and the attention blocks before the insertion block.
Nothing in it depends on the reduction plan, so one prefix serves every
strategy and keep ratio. forward_suffix copies the prefix's ledger entries,
runs the insertion block (unreduced, pruned or merged), the remaining
blocks, mean-pools the final tokens over time and space, and maps the pooled
feature through the classifier head. It never modifies the prefix, so any
number of suffixes can run on one. forward_full is forward_suffix on a fresh
prefix.

The insertion block follows one rule. Strategy kind `none`, or keep ratio
1.0 with any strategy, runs the block unreduced and records every token as
kept. Any other plan scores the tokens (random-prune needs no scores),
selects, and runs the prune or merge kernel. Every result carries the
selection record (anchor array, merge weights, scores). The uncertainty
trajectories depend only on the prefix tokens and the head, so a prefix
computes them at most once per head (Prefix.trajectories), for the scores
and for any dump alike.

A sweep (sweep.run_sweep) builds one prefix per seed on the test split. Its
`none` cells and every cell at keep ratio 1.0 run the same unreduced suffix,
which it evaluates once; each reduced cell runs one suffix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .backbone import (HeadWeights, Model, downsample_tokens, patch_embed,
                       ssa_forward, token_logits)
from .efficiency import SopLedger
from .errors import ConfigError, ShapeError
from .selection import (Strategy, build_keep_mask, build_merge_assignment,
                        merged_ssa, pruned_ssa_batched)
from .tensors import DenseTensor, SpikeTensor, as_array, spike_counts
from .uncertainty import score_tokens, uncertainty_trajectories


@dataclass(frozen=True)
class ReductionPlan:
    strategy: Strategy
    keep_ratio: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ValueError(f"keep ratio {self.keep_ratio} outside (0, 1]")

    @property
    def reduces(self) -> bool:
        """False when the insertion block runs unreduced under this plan."""
        return self.strategy.kind != "none" and self.keep_ratio < 1.0


@dataclass
class SelectionDetail:
    """What happened at the insertion block. anchor is [B, N] int64: -1 for a
    pruned token, the token's own index when kept or an anchor, otherwise the
    anchor it was merged into; weights [B, N] float64 is set by merging only."""

    anchor: np.ndarray
    weights: Optional[np.ndarray] = None
    scores: Optional[DenseTensor] = None


@dataclass
class ForwardResult:
    logits: DenseTensor  # [B, C]
    stage_tokens: list[SpikeTensor]
    ledger: SopLedger
    selection: SelectionDetail


@dataclass
class Prefix:
    """The forward pass up to the insertion block's input. tokens is that
    input [T,B,N,D]; stage_tokens holds the outputs of the stages before the
    insertion stage; ledger holds the ops charged so far."""

    tokens: SpikeTensor
    stage_tokens: list[SpikeTensor]
    ledger: SopLedger
    insert: tuple[int, int]  # (stage, block), 0-based
    _trajectories: Optional[tuple[HeadWeights, np.ndarray]] = field(
        default=None, repr=False)

    @property
    def label(self) -> str:
        """Ledger label prefix of the insertion block, e.g. stage3.block1."""
        return f"stage{self.insert[0] + 1}.block{self.insert[1]}"

    def trajectories(self, head: HeadWeights) -> np.ndarray:
        """[T,B,N] uncertainty of the insertion input under head, computed
        once per head."""
        if self._trajectories is None or self._trajectories[0] is not head:
            self._trajectories = (head, uncertainty_trajectories(self.tokens, head))
        return self._trajectories[1]


def repeat_static(frames, steps: int):
    """Tile a single-step input [1,B,n,H,W] across the simulation steps."""
    arr = as_array(frames)
    if arr.ndim != 5 or arr.shape[0] != 1:
        raise ShapeError(f"static input must be [1,B,n,H,W], got {arr.shape}")
    tiled = np.ascontiguousarray(np.broadcast_to(arr, (steps,) + arr.shape[1:]))
    return SpikeTensor(tiled) if isinstance(frames, SpikeTensor) else DenseTensor(tiled)


def pool_tokens(x: SpikeTensor) -> DenseTensor:
    """Mean over time and tokens: [T,B,N,D] -> [B,D].

    The integer spike count divided by T*N: counts are exact, so this has
    the bits of the float64 mean without a float64 copy of the tokens.
    """
    t, _, n, _ = x.shape
    counts = spike_counts(x.data).sum(axis=1, dtype=np.int64)
    return DenseTensor((counts / (t * n)).astype(np.float32))


def _enter_stage(model: Model, s: int, x: SpikeTensor, ledger: SopLedger) -> SpikeTensor:
    """Stage s's entry transform (identity when the stage has none)."""
    if model.entries[s] is None:
        return x
    cfg = model.config
    grid = cfg.grid_at(s - 1)
    if x.shape[2] != grid[0] * grid[1]:
        raise ConfigError("downsampling after token merge is unsupported")
    return downsample_tokens(x, grid, cfg.stages[s].downsample, model.entries[s],
                             cfg.lif, ledger)


def forward_prefix(model: Model, frames) -> Prefix:
    """Everything before the model's insertion block. frames is [T0,B,n,H,W]
    with T0 == steps (event data) or T0 == 1 (static input, repeated across
    steps)."""
    cfg = model.config
    arr = as_array(frames)
    if arr.ndim != 5:
        raise ConfigError(f"input must be rank 5, got shape {arr.shape}")
    if arr.shape[2] != cfg.in_channels or arr.shape[3:] != (cfg.height, cfg.width):
        raise ConfigError(f"input {arr.shape} does not match config "
                          f"[{cfg.in_channels},{cfg.height},{cfg.width}]")
    if arr.shape[0] == 1 and cfg.steps > 1:
        frames = repeat_static(frames, cfg.steps)
    elif arr.shape[0] != cfg.steps:
        raise ConfigError(f"input steps {arr.shape[0]} != config steps {cfg.steps}")

    insert = cfg.parse_insert()
    ledger = SopLedger()
    x = patch_embed(frames, cfg.patch, model.embed_w, cfg.lif, ledger)
    stage_tokens: list[SpikeTensor] = []
    for s in range(insert[0] + 1):
        x = _enter_stage(model, s, x, ledger)
        last = insert[1] if s == insert[0] else len(model.blocks[s])
        for block in model.blocks[s][:last]:
            x = ssa_forward(x, block, ledger)
        if s < insert[0]:
            stage_tokens.append(x)
    return Prefix(tokens=x, stage_tokens=stage_tokens, ledger=ledger, insert=insert)


def forward_suffix(model: Model, prefix: Prefix,
                   plan: Optional[ReductionPlan] = None) -> ForwardResult:
    """The insertion block under plan, the blocks after it, pool and head."""
    cfg = model.config
    s_ins, b_ins = prefix.insert
    ledger = SopLedger()
    for label, (sa, mac) in prefix.ledger.entries.items():
        ledger.add(label, sa, mac)

    x, block = prefix.tokens, model.blocks[s_ins][b_ins]
    if plan is not None and plan.reduces:
        x, detail = _reduced_block(model, prefix, block, plan, ledger)
    else:
        b, n = x.shape[1], x.shape[2]
        detail = SelectionDetail(anchor=np.tile(np.arange(n, dtype=np.int64), (b, 1)))
        x = ssa_forward(x, block, ledger)

    stage_tokens = list(prefix.stage_tokens)
    for s in range(s_ins, len(cfg.stages)):
        if s > s_ins:
            x = _enter_stage(model, s, x, ledger)
        for block in model.blocks[s][b_ins + 1 if s == s_ins else 0:]:
            x = ssa_forward(x, block, ledger)
        stage_tokens.append(x)
    pooled = pool_tokens(x)
    logits = token_logits(pooled, model.head)
    return ForwardResult(logits=logits, stage_tokens=stage_tokens, ledger=ledger,
                         selection=detail)


def forward_full(model: Model, frames,
                 reduction: Optional[ReductionPlan] = None) -> ForwardResult:
    """Full inference pass: forward_suffix on a fresh forward_prefix. frames
    is [T0,B,n,H,W] with T0 == steps (event data) or T0 == 1 (static input,
    repeated across steps)."""
    return forward_suffix(model, forward_prefix(model, frames), reduction)


def _reduced_block(model: Model, prefix: Prefix, block, plan: ReductionPlan,
                   ledger: SopLedger) -> tuple[SpikeTensor, SelectionDetail]:
    x, strat = prefix.tokens, plan.strategy
    if strat.kind == "random-prune":
        # the seeded draw needs only the [B, N] shape
        scores, keys = None, DenseTensor(np.zeros(x.shape[1:3], dtype=np.float32))
    else:
        scores = keys = score_tokens(prefix.trajectories(model.head), lam=strat.lam,
                                     mode=strat.score_mode)
    if strat.kind == "uncert-merge":
        anchor, weights = build_merge_assignment(scores, x, plan.keep_ratio)
        return (merged_ssa(x, anchor, weights, block, model.config.lif, ledger),
                SelectionDetail(anchor, weights, scores))
    anchor = build_keep_mask(keys, plan.keep_ratio, strat)
    return pruned_ssa_batched(x, anchor, block, ledger), SelectionDetail(anchor, scores=scores)
