"""End-to-end forward pass with optional token reduction at one block.

forward_full runs patch embedding, every stage's entry transform and
attention blocks, applies the configured reduction at the insertion block,
mean-pools the final tokens over time and space, and maps the pooled feature
through the classifier head.

The insertion block follows one rule. Strategy kind `none`, or keep ratio
1.0 with any strategy, runs the block unreduced and records every token as
kept. Any other plan scores the tokens (random_prune needs no scores),
selects, and runs the prune or merge kernel. The selection record (anchor
array, merge weights, scores, and with capture the uncertainty trajectories)
is returned when capture is set or the plan's strategy is not `none`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .backbone import (Model, downsample_tokens, patch_embed, ssa_forward,
                       token_logits)
from .efficiency import SopLedger
from .errors import ConfigError, ShapeError
from .selection import (Strategy, build_keep_mask, build_merge_assignment,
                        merged_ssa, pruned_ssa_batched)
from .tensors import DenseTensor, SpikeTensor, as_array
from .uncertainty import score_tokens, uncertainty_trajectories


@dataclass(frozen=True)
class ReductionPlan:
    strategy: Strategy
    keep_ratio: float = 1.0
    insert_block: Optional[str] = None  # None = model config default

    def __post_init__(self):
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ValueError(f"keep ratio {self.keep_ratio} outside (0, 1]")


@dataclass
class SelectionDetail:
    """What happened at the insertion block. anchor is [B, N] int64: -1 for a
    pruned token, the token's own index when kept or an anchor, otherwise the
    anchor it was merged into; weights [B, N] float64 is set by merging only."""

    anchor: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    scores: Optional[DenseTensor] = None
    trajectories: Optional[np.ndarray] = None  # [T,B,N] float64


@dataclass
class ForwardResult:
    logits: DenseTensor  # [B, C]
    stage_tokens: list[SpikeTensor]
    ledger: SopLedger
    selection: Optional[SelectionDetail] = None


def repeat_static(frames, steps: int):
    """Tile a single-step input [1,B,n,H,W] across the simulation steps."""
    arr = as_array(frames)
    if arr.ndim != 5 or arr.shape[0] != 1:
        raise ShapeError(f"static input must be [1,B,n,H,W], got {arr.shape}")
    tiled = np.ascontiguousarray(np.broadcast_to(arr, (steps,) + arr.shape[1:]))
    return SpikeTensor(tiled) if isinstance(frames, SpikeTensor) else DenseTensor(tiled)


def pool_tokens(x: SpikeTensor) -> DenseTensor:
    """Mean over time and tokens: [T,B,N,D] -> [B,D]."""
    return DenseTensor(x.data.astype(np.float64).mean(axis=(0, 2)).astype(np.float32))


def forward_full(model: Model, frames, reduction: Optional[ReductionPlan] = None,
                 ledger: Optional[SopLedger] = None,
                 capture: bool = False) -> ForwardResult:
    """Full inference pass. frames is [T0,B,n,H,W] with T0 == steps (event
    data) or T0 == 1 (static input, repeated across steps)."""
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

    if ledger is None:
        ledger = SopLedger()
    plan = reduction
    reduce = plan is not None and plan.strategy.kind != "none" and plan.keep_ratio < 1.0
    insert, detail = None, None
    if capture or (plan is not None and plan.strategy.kind != "none"):
        insert = cfg.parse_insert(plan.insert_block if plan is not None else None)
        detail = SelectionDetail()

    x = patch_embed(frames, cfg.patch, model.embed_w, cfg.lif, ledger)
    stage_tokens: list[SpikeTensor] = []
    for s, st in enumerate(cfg.stages):
        if model.entries[s] is not None:
            grid = cfg.grid_at(s - 1)
            if x.shape[2] != grid[0] * grid[1]:
                raise ConfigError("downsampling after token merge is unsupported")
            x = downsample_tokens(x, grid, st.downsample, model.entries[s],
                                  cfg.lif, ledger)
        for b_i, block in enumerate(model.blocks[s]):
            if (s, b_i) != insert:
                x = ssa_forward(x, block, ledger)
                continue
            u = None
            if capture or (reduce and plan.strategy.kind != "random_prune"):
                # one trajectory array serves the dump and the scores
                u = uncertainty_trajectories(x, model.head)
            if capture:
                # dumps always measure at the insertion block's input tokens
                detail.trajectories = u
            if reduce:
                x = _reduced_block(model, x, block, plan, u, ledger, detail)
            else:
                b, n = x.shape[1], x.shape[2]
                detail.anchor = np.tile(np.arange(n, dtype=np.int64), (b, 1))
                x = ssa_forward(x, block, ledger)
        stage_tokens.append(x)
    pooled = pool_tokens(x)
    logits = token_logits(pooled, model.head)
    return ForwardResult(logits=logits, stage_tokens=stage_tokens, ledger=ledger,
                         selection=detail)


def _reduced_block(model: Model, x: SpikeTensor, block, plan: ReductionPlan,
                   u: Optional[np.ndarray], ledger: SopLedger,
                   detail: SelectionDetail) -> SpikeTensor:
    strat = plan.strategy
    if strat.kind == "random_prune":
        # the seeded draw needs only the [B, N] shape
        scores = DenseTensor(np.zeros(x.shape[1:3], dtype=np.float32))
    else:
        scores = score_tokens(u, lam=strat.lam, mode=strat.score_mode)
        detail.scores = scores
    if strat.kind == "uncert_merge":
        detail.anchor, detail.weights = build_merge_assignment(scores, x, plan.keep_ratio)
        return merged_ssa(x, detail.anchor, detail.weights, block, model.config.lif,
                          ledger)
    detail.anchor = build_keep_mask(scores, plan.keep_ratio, strat)
    return pruned_ssa_batched(x, detail.anchor, block, ledger)
