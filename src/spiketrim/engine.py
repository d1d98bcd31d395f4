"""End-to-end forward pass with optional token reduction at one block, split
at the insertion block.

The model's blocks run as one list, Model.flat_blocks, and the insertion
block is one position i in it (ModelConfig.parse_insert); a reduction plan
says only how to reduce there: a strategy and a keep ratio.
forward_prefix is the one place that wraps and validates the input: spike
frames [T,B,n,H,W] with T = steps, every value 0 or 1. It runs patch
embedding and blocks[:i]. Nothing in it depends on the reduction plan, so
one prefix serves every strategy and keep ratio. forward_suffix copies the
prefix's ledger entries, runs block i (unreduced, pruned or merged), then
blocks[i+1:], mean-pools the final tokens over time and space, and maps the
pooled feature through the classifier head. It never modifies the prefix, so
any number of suffixes can run on one. forward_full is forward_suffix on a
fresh prefix.

The insertion block follows one rule. Strategy kind `none`, or keep ratio
1.0 with any strategy, runs the block unreduced and records every token as
kept. A merge picks its anchors by score; a prune keeps the top [B, N] keys,
which _reduced_block alone derives from the kind: the score, the negated
score, or random_keys (no score). Every result carries the selection record
(anchor array, merge weights, scores). The uncertainty trajectories depend
only on the prefix tokens and the head, so a prefix computes them at most
once per head (Prefix.trajectories), for the scores and for any dump alike.

A sweep (sweep.run_sweep) builds one prefix per seed on the test split. Its
`none` cells and every cell at keep ratio 1.0 run the same unreduced suffix,
which it evaluates once; each reduced cell runs one suffix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .backbone import HeadWeights, Model, patch_embed, ssa_forward, token_logits
from .efficiency import SopLedger
from .errors import ConfigError
from .selection import (Strategy, build_keep_mask, build_merge_assignment,
                        merged_ssa, pruned_ssa_batched, random_keys)
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
    tokens: SpikeTensor  # the last block's output, which the head pools
    ledger: SopLedger
    selection: SelectionDetail


@dataclass
class Prefix:
    """The forward pass up to the insertion block's input. tokens is that
    input [T,B,N,D]; ledger holds the ops charged so far; insert is the
    block's position in Model.flat_blocks and label its ledger label prefix,
    e.g. stage3.block1."""

    tokens: SpikeTensor
    ledger: SopLedger
    insert: int
    label: str
    _trajectories: Optional[tuple[HeadWeights, np.ndarray]] = field(
        default=None, repr=False)

    def trajectories(self, head: HeadWeights) -> np.ndarray:
        """[T,B,N] uncertainty of the insertion input under head, computed
        once per head."""
        if self._trajectories is None or self._trajectories[0] is not head:
            self._trajectories = (head, uncertainty_trajectories(self.tokens, head))
        return self._trajectories[1]


def pool_tokens(x: SpikeTensor) -> DenseTensor:
    """Mean over time and tokens: [T,B,N,D] -> [B,D].

    The integer spike count divided by T*N: counts are exact, so this has
    the bits of the float64 mean without a float64 copy of the tokens.
    """
    t, _, n, _ = x.shape
    counts = spike_counts(x.data).sum(axis=1, dtype=np.int64)
    return DenseTensor((counts / (t * n)).astype(np.float32))


def forward_prefix(model: Model, frames) -> Prefix:
    """Everything before the model's insertion block. frames: spike frames
    [steps,B,n,H,W], wrapped as a SpikeTensor (non-binary -> ShapeError)."""
    cfg = model.config
    if not isinstance(frames, SpikeTensor):
        frames = SpikeTensor(as_array(frames))
    shape = frames.shape
    if len(shape) != 5 or shape[:1] + shape[2:] != (cfg.steps, cfg.in_channels,
                                                    cfg.height, cfg.width):
        raise ConfigError(f"input {shape} does not match config [steps,B,n,H,W] = "
                          f"[{cfg.steps},B,{cfg.in_channels},{cfg.height},{cfg.width}]")

    insert, blocks = cfg.parse_insert(), model.flat_blocks
    ledger = SopLedger()
    x = patch_embed(frames, cfg.patch, model.embed_w, cfg.lif, ledger)
    for block in blocks[:insert]:
        x = ssa_forward(x, block, ledger)
    return Prefix(tokens=x, ledger=ledger, insert=insert, label=blocks[insert].label)


def forward_suffix(model: Model, prefix: Prefix,
                   plan: Optional[ReductionPlan] = None) -> ForwardResult:
    """The insertion block under plan, the blocks after it, pool and head."""
    blocks = model.flat_blocks
    ledger = SopLedger()
    for label, (sa, mac) in prefix.ledger.entries.items():
        ledger.add(label, sa, mac)

    x, block = prefix.tokens, blocks[prefix.insert]
    if plan is not None and plan.reduces:
        x, detail = _reduced_block(model, prefix, block, plan, ledger)
    else:
        b, n = x.shape[1], x.shape[2]
        detail = SelectionDetail(anchor=np.tile(np.arange(n, dtype=np.int64), (b, 1)))
        x = ssa_forward(x, block, ledger)

    for block in blocks[prefix.insert + 1:]:
        x = ssa_forward(x, block, ledger)
    logits = token_logits(pool_tokens(x), model.head)
    return ForwardResult(logits=logits, tokens=x, ledger=ledger, selection=detail)


def forward_full(model: Model, frames,
                 reduction: Optional[ReductionPlan] = None) -> ForwardResult:
    """Full inference pass: forward_suffix on a fresh forward_prefix. frames
    is spike frames [T,B,n,H,W] with T == steps."""
    return forward_suffix(model, forward_prefix(model, frames), reduction)


def _reduced_block(model: Model, prefix: Prefix, block, plan: ReductionPlan,
                   ledger: SopLedger) -> tuple[SpikeTensor, SelectionDetail]:
    x, strat = prefix.tokens, plan.strategy
    if strat.kind == "random-prune":
        scores, keys = None, random_keys(strat.seed, x.shape[1], x.shape[2])
    else:
        scores = score_tokens(prefix.trajectories(model.head), lam=strat.lam,
                              mode=strat.score_mode)
        keys = -scores.data if strat.kind == "low-uncert-prune" else scores.data
    if strat.kind == "uncert-merge":
        anchor, weights = build_merge_assignment(scores, x, plan.keep_ratio)
        return (merged_ssa(x, anchor, weights, block, model.config.lif, ledger),
                SelectionDetail(anchor, weights, scores))
    anchor = build_keep_mask(keys, plan.keep_ratio)
    return pruned_ssa_batched(x, anchor, block, ledger), SelectionDetail(anchor, scores=scores)
