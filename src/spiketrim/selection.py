"""Token selection: uncertainty-guided pruning and merging plus the random
and low-uncertainty baselines.

Every reduction is recorded as one [B, N] int64 anchor array: -1 marks a
pruned token, a token's own index marks a kept token or merge anchor, and any
other index names the anchor the token was merged into. Merging adds a
[B, N] float64 array with each token's weight inside its anchor's group.

The keep set is derived once per sample from temporally aggregated scores and
shared across all timesteps. Pruned positions are frozen (identity
pass-through): they receive no attention update and no residual
recomputation, which makes keep-everything selection exactly the unreduced
block.

Merging assigns every non-anchor token to its most cosine-similar anchor
(time-averaged features; an all-zero feature has similarity 0 by definition)
and combines each group with normalized exponential weights, anchor included
at self-similarity 1. The merged tokens are real-valued and are re-binarized
by a LIF front end before the attention block consumes them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .backbone import SsaBlockWeights, ssa_forward
from .efficiency import SopLedger
from .errors import ShapeError
from .neuron import LifParams, lif_sequence
from .rng import stream
from .tensors import DenseTensor, SpikeTensor, topk_rows

STRATEGY_KINDS = ("uncert_prune", "uncert_merge", "random_prune",
                  "low_uncert_prune", "none")


@dataclass(frozen=True)
class Strategy:
    """Which ordering drives selection; seed feeds the random baseline only."""

    kind: str = "none"
    lam: float = 0.9
    seed: int = 0
    score_mode: str = "full"

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")


def n_keep(ratio: float, n_total: int) -> int:
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"keep ratio {ratio} outside (0, 1]")
    k = math.floor(ratio * n_total)
    if k < 1:
        raise ValueError(f"floor({ratio} * {n_total}) keeps no tokens")
    return k


def build_keep_mask(scores: DenseTensor, ratio: float, strategy: Strategy) -> np.ndarray:
    """[B, N] anchor array of per-sample keep sets from [B, N] scores: kept
    tokens hold their own index, pruned tokens -1.

    uncert_prune keeps top scores, low_uncert_prune keeps top negated scores,
    random_prune draws a seeded sample without replacement (stream keyed by
    (strategy.seed, sample position), so keep sets are per-sample independent
    and reproducible).
    """
    if len(scores.shape) != 2:
        raise ShapeError(f"scores must be [B, N], got {scores.shape}")
    b, n = scores.shape
    k = n_keep(ratio, n)
    if strategy.kind in ("uncert_prune", "uncert_merge"):
        idx = topk_rows(scores.data, k)
    elif strategy.kind == "low_uncert_prune":
        idx = topk_rows(-scores.data, k)
    elif strategy.kind == "random_prune":
        idx = np.array([stream(strategy.seed, f"random_prune/{m}")
                        .sample_without_replacement(n, k) for m in range(b)],
                       dtype=np.int64)
    else:
        raise ValueError(f"strategy {strategy.kind!r} builds no keep mask")
    anchor = np.full((b, n), -1, dtype=np.int64)
    anchor[np.arange(b)[:, None], idx] = idx
    return anchor


def _kept(anchor: np.ndarray) -> np.ndarray:
    """[B, N] bool of tokens that stay in place (anchor == own index); every
    sample must keep the same number."""
    kept = anchor == np.arange(anchor.shape[1])
    counts = kept.sum(axis=1)
    if (counts != counts[0]).any():
        raise ShapeError("every sample must keep the same number of tokens")
    return kept


def pruned_ssa_batched(x: SpikeTensor, anchor: np.ndarray, w: SsaBlockWeights,
                       ledger: Optional[SopLedger] = None) -> SpikeTensor:
    """Attention restricted to each sample's kept tokens; pruned rows pass
    through unchanged.

    One vectorized pass over the batch: the gathered tensor is processed
    elementwise per batch entry, and all matmul operands are exact, so
    batching cannot change any value.
    """
    b, n = x.shape[1:3]
    if anchor.shape != (b, n):
        raise ShapeError(f"anchor {anchor.shape} for tokens {x.shape}")
    kept = _kept(anchor)
    if (anchor[~kept] != -1).any():
        raise ShapeError("a prune record holds only -1 or the token's own index")
    rows = np.arange(b)[:, None]
    idx = np.nonzero(kept)[1].reshape(b, -1)  # [B, k], ascending per sample
    updated = ssa_forward(SpikeTensor(x.data[:, rows, idx]), w, ledger)
    out = np.array(x.data)
    out[:, rows, idx] = updated.data
    return SpikeTensor(out)


def _groups(anchor_row: np.ndarray) -> list[np.ndarray]:
    """Token indices of each merge group that has members: the anchor first,
    then its members ascending."""
    idx = np.arange(anchor_row.size)
    order = np.lexsort((idx, idx != anchor_row, anchor_row))
    sizes = np.bincount(anchor_row, minlength=anchor_row.size)
    ends = np.cumsum(sizes)
    return [order[e - s : e] for s, e in zip(sizes.tolist(), ends.tolist()) if s > 1]


def build_merge_assignment(scores: DenseTensor, features: SpikeTensor,
                           ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """(anchor, weights), both [B, N]. Anchors = top-score tokens; each
    non-anchor joins its most similar anchor by cosine of time-averaged
    features (ties to the smaller anchor index, all-zero features have cosine
    0). A group's weights are normalized exponentials of similarity over
    [anchor] + members ascending, with anchor self-similarity 1; a token alone
    in its group has weight 1."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"merge ratio {ratio} must lie in (0, 1)")
    b, n = scores.shape
    if features.shape[1] != b or features.shape[2] != n:
        raise ShapeError(f"features {features.shape} vs scores {scores.shape}")
    k = n_keep(ratio, n)
    anchor = np.empty((b, n), dtype=np.int64)
    weights = np.ones((b, n), dtype=np.float64)
    rows = np.arange(n)
    top = topk_rows(scores.data, k)  # [B, K] anchors, ascending
    for m in range(b):
        anchors = top[m]
        zbar = features.data[:, m].astype(np.float64).mean(axis=0)  # [N, D]
        norms = np.sqrt((zbar**2).sum(axis=-1))
        dots = zbar @ zbar[anchors].T  # [N, K]
        dens = norms[:, None] * norms[anchors]
        sims = np.where(dens > 0.0, dots / np.where(dens > 0.0, dens, 1.0), 0.0)
        col = np.argmax(sims, axis=1)  # argmax tie -> smaller anchor
        anchor[m] = anchors[col]
        anchor[m, anchors] = anchors
        sim_to_anchor = sims[rows, col]
        for group in _groups(anchor[m]):
            expw = np.exp(np.concatenate(([1.0], sim_to_anchor[group[1:]])))
            expw /= expw.sum()
            weights[m, group] = expw
    return anchor, weights


def apply_merge(x: SpikeTensor, anchor: np.ndarray, weights: np.ndarray,
                ledger: Optional[SopLedger] = None,
                label: str = "merge") -> DenseTensor:
    """Weighted token combination: [T,B,N,D] -> real [T,B,K,D], one output row
    per anchor in ascending token order.

    Weights are time-independent; merged token i at time t is the convex
    combination of its members' spikes at t. Each weighted add is charged as
    a dense MAC, and every token belongs to exactly one group.
    """
    t, b, n, d = x.shape
    if anchor.shape != (b, n) or weights.shape != (b, n):
        raise ShapeError(f"anchor {anchor.shape} / weights {weights.shape} "
                         f"for tokens {x.shape}")
    kept = _kept(anchor)
    out = np.empty((t, b, int(kept[0].sum()), d), dtype=np.float64)
    for m in range(b):
        xm = x.data[:, m].astype(np.float64)  # [T,N,D]
        anchors = np.flatnonzero(kept[m])
        out[:, m] = xm[:, anchors] * weights[m, anchors][:, None]
        for group in _groups(anchor[m]):
            out[:, m, np.searchsorted(anchors, group[0])] = np.einsum(
                "j,tjd->td", weights[m, group], xm[:, group])
    if ledger is not None:
        ledger.add(label, dense_macs=t * b * n * d)
    return DenseTensor(out.astype(np.float32))


def merged_ssa(x: SpikeTensor, anchor: np.ndarray, weights: np.ndarray,
               w: SsaBlockWeights, lif: LifParams,
               ledger: Optional[SopLedger] = None) -> SpikeTensor:
    """Merge, re-binarize through a LIF front end, then run the block on the
    reduced token set. Output has K tokens; downstream layers see fewer rows."""
    merged = apply_merge(x, anchor, weights, ledger, label=f"{w.label}.merge")
    binary = lif_sequence(lif, merged.data.astype(np.float64))
    return ssa_forward(binary, w, ledger)


def mask_csv(anchor: np.ndarray) -> str:
    """CSV dump `sample,token,kept,anchor` of a [B, N] anchor array; anchor is
    the merge target for merged tokens, the token itself when kept, and -1 for
    pruned tokens."""
    lines = ["sample,token,kept,anchor"]
    for m, row in enumerate(anchor.tolist()):
        for i, a in enumerate(row):
            lines.append(f"{m},{i},{int(a == i)},{a}")
    return "\n".join(lines) + "\n"
