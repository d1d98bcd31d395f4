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

Merging runs on the whole batch at once, and its two real-valued sums keep
pinned orders, because a float sum in another order can differ in the last
bit (the frozen reference and every recorded hash hold these orders):
  * a group's weight denominator is numpy's pairwise `.sum()` over the
    group laid out anchor first, then members ascending;
  * a merged token is accumulated sequentially in that same order, one
    weighted add per member, which is the per-group einsum("j,tjd->td").
Silent tokens are skipped where the result cannot change: a silent token's
cosines are 0 by definition, and a silent member adds exact zeros.
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
from .rng import permutations, stream_bases
from .tensors import DenseTensor, SpikeTensor, spike_counts, topk_rows

# one spelling for the API, the CLI and the CSV
STRATEGY_KINDS = ("uncert-prune", "uncert-merge", "random-prune",
                  "low-uncert-prune", "none")


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

    uncert-prune keeps top scores, low-uncert-prune keeps top negated scores,
    random-prune draws a seeded sample without replacement (stream keyed by
    (strategy.seed, sample position), so keep sets are per-sample independent
    and reproducible); every sample's shuffle runs in one batched pass.
    """
    if len(scores.shape) != 2:
        raise ShapeError(f"scores must be [B, N], got {scores.shape}")
    b, n = scores.shape
    k = n_keep(ratio, n)
    if strategy.kind in ("uncert-prune", "uncert-merge"):
        idx = topk_rows(scores.data, k)
    elif strategy.kind == "low-uncert-prune":
        idx = topk_rows(-scores.data, k)
    elif strategy.kind == "random-prune":
        # row m is stream(seed, f"random_prune/{m}").sample_without_replacement(n, k);
        # the label is part of the stream address, so it keeps its spelling
        bases = stream_bases(strategy.seed, [f"random_prune/{m}" for m in range(b)])
        idx = np.sort(permutations(bases, n)[:, :k], axis=1)
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


def _group_order(anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge groups of a [B, N] anchor array laid out flat over B*N: the
    token order (each group's anchor first, then its members ascending), each
    group's start in that order, and each group's size (index b*N + anchor,
    0 for a token that anchors nothing)."""
    b, n = anchor.shape
    group = (anchor + (np.arange(b) * n)[:, None]).ravel()
    # lexsort is stable, so tokens stay ascending within (group, member)
    order = np.lexsort(((anchor != np.arange(n)).ravel(), group))
    sizes = np.bincount(group, minlength=b * n)
    return order, np.cumsum(sizes) - sizes, sizes


def build_merge_assignment(scores: DenseTensor, features: SpikeTensor,
                           ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """(anchor, weights), both [B, N]. Anchors = top-score tokens; each
    non-anchor joins its most similar anchor by cosine of time-averaged
    features (ties to the smaller anchor index, all-zero features have cosine
    0). A group's weights are normalized exponentials of similarity over
    [anchor] + members ascending, with anchor self-similarity 1; a token alone
    in its group has weight 1.

    The whole batch runs at once: one [B, N, K] cosine array and one argmax.
    Each group's denominator is the pairwise `.sum()` numpy gives its
    weights in the pinned order (anchor first, members ascending): the groups
    of one size are stacked as rows and summed along them, which runs the
    same summation per row as a one-group `.sum()`. A sequential sum or
    np.add.reduceat adds in another order and differs in the last bit.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"merge ratio {ratio} must lie in (0, 1)")
    b, n = scores.shape
    t = features.shape[0]
    if features.shape[1] != b or features.shape[2] != n:
        raise ShapeError(f"features {features.shape} vs scores {scores.shape}")
    k = n_keep(ratio, n)
    rows = np.arange(b)[:, None]
    top = topk_rows(scores.data, k)  # [B, K] anchors, ascending
    counts = spike_counts(features.data)  # [B, N, D]
    zbar = counts / t  # the float64 time mean, from exact integer counts
    live_b, live_j = np.nonzero(counts.any(axis=-1))
    norms = np.zeros((b, n))
    norms[live_b, live_j] = np.sqrt((zbar[live_b, live_j] ** 2).sum(axis=-1))
    dots = zbar @ zbar[rows, top].transpose(0, 2, 1)  # [B, N, K]
    # A silent token's dot products are +0.0 and its cosines 0 by definition,
    # so it joins the first anchor at similarity 0; only live rows divide.
    sims = dots[live_b, live_j]  # [M, K]
    del dots  # the one [B, N, K] temporary
    dens = norms[live_b, live_j][:, None] * norms[rows, top][live_b]
    # a zero norm means a zero feature, whose dot products are already +0.0
    dens[dens == 0.0] = 1.0
    sims /= dens
    col = np.zeros((b, n), dtype=np.intp)
    col[live_b, live_j] = np.argmax(sims, axis=1)  # argmax tie -> smaller anchor
    best = np.zeros((b, n))
    best[live_b, live_j] = sims[np.arange(sims.shape[0]), col[live_b, live_j]]
    anchor = top[rows, col]
    anchor[rows, top] = top
    best[rows, top] = 1.0  # an anchor's self-similarity
    expw = np.exp(best)

    order, starts, sizes = _group_order(anchor)
    flat = expw.ravel()
    weights = np.ones(b * n, dtype=np.float64)
    for size in np.unique(sizes[sizes > 1]).tolist():
        members = order[starts[sizes == size][:, None] + np.arange(size)]  # [G, size]
        w = flat[members]
        w /= w.sum(axis=1)[:, None]
        weights[members] = w
    return anchor, weights.reshape(b, n)


def apply_merge(x: SpikeTensor, anchor: np.ndarray, weights: np.ndarray,
                ledger: Optional[SopLedger] = None,
                label: str = "merge") -> DenseTensor:
    """Weighted token combination: [T,B,N,D] -> real [T,B,K,D], one output row
    per anchor in ascending token order.

    Weights are time-independent; merged token i at time t is the convex
    combination of its members' spikes at t, accumulated in the pinned order
    (anchor first, then members ascending, one add per member), which is the
    per-group einsum("j,tjd->td") bit for bit. A silent member adds exact
    zeros, so only members with a spike are visited. Each weighted add is
    charged as a dense MAC, and every token belongs to exactly one group.
    """
    t, b, n, d = x.shape
    if anchor.shape != (b, n) or weights.shape != (b, n):
        raise ShapeError(f"anchor {anchor.shape} / weights {weights.shape} "
                         f"for tokens {x.shape}")
    kept = _kept(anchor)
    rows = np.arange(b)[:, None]
    anchors = np.nonzero(kept)[1].reshape(b, -1)  # [B, K], ascending per sample
    out = np.empty((t, b, anchors.shape[1], d))  # C order, as DenseTensor keeps it
    np.multiply(x.data[:, rows, anchors], weights[rows, anchors][:, :, None], out=out)
    # members with a spike, ascending within their group, and each one's rank
    bb, jj = np.nonzero(~kept & x.data.any(axis=0).any(axis=-1))
    group = bb * n + anchor[bb, jj]
    order = np.argsort(group, kind="stable")
    bb, jj, group = bb[order], jj[order], group[order]
    rank = np.arange(group.size) - np.searchsorted(group, group)
    slot = (np.cumsum(kept, axis=1) - 1)[bb, anchor[bb, jj]]  # anchor's output row
    for r in range(int(rank.max(initial=-1)) + 1):
        at = rank == r
        bs, js, ss, w = bb[at], jj[at], slot[at], weights[bb[at], jj[at]][:, None]
        for step in range(t):  # one step at a time keeps the temporaries [M, D]
            out[step, bs, ss] += x.data[step, bs, js] * w
    if ledger is not None:
        ledger.add(label, dense_macs=t * b * n * d)
    return DenseTensor(out.astype(np.float32))


def merged_ssa(x: SpikeTensor, anchor: np.ndarray, weights: np.ndarray,
               w: SsaBlockWeights, lif: LifParams,
               ledger: Optional[SopLedger] = None) -> SpikeTensor:
    """Merge, re-binarize through a LIF front end, then run the block on the
    reduced token set. Output has K tokens; downstream layers see fewer rows."""
    merged = apply_merge(x, anchor, weights, ledger, label=f"{w.label}.merge")
    # lif_step widens each float32 step exactly into its float64 membrane, so
    # the merged tokens need no float64 copy, and they are dropped before the
    # block runs
    binary = lif_sequence(lif, merged.data)
    del merged
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
