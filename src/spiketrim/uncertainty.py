"""Evidential token uncertainty and the temporal importance score.

Pipeline per token i and timestep t: class logits from the shared head ->
softplus evidence e >= 0 -> Dirichlet concentration alpha = e + 1 ->
total evidence S = sum(alpha) -> uncertainty U = C / S in (0, 1].
The trajectory {U^t} is summarized by its population mean and standard
deviation, and the importance score is mu + lambda * sigma (lambda defaults
to 0.9).

Score modes beyond the full score support the standard ablations:
mean_only (lambda = 0 ranking), std_only (sigma ranking), last_step (final-U
ranking; the interpretation of the "single uncertainty" ablation here).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import HeadWeights, token_logits
from .errors import ContractError
from .tensors import DenseTensor, SpikeTensor, as_array, reduce_mean_std

SCORE_MODES = ("full", "mean_only", "std_only", "last_step")


@dataclass(frozen=True)
class TokenStats:
    mu: float
    sigma: float


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + exp(x)) in the overflow-safe split form; exact limits at |x| large
    ax = np.abs(x)
    return np.where(x > 0, x + np.log1p(np.exp(-ax)), np.log1p(np.exp(-ax)))


def evidence_from_logits(logits) -> DenseTensor:
    """Softplus evidence, elementwise; all outputs > 0 for finite input."""
    arr = as_array(logits)
    return DenseTensor(_softplus(arr.astype(np.float64)).astype(np.float32))


def uncertainty_from_evidence(e) -> DenseTensor:
    """U = C / sum_c(e_c + 1) over the trailing class axis; U in (0, 1]."""
    arr = as_array(e)
    if (arr < 0).any():
        raise ContractError("evidence must be non-negative")
    c = arr.shape[-1]
    total = c + arr.astype(np.float64).sum(axis=-1)
    return DenseTensor((c / total).astype(np.float32))


def trajectory_stats(traj) -> TokenStats:
    """Population mean/std of one token's uncertainty trajectory."""
    values = list(traj)
    mu, sigma = reduce_mean_std(values)
    return TokenStats(mu=mu, sigma=sigma)


def importance_score(stats: TokenStats, lam: float) -> float:
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return stats.mu + lam * stats.sigma


def uncertainty_trajectories(stage_tokens: SpikeTensor, head: HeadWeights) -> np.ndarray:
    """Per-token uncertainty over time: [T,B,N,D] tokens -> float64 [T,B,N]."""
    logits = token_logits(stage_tokens, head)  # [T,B,N,C]
    e = _softplus(logits.data.astype(np.float64))
    c = e.shape[-1]
    return c / (c + e.sum(axis=-1))


def score_tokens(u: np.ndarray, lam: float = 0.9, mode: str = "full") -> DenseTensor:
    """Importance scores [B, N] from a [T,B,N] uncertainty trajectory array
    (uncertainty_trajectories), aggregated over time.

    Scores are per batch element; no cross-sample mixing. The returned values
    depend on mode: full = mu + lam * sigma, mean_only = mu, std_only = sigma,
    last_step = U at the final timestep.
    """
    if mode not in SCORE_MODES:
        raise ValueError(f"unknown score mode {mode!r}")
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    mu = u.mean(axis=0)
    sigma = np.sqrt(((u - mu) ** 2).mean(axis=0))
    if mode == "full":
        scores = mu + lam * sigma
    elif mode == "mean_only":
        scores = mu
    elif mode == "std_only":
        scores = sigma
    else:
        scores = u[-1]
    return DenseTensor(scores.astype(np.float32))


def trajectory_csv(u: np.ndarray) -> str:
    """CSV dump `sample,token,t,U` of a [T,B,N] trajectory array."""
    t_steps, b, n = u.shape
    lines = ["sample,token,t,U"]
    for m in range(b):
        for i in range(n):
            for t in range(t_steps):
                lines.append(f"{m},{i},{t},{u[t, m, i]:.6f}")
    return "\n".join(lines) + "\n"
