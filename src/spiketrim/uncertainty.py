"""Evidential token uncertainty and the temporal importance score.

uncertainty_trajectories runs the whole per-token pipeline on a [T,B,N,D]
token tensor: class logits from the shared head (token_logits) -> softplus
evidence e >= 0 -> Dirichlet concentration alpha = e + 1 -> total evidence
S = sum(alpha) -> uncertainty U = C / S in (0, 1] at every timestep.
score_tokens summarizes each token's trajectory {U^t} by its population mean
and standard deviation into the importance score mu + lambda * sigma (lambda
defaults to 0.9). These two functions are the pipeline's only implementation.

Score modes beyond the full score support the standard ablations:
mean_only (lambda = 0 ranking), std_only (sigma ranking), last_step (final-U
ranking; the interpretation of the "single uncertainty" ablation here).
"""
from __future__ import annotations

import numpy as np

from .backbone import HeadWeights, token_logits
from .tensors import DenseTensor, SpikeTensor

SCORE_MODES = ("full", "mean_only", "std_only", "last_step")


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + exp(x)) in the overflow-safe split form; exact limits at |x| large
    ax = np.abs(x)
    return np.where(x > 0, x + np.log1p(np.exp(-ax)), np.log1p(np.exp(-ax)))


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
