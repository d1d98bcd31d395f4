"""Closed-form ridge training of the classifier head on pooled spike features.

The backbone is never trained; a ridge solve against one-hot targets on
mean-pooled features is enough to make per-token evidence informative on the
synthetic task. The solve uses an in-package Cholesky factorization so results
do not depend on the installed LAPACK.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backbone import HeadWeights, Model
from .engine import forward_full, pool_tokens
from .tensors import DenseTensor, topk_rows


@dataclass(frozen=True)
class RidgeConfig:
    l2: float = 1e-3

    def __post_init__(self):
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")


def _cholesky_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = rhs for symmetric positive-definite a (scalar loops;
    deterministic across platforms, D is small here)."""
    n = a.shape[0]
    l = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            acc = a[i, j] - float(l[i, :j] @ l[j, :j])
            if i == j:
                if acc <= 0.0:
                    raise np.linalg.LinAlgError("matrix not positive definite")
                l[i, j] = np.sqrt(acc)
            else:
                l[i, j] = acc / l[j, j]
    y = np.zeros_like(rhs)
    for i in range(n):
        y[i] = (rhs[i] - l[i, :i] @ y[:i]) / l[i, i]
    x = np.zeros_like(rhs)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - l[i + 1 :, i] @ x[i + 1 :]) / l[i, i]
    return x


def ridge_solve(x: np.ndarray, y: np.ndarray, l2: float) -> tuple[np.ndarray, np.ndarray]:
    """Centered ridge: returns (W, b) with predictions = x @ W + b.

    Solves (Xc^T Xc + l2 I) W = Xc^T Yc on centered data; the bias recenters.
    With l2 = 0 a singular Gram matrix raises numpy.linalg.LinAlgError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + l2 * np.eye(x.shape[1])
    w = _cholesky_solve(gram, xc.T @ yc)
    b = y_mean - x_mean @ w
    return w, b


def fit_ridge(features: DenseTensor, labels: Sequence[int], num_classes: int,
              cfg: RidgeConfig = RidgeConfig()) -> HeadWeights:
    """Fit a num_classes-way head to one-hot targets; bias comes from
    centering. A class absent from the labels still gets its column."""
    x = features.data.astype(np.float64)
    y_idx = np.asarray(list(labels), dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y_idx.shape[0] or x.shape[0] < 1:
        raise ValueError(f"features {x.shape} incompatible with {y_idx.shape[0]} labels")
    if y_idx.min() < 0 or y_idx.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    onehot = np.zeros((x.shape[0], num_classes), dtype=np.float64)
    onehot[np.arange(x.shape[0]), y_idx] = 1.0
    w, b = ridge_solve(x, onehot, cfg.l2)
    return HeadWeights(DenseTensor(w.astype(np.float32)),
                       DenseTensor(b.astype(np.float32)))


def train_head(model: Model, frames, labels: Sequence[int],
               cfg: RidgeConfig = RidgeConfig()) -> HeadWeights:
    """Run the unreduced forward pass, pool, and fit the ridge head with the
    model's own class count."""
    result = forward_full(model, frames)
    feats = pool_tokens(result.tokens)
    head = fit_ridge(feats, labels, model.config.num_classes, cfg)
    model.head = head
    return head


def predictions(logits: DenseTensor) -> np.ndarray:
    """Argmax class per row; ties resolve to the smaller class index."""
    return np.argmax(logits.data, axis=-1)


def accuracies(logits: DenseTensor, labels: Sequence[int]) -> tuple[float, float]:
    """(top-1, top-5) accuracy of [B, C] logits against B labels. Top-5 takes
    the top min(5, C) classes: with fewer than five classes that is every
    class and top-5 accuracy is 1.0, so sweep.evaluate_cell reports top-1 in
    its place and rows_csv flags the column."""
    y = np.asarray(list(labels), dtype=np.int64)
    if y.shape[0] != logits.shape[0]:
        raise ValueError("label count does not match batch")
    acc1 = float((predictions(logits) == y).mean())
    topk = topk_rows(logits.data, min(5, logits.shape[1]))
    acc5 = float((topk == y[:, None]).any(axis=1).mean())
    return acc1, acc5
