"""Dense and binary tensors plus the deterministic core operations.

Conventions shared by the whole engine:
  * SpikeTensor holds uint8 data restricted to {0, 1}; DenseTensor holds
    float32. Internal arithmetic runs in float64 and is cast back at the API
    boundary.
  * Reductions that could depend on summation order are either performed in
    an explicit ascending-index loop (spike_dense_matmul) or operate on values
    whose partial sums are exact in float64, which makes the order irrelevant.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ShapeError

MAX_RANK = 5


def check_shape(dims: Sequence[int]) -> tuple[int, ...]:
    """Validate rank in [1, 5], positive extents, 64-bit element count."""
    dims = tuple(int(d) for d in dims)
    if not 1 <= len(dims) <= MAX_RANK:
        raise ShapeError(f"rank {len(dims)} outside [1, {MAX_RANK}]")
    if any(d < 1 for d in dims):
        raise ShapeError(f"non-positive extent in {dims}")
    count = 1
    for d in dims:
        count *= d
        if count > 2**63 - 1:
            raise ShapeError(f"element count of {dims} overflows 64-bit")
    return dims


@dataclass(frozen=True)
class DenseTensor:
    """Row-major float32 tensor; all values finite."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        check_shape(arr.shape)
        if not np.isfinite(arr).all():
            raise ShapeError("DenseTensor contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


@dataclass(frozen=True)
class SpikeTensor:
    """Row-major binary tensor; every element exactly 0 or 1."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.uint8)
        check_shape(arr.shape)
        if arr.max(initial=0) > 1:
            raise ShapeError("SpikeTensor contains values outside {0, 1}")
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def nnz(self) -> int:
        return int(self.data.sum(dtype=np.int64))


Tensor = Union[DenseTensor, SpikeTensor]


def as_array(x) -> np.ndarray:
    """Unwrap a DenseTensor/SpikeTensor to its ndarray; pass arrays through."""
    if isinstance(x, (DenseTensor, SpikeTensor)):
        return x.data
    return np.asarray(x)


def flatten_spatial(x: SpikeTensor) -> SpikeTensor:
    """[T,B,C,H,W] -> [T,B,H*W,C]; token i at (h, w) maps to index h*W + w."""
    if len(x.shape) != 5:
        raise ShapeError(f"flatten_spatial expects rank 5, got {x.shape}")
    t, b, c, h, w = x.shape
    out = x.data.reshape(t, b, c, h * w).transpose(0, 1, 3, 2)
    return SpikeTensor(np.ascontiguousarray(out))


def topk_indices(scores: Sequence[float], k: int) -> list[int]:
    """Indices of the k largest scores; ties favor the smaller index.

    Returned list is sorted ascending by index. Deterministic by construction:
    candidates are ordered by (-score, index) before truncation.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError("topk_indices expects a flat score list")
    if not np.isfinite(arr).all():
        raise ValueError("scores must be finite")
    if not 0 <= k <= arr.size:
        raise ValueError(f"k={k} outside [0, {arr.size}]")
    if k == 0:
        return []
    order = np.lexsort((np.arange(arr.size), -arr))
    return sorted(int(i) for i in order[:k])


def spike_dense_matmul(a: SpikeTensor, w: DenseTensor, ledger=None,
                       label: str = "spike_dense_matmul") -> DenseTensor:
    """out[m, p] = sum_k a[m, k] * w[k, p], accumulated in ascending k.

    Accumulation always runs in float64: reductions here stay far below the
    2^24-term scale where float32 would need widening, and float64 keeps
    grid-quantized weights exact. If a ledger is supplied it is credited
    nnz(a) * P spike-accumulates.
    """
    if len(a.shape) != 2 or len(w.shape) != 2:
        raise ShapeError("spike_dense_matmul expects rank-2 operands")
    m, kk = a.shape
    k2, p = w.shape
    if kk != k2:
        raise ShapeError(f"inner extents differ: {kk} vs {k2}")
    af = a.data.astype(np.float64)
    wf = w.data.astype(np.float64)
    out = np.zeros((m, p), dtype=np.float64)
    for k in range(kk):  # fixed ascending-k order: bit-reproducible everywhere
        out += af[:, k : k + 1] * wf[k]
    if ledger is not None:
        ledger.add(label, spike_accumulates=a.nnz * p)
    return DenseTensor(out.astype(np.float32))


def reduce_mean_std(x: Sequence[float]) -> tuple[float, float]:
    """Population mean and standard deviation (divisor T, no sample correction)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("reduce_mean_std expects a non-empty flat list")
    mean = float(arr.mean())
    std = float(np.sqrt(((arr - mean) ** 2).mean()))
    return mean, std
