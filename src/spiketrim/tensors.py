"""Dense and binary tensors plus the deterministic core operations.

Conventions shared by the whole engine:
  * SpikeTensor holds uint8 data restricted to {0, 1}; DenseTensor holds
    float32. Internal arithmetic runs in float64 and is cast back at the API
    boundary. The wrappers and their validation sit at API boundaries only;
    per-timestep loops (neuron.lif_step) pass plain ndarrays.
  * Reductions that could depend on summation order are either performed in
    an explicit ascending-index loop (backbone.token_logits) or operate on
    values whose partial sums are exact in float64, which makes the order
    irrelevant.
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
        raw = np.asarray(self.data)
        # the uint8 cast maps 0.5 and 256 to 0: check other dtypes before it
        if raw.dtype not in (np.uint8, np.bool_) and ((raw != 0) & (raw != 1)).any():
            raise ShapeError("SpikeTensor contains values outside {0, 1}")
        arr = np.ascontiguousarray(raw, dtype=np.uint8)
        check_shape(arr.shape)
        if arr.max(initial=0) > 1:
            raise ShapeError("SpikeTensor contains values outside {0, 1}")
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


Tensor = Union[DenseTensor, SpikeTensor]


def as_array(x) -> np.ndarray:
    """Unwrap a DenseTensor/SpikeTensor to its ndarray; pass arrays through."""
    if isinstance(x, (DenseTensor, SpikeTensor)):
        return x.data
    return np.asarray(x)


def spike_counts(spikes: np.ndarray) -> np.ndarray:
    """Per-element spike count over the leading time axis of a [T, ...]
    binary array: uint8 while T <= 255, so no count can wrap, int64 beyond.
    Counts are exact integers, so any mean taken from them has the bits of a
    float64 mean over time."""
    return spikes.sum(axis=0, dtype=np.uint8 if spikes.shape[0] <= 255 else np.int64)


def topk_rows(keys: np.ndarray, k: int) -> np.ndarray:
    """[B, k] int64 indices of the k largest keys in each row of [B, N] real
    keys of a signed or float dtype, each row ascending; ties favor the
    smaller index.

    Deterministic by construction: one stable sort of -key orders every row
    by (-key, index) before truncation. Keys are ranked in their own dtype;
    negation is exact in any float type, so no widening copy is needed.
    """
    arr = np.asarray(keys)
    if arr.ndim != 2:
        raise ShapeError(f"topk_rows expects [B, N] keys, got shape {arr.shape}")
    if arr.dtype.kind == "u":
        raise ValueError(f"unsigned {arr.dtype} keys wrap under negation; pass a signed dtype")
    if not np.isfinite(arr).all():
        raise ValueError("scores must be finite")
    if not 0 <= k <= arr.shape[1]:
        raise ValueError(f"k={k} outside [0, {arr.shape[1]}]")
    order = np.argsort(-arr, axis=-1, kind="stable")
    return np.sort(order[:, :k], axis=-1)
