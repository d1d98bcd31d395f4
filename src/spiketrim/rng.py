"""Counter-based deterministic pseudo-random streams.

Everything stochastic in this package (weight init, synthetic data, random
pruning baselines) draws from splitmix64-style streams addressed by
(seed, label, counter). The streams are pure functions of their address, so
any value can be regenerated independently of draw order, results are
bit-identical across platforms and numpy versions, and concurrent consumers
never contend over shared state. Streams that differ only in their label can
be drawn together: stream_bases gives their base states as one array and
permutations runs one Fisher-Yates shuffle per base in a single pass.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STEP = np.uint64(0xD1B54A32D192ED03)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 arithmetic wraps intentionally
    with np.errstate(over="ignore"):
        z = z + _GOLDEN
        z ^= z >> np.uint64(30)
        z = z * _MIX1
        z ^= z >> np.uint64(27)
        z = z * _MIX2
        z ^= z >> np.uint64(31)
    return z


def label_key(label: str) -> int:
    """FNV-1a hash of a stream label. Python's hash() is salted; this is not."""
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def stream_bases(seed: int, labels: Sequence[str]) -> np.ndarray:
    """[L] uint64 base states of stream(seed, label), one per label."""
    keys = np.array([label_key(label) for label in labels], dtype=np.uint64)
    return _mix(np.asarray(np.uint64(seed & _MASK64))) ^ _mix(keys)


def _draws(bases: np.ndarray, offset: int, n: int) -> np.ndarray:
    """[L, n] uint64 raw draws offset .. offset + n - 1 of each base's stream."""
    idx = np.arange(offset, offset + n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = bases[:, None] + idx * _STEP
    return _mix(state)


def permutations(bases: np.ndarray, n: int, offset: int = 0) -> np.ndarray:
    """[L, n] int64: a Fisher-Yates permutation of range(n) per stream base,
    from the n - 1 draws starting at offset.

    Draw c swaps position i = n - 1 - c with j = (hi32(draw) * (i + 1)) >> 32;
    hi32 < 2**32 and i + 1 <= n, so the uint64 product cannot wrap for
    n <= 2**32. The swaps run one position at a time across all rows.
    """
    perm = np.tile(np.arange(n, dtype=np.int64), (len(bases), 1))
    mult = np.arange(n, 1, -1, dtype=np.uint64)  # i + 1 for i = n-1 .. 1
    high = _draws(bases, offset, max(n - 1, 0)) >> np.uint64(32)
    j = ((high * mult) >> np.uint64(32)).astype(np.intp)
    rows = np.arange(len(bases))
    for c, i in enumerate(range(n - 1, 0, -1)):
        jc = j[:, c]
        held = perm[:, i].copy()
        perm[:, i] = perm[rows, jc]
        perm[rows, jc] = held
    return perm


class Stream:
    """One addressable random stream: (seed, label) plus a draw counter."""

    def __init__(self, seed: int, label: str):
        self._bases = stream_bases(seed, [label])  # [1]
        self._offset = 0

    def _raw(self, n: int) -> np.ndarray:
        out = _draws(self._bases, self._offset, n)[0]
        self._offset += n
        return out

    def uniform(self, n: int) -> np.ndarray:
        """n doubles on the 2^-24 grid in [0, 1). Grid values are float-exact."""
        bits = self._raw(n) >> np.uint64(40)
        return bits.astype(np.float64) / float(1 << 24)

    def uniform_grid(self, shape: tuple[int, ...], scale: float) -> np.ndarray:
        """Uniform weights in [-scale, scale) quantized to scale * 2^-23 steps.

        With a power-of-two scale every value is a dyadic rational, so sums of
        these weights accumulate exactly in float64 (order-independent matmuls).
        """
        n = int(np.prod(shape))
        k = (self._raw(n) >> np.uint64(40)).astype(np.int64)  # [0, 2^24)
        w = (k - (1 << 23)).astype(np.float64) * (scale / float(1 << 23))
        return w.reshape(shape)

    def sign_magnitude(self, shape: tuple[int, ...], magnitude: float) -> np.ndarray:
        """Rademacher weights: +/-magnitude with equal probability."""
        n = int(np.prod(shape))
        s = np.where((self._raw(n) >> np.uint64(63)) == 1, 1.0, -1.0)
        return (s * magnitude).reshape(shape)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers in [0, bound) by multiply-shift (unbiased enough here)."""
        bits = self._raw(n)
        with np.errstate(over="ignore"):
            return ((bits >> np.uint64(32)) * np.uint64(bound) >> np.uint64(32)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        out = permutations(self._bases, n, self._offset)[0]
        self._offset += max(n - 1, 0)
        return out

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), returned sorted ascending."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        return np.sort(self.permutation(n)[:k])


def stream(seed: int, label: str) -> Stream:
    return Stream(seed, label)
