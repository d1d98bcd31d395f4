"""Counter-based deterministic pseudo-random streams.

Everything stochastic in this package (weight init, synthetic data, random
pruning baselines) draws from splitmix64-style streams addressed by
(seed, label, counter). The streams are pure functions of their address, so
any value can be regenerated independently of draw order, results are
bit-identical across platforms and numpy versions, and concurrent consumers
never contend over shared state.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STEP = np.uint64(0xD1B54A32D192ED03)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


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
    with np.errstate(over="ignore"):
        for byte in label.encode("utf-8"):
            h = (h ^ np.uint64(byte)) * _FNV_PRIME
    return int(h)


class Stream:
    """One addressable random stream: (seed, label) plus a draw counter."""

    def __init__(self, seed: int, label: str):
        base = _mix(np.asarray(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))
        base = base ^ _mix(np.asarray(np.uint64(label_key(label))))
        self._base = np.uint64(base)
        self._offset = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._offset, self._offset + n, dtype=np.uint64)
        self._offset += n
        with np.errstate(over="ignore"):
            state = self._base + idx * _STEP
        return _mix(state)

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
        out = list(range(n))
        # high 32 bits of each draw as Python ints: d * (i + 1) < 2**64 for
        # n <= 2**32, so this is the uint64 multiply-shift without wrapping
        draws = (self._raw(max(n - 1, 0)) >> np.uint64(32)).tolist()
        for i in range(n - 1, 0, -1):
            j = (draws[n - 1 - i] * (i + 1)) >> 32
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=np.int64)

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), returned sorted ascending."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        return np.sort(self.permutation(n)[:k])


def stream(seed: int, label: str) -> Stream:
    return Stream(seed, label)
