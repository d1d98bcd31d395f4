"""Leaky integrate-and-fire dynamics.

Per step: membrane <- tau * membrane + current; a neuron spikes when the
membrane reaches the threshold (>= comparison, so exact equality fires), and
spiking positions hard-reset to zero. Membranes are kept in float64 so the
leak law (membrane after t silent steps == tau^t * initial) holds to far
better than 1e-6 relative for any realistic horizon.

lif_step updates the membrane array in place (*= tau, += current, then
*= not-spiked) and allocates only the spike array. Each in-place operation
rounds exactly as the out-of-place formula m * (1.0 - spikes) with
m = tau * membrane + current does, signed zeros and firing at exactly the
threshold included, so the two give the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensors import SpikeTensor, as_array


@dataclass(frozen=True)
class LifParams:
    tau: float = 0.9
    v_th: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.v_th <= 0.0:
            raise ValueError(f"v_th must be positive, got {self.v_th}")


@dataclass
class LifState:
    """Mutable membrane state for one neuron population."""

    params: LifParams
    membrane: np.ndarray  # float64, same shape as the population

    @classmethod
    def zeros(cls, params: LifParams, shape: tuple[int, ...]) -> "LifState":
        return cls(params=params, membrane=np.zeros(shape, dtype=np.float64))


def lif_step(state: LifState, current: np.ndarray) -> np.ndarray:
    """Advance one timestep, updating state.membrane in place; return the
    uint8 spikes (0 or 1), a view of a fresh bool array.

    A per-timestep kernel: it takes and returns plain ndarrays, so no tensor
    wrapper is built or validated per step.
    """
    m = state.membrane
    if current.shape != m.shape:
        raise ShapeError(f"current shape {current.shape} != membrane {m.shape}")
    m *= state.params.tau
    m += current
    spikes = m >= state.params.v_th
    m *= ~spikes
    return spikes.view(np.uint8)


def lif_sequence(params: LifParams, currents) -> SpikeTensor:
    """Run lif_step over the leading time axis, starting from a zero membrane."""
    cur = as_array(currents)
    if cur.ndim < 2 or cur.shape[0] < 1:
        raise ValueError("lif_sequence needs a [T, ...] array with T >= 1")
    state = LifState.zeros(params, cur.shape[1:])
    out = np.zeros(cur.shape, dtype=np.uint8)
    for t in range(cur.shape[0]):
        out[t] = lif_step(state, cur[t])
    return SpikeTensor(out)
