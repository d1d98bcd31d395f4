"""Certifies the numeric scheme the engine's determinism rests on.

Model weights live on dyadic grids (scale * 2^-23 steps with power-of-two
scales) and activations are binary, so every partial sum in a float64 matmul
is exactly representable and no rounding ever occurs. Consequently BLAS
summation order cannot change results and the fast `x @ w` path is
bit-identical to the pinned ascending-index accumulation. These tests check
that equivalence at the init scales the default model actually uses.
"""
import numpy as np
import pytest

from spiketrim.backbone import ModelConfig, init_model
from spiketrim.rng import stream

# every (scale, inner-dim) pair exercised by the default configuration
CASES = [
    (0.25, 2),     # embedding, n inputs per position
    (0.0625, 32),  # quiet block projections
    (1.25, 32),    # live insertion block projections
    (0.125, 32),   # untrained head init
]


def ascending_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], w.shape[1]), dtype=np.float64)
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * w[k]
    return out


@pytest.mark.parametrize("scale,inner", CASES)
def test_blas_matmul_equals_ascending_order_bitwise(scale, inner):
    rng = np.random.default_rng(int(scale * 1000) + inner)
    w = stream(5, f"exact/{scale}/{inner}").uniform_grid((inner, 16), scale)
    for density in (0.1, 0.5, 1.0):
        a = (rng.random((24, inner)) < density).astype(np.float64)
        fast = a @ w
        pinned = ascending_matmul(a, w)
        assert fast.tobytes() == pinned.tobytes()


def test_attention_products_are_exact_integers():
    rng = np.random.default_rng(7)
    q = (rng.random((6, 16, 32)) < 0.3).astype(np.float64)
    k = (rng.random((6, 16, 32)) < 0.3).astype(np.float64)
    v = (rng.random((6, 16, 32)) < 0.3).astype(np.float64)
    a = q @ np.swapaxes(k, -1, -2)
    y = a @ v
    assert (a == np.round(a)).all()
    assert (y == np.round(y)).all()
    # scalar re-derivation of one entry
    b_i, r, c = 2, 5, 9
    assert a[b_i, r, c] == sum(q[b_i, r, d] * k[b_i, c, d] for d in range(32))


def test_default_model_weights_on_grid():
    model = init_model(ModelConfig(seed=4))
    for scale, stage_blocks in zip(model.config.w_scales, model.blocks):
        for b, blk in enumerate(stage_blocks):
            step = scale[b] / (1 << 23)
            for w in (blk.w_q, blk.w_k, blk.w_v, blk.w_proj):
                ratio = w.data.astype(np.float64) / step
                assert np.allclose(ratio, np.round(ratio), atol=0.0)
    emb = model.embed_w.data.astype(np.float64)
    assert set(np.unique(emb)) <= {-0.25, 0.25}
