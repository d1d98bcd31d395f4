"""Self-contained oracle suite: every closed-form example the engine must
reproduce, with expected values frozen from independent derivations (hand
evaluation of the recurrences, scalar re-implementations, counting rules).

Each check prints one PASS/FAIL line; run time is well under five seconds.
"""
from __future__ import annotations

import math

import numpy as np

from .backbone import (HeadWeights, ModelConfig, SsaBlockWeights,
                       attention_core, extract_patches, init_model, patch_embed,
                       ssa_forward, token_logits)
from .data import SyntheticSpec, synth_dataset
from .efficiency import (EnergyModel, SopLedger, count_attention, count_linear,
                         energy_mj, reduction_percent)
from .engine import forward_full, pool_tokens
from .head import ridge_solve
from .neuron import LifParams, LifState, lif_sequence, lif_step
from .selection import (apply_merge, build_keep_mask, build_merge_assignment,
                        pruned_ssa_batched)
from .tensors import DenseTensor, SpikeTensor, topk_rows
from .uncertainty import score_tokens, uncertainty_trajectories

TOL = 1e-6


def _close(a, b, tol=TOL):
    assert abs(a - b) <= tol, f"{a!r} != {b!r} (tol {tol})"


def _silent_token_u(bias) -> float:
    """U of one silent token at one step: its logits are exactly the bias."""
    c = len(bias)
    head = HeadWeights(DenseTensor(np.ones((1, c), dtype=np.float32)),
                       DenseTensor(np.array(bias, dtype=np.float32)))
    token = SpikeTensor(np.zeros((1, 1, 1, 1), dtype=np.uint8))
    return float(uncertainty_trajectories(token, head)[0, 0, 0])


def _scores(traj, lam=0.9, mode="full") -> float:
    """score_tokens of one token whose [T] trajectory is traj."""
    u = np.array(traj, dtype=np.float64).reshape(-1, 1, 1)
    return float(score_tokens(u, lam, mode).data[0, 0])


def check_softplus_ln2():
    # one class: U = 1 / (1 + e), so the evidence is 1/U - 1
    _close(1.0 / _silent_token_u([0.0]) - 1.0, 0.6931472)
    lo = 1.0 / _silent_token_u([-40.0]) - 1.0
    assert 0.0 <= lo < 1e-17
    _close(1.0 / _silent_token_u([40.0]) - 1.0, 40.0)


def check_uncertainty_zero_logits():
    _close(_silent_token_u([0.0] * 10), 0.5906161)
    # softplus(-1e4) is exactly 0: zero evidence gives the maximum U = 1
    _close(_silent_token_u([-1e4] * 10), 1.0)
    _close(_silent_token_u([40.0, -40.0]), 2.0 / 42.0, tol=1e-4)


def check_trajectory_stats():
    # population mean/std over the time axis (divisor T)
    _close(_scores([0.2, 0.4, 0.6, 0.8], mode="mean_only"), 0.5)
    _close(_scores([0.2, 0.4, 0.6, 0.8], mode="std_only"), 0.2236068)
    _close(_scores([0.3, 0.3, 0.3], mode="mean_only"), 0.3)
    _close(_scores([0.3, 0.3, 0.3], mode="std_only"), 0.0)
    _close(_scores([0.42], mode="mean_only"), 0.42)
    _close(_scores([0.42], mode="std_only"), 0.0)


def check_importance_score():
    _close(_scores([0.2, 0.4, 0.6, 0.8], lam=0.9), 0.7012461)
    _close(_scores([0.2, 0.4, 0.6, 0.8], lam=0.0), 0.5)


def check_lif_train():
    params = LifParams(tau=0.5, v_th=1.0)
    currents = np.full((4, 1), 0.6)
    spikes = lif_sequence(params, currents)
    assert spikes.data[:, 0].tolist() == [0, 0, 1, 0], spikes.data[:, 0].tolist()


def check_lif_leak():
    params = LifParams(tau=0.5, v_th=1.0)
    state = LifState(params=params, membrane=np.array([0.8]))
    for _ in range(2):
        spikes = lif_step(state, np.zeros(1))
        assert not spikes.any()
    _close(float(state.membrane[0]), 0.2)


def check_lif_boundary():
    params = LifParams(tau=0.5, v_th=1.0)
    state = LifState.zeros(params, (3,))
    spikes = lif_step(state, np.full(3, 1.0))
    assert spikes.tolist() == [1, 1, 1]
    assert (state.membrane == 0.0).all()


def check_topk():
    # one batch, each row ranked on its own
    keys = np.array([[0.9, 0.1, 0.5, 0.5, 0.3],
                     [0.5, 0.5, 0.5, 0.1, 0.0],
                     [0.1, 0.2, 0.3, 0.0, 0.0]])
    assert topk_rows(keys, 3).tolist() == [[0, 2, 3], [0, 1, 2], [0, 1, 2]]
    assert topk_rows(keys[1:2], 2).tolist() == [[0, 1]]


def check_flatten_index():
    x = np.zeros((4, 1, 3, 2, 3), dtype=np.uint8)
    x[0, 0, 2, 1, 0] = 1
    flat = extract_patches(SpikeTensor(x), 1)  # patch 1: tokens in h*W + w order
    assert flat.shape == (4, 1, 6, 3)
    assert flat[0, 0, 3, 2] == 1 and flat.sum() == 1


def check_gather_scatter_roundtrip():
    # zero weights make the block the identity on spikes (input current 1
    # reaches v_th exactly), so the prune kernel must return x unchanged
    rng = np.random.default_rng(7)
    x = SpikeTensor((rng.random((3, 2, 6, 4)) < 0.4).astype(np.uint8))
    zero = DenseTensor(np.zeros((4, 4), dtype=np.float32))
    block = SsaBlockWeights(zero, zero, zero, zero, lif=LifParams(), shift=1)
    anchor = np.array([[-1, 1, -1, 3, 4, -1], [0, -1, 2, -1, -1, 5]])
    assert (pruned_ssa_batched(x, anchor, block).data == x.data).all()


def check_spike_matmul_ops():
    # the pinned ascending loop gives the exact matmul values, and a
    # spike-driven linear charges nnz(input) * fan_out
    a = np.array([[1, 0, 1, 1]], dtype=np.uint8)
    w = DenseTensor(np.arange(32, dtype=np.float32).reshape(4, 8) / 16)
    out = token_logits(SpikeTensor(a), HeadWeights(w, DenseTensor(np.zeros(8, np.float32))))
    expect = a.astype(np.float64) @ w.data.astype(np.float64)
    assert (out.data == expect.astype(np.float32)).all()
    ledger = SopLedger()
    frames = SpikeTensor(a.reshape(1, 1, 4, 1, 1))  # 4 channels, one pixel
    patch_embed(frames, 1, DenseTensor(w.data[None]), LifParams(), ledger, label="x")
    assert ledger.entries["x"] == (24, 0)


def check_attention_core():
    q = np.array([[[1.0, 1.0]]])
    a, y = attention_core(q, q, q)
    assert a.tolist() == [[[2.0]]]
    assert y.tolist() == [[[2.0, 2.0]]]


def check_token_logits_rows():
    head = HeadWeights(
        DenseTensor(np.array([[1, 2], [4, 8], [16, 32]], dtype=np.float32)),
        DenseTensor(np.zeros(2, dtype=np.float32)),
    )
    z = SpikeTensor(np.array([1, 0, 1], dtype=np.uint8))
    logits = token_logits(z, head)
    assert logits.data.tolist() == [17.0, 34.0]


def check_low_uncert_keep():
    # low-uncert-prune keeps the top negated scores
    scores = np.array([[0.9, 0.1, 0.5, 0.5, 0.3]], dtype=np.float32)
    lo = build_keep_mask(-scores, 0.6)
    assert lo[0].tolist() == [-1, 1, 2, -1, 4]
    hi = build_keep_mask(scores, 0.6)
    assert hi[0].tolist() == [0, -1, 2, 3, -1]


def check_merge_weights():
    # anchor [1,0], one member [0,1]: similarities (1, 0) -> softmax weights
    feats = np.zeros((1, 1, 2, 2), dtype=np.uint8)
    feats[0, 0, 0] = [1, 0]
    feats[0, 0, 1] = [0, 1]
    scores = DenseTensor(np.array([[1.0, 0.0]], dtype=np.float32))
    anchor, weights = build_merge_assignment(scores, SpikeTensor(feats), 0.5)
    assert anchor.tolist() == [[0, 0]]
    _close(weights[0, 0], 0.7310586)
    _close(weights[0, 1], 0.2689414)
    merged = apply_merge(SpikeTensor(feats), anchor, weights)
    _close(float(merged.data[0, 0, 0, 0]), 0.7310586)
    _close(float(merged.data[0, 0, 0, 1]), 0.2689414)


def check_counting_rules():
    assert count_linear(4, 8) == 32
    assert count_linear(0, 8) == 0
    assert count_attention(3, 4, 2) == (12, 32)
    assert count_attention(0, 4, 2) == (0, 32)
    assert count_attention(5, 1, 2) == (5, 2)


def check_energy_units():
    ledger = SopLedger()
    ledger.add("net", spike_accumulates=10**9)
    _close(energy_mj(ledger, EnergyModel(pj_per_op=0.9)), 0.9, tol=1e-9)
    _close(reduction_percent(100, 90), 10.0, tol=1e-9)
    assert round(reduction_percent(1.233e9, 1.050e9), 2) == 14.84


def check_ridge_normal_equations():
    w, b = ridge_solve(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]), 0.0)
    _close(float(w[0, 0]), 1.0, tol=1e-9)
    _close(float(b[0]), 0.0, tol=1e-9)


def check_pool_single_spike():
    x = np.zeros((2, 1, 3, 4), dtype=np.uint8)
    x[1, 0, 2, 1] = 1
    pooled = pool_tokens(SpikeTensor(x))
    _close(float(pooled.data[0, 1]), 1.0 / 6.0)
    assert float(np.abs(pooled.data).sum()) - float(pooled.data[0, 1]) == 0.0


def check_score_scalar_oracle():
    # vectorized score_tokens vs a direct scalar-loop re-derivation
    rng = np.random.default_rng(11)
    tokens = SpikeTensor((rng.random((3, 2, 4, 5)) < 0.5).astype(np.uint8))
    head = HeadWeights(
        DenseTensor(rng.normal(size=(5, 3)).astype(np.float32)),
        DenseTensor(rng.normal(size=3).astype(np.float32)),
    )
    scores = score_tokens(uncertainty_trajectories(tokens, head), lam=0.9)
    for b in range(2):
        for i in range(4):
            traj = []
            for t in range(3):
                logits = [float(sum(float(tokens.data[t, b, i, k]) * float(head.w.data[k, c])
                                    for k in range(5)) + float(head.b.data[c]))
                          for c in range(3)]
                ev = [math.log1p(math.exp(-abs(l))) + max(l, 0.0) for l in logits]
                traj.append(3.0 / (3.0 + sum(ev)))
            mu = sum(traj) / 3.0
            sigma = math.sqrt(sum((u - mu) ** 2 for u in traj) / 3.0)
            _close(float(scores.data[b, i]), mu + 0.9 * sigma, tol=1e-5)


def _dense_ssa(x: SpikeTensor, w: SsaBlockWeights, ledger: SopLedger) -> np.ndarray:
    """The block over all N tokens at every step, silent ones included."""
    t_steps, b, n, d = x.shape
    ws = [m.data.astype(np.float64) for m in (w.w_q, w.w_k, w.w_v, w.w_proj)]
    states = [LifState.zeros(w.lif, (b, n, d)) for _ in range(4)]
    out = np.zeros(x.shape, dtype=np.uint8)
    for t in range(t_steps):
        xt = x.data[t].astype(np.float64)
        q, k, v = (lif_step(st, xt @ wm).astype(np.float64)
                   for st, wm in zip(states[:3], ws[:3]))
        _, y = attention_core(q, k, v)
        out[t] = lif_step(states[3], (y @ ws[3]) * 2.0 ** (-w.shift) + xt)
        nnz_x = x.data[t].sum(dtype=np.int64)
        ledger.add(f"{w.label}.qkv", spike_accumulates=count_linear(nnz_x, d) * 3)
        sa, macs = count_attention(q.sum(dtype=np.int64), n, d)
        ledger.add(f"{w.label}.attn", spike_accumulates=sa, dense_macs=macs * b)
        ledger.add(f"{w.label}.proj", dense_macs=b * n * d * d)
    return out


def check_active_token_block():
    # silent tokens are fixed points, so running the block on active tokens
    # only must reproduce the dense block's spikes and structural charges
    cfg = ModelConfig(steps=3, in_channels=1, height=2, width=4, num_classes=2,
                      channels=8, w_scales=((1.0,),),
                      insert_block="1.0", seed=3)
    block = init_model(cfg).flat_blocks[0]
    rng = np.random.default_rng(5)
    active = np.array([[0] * 8, [1, 1, 0, 1, 1, 1, 0, 1], [0, 1, 0, 0, 1, 1, 0, 0]],
                      dtype=bool)
    x = SpikeTensor(((rng.random((3, 3, 8, 8)) < 0.2) & active[None, :, :, None])
                    .astype(np.uint8))
    dense_ledger, ledger = SopLedger(), SopLedger()
    expect = _dense_ssa(x, block, dense_ledger)
    assert expect.any(), "oracle batch emits no spike"
    assert (ssa_forward(x, block, ledger).data == expect).all()
    assert ledger.entries == dense_ledger.entries, (ledger.entries, dense_ledger.entries)


def check_forward_determinism():
    spec = SyntheticSpec(train_samples=8, test_samples=8)
    _, test = synth_dataset(spec, 3)
    cfg = ModelConfig(seed=3)
    logits_a = forward_full(init_model(cfg), test.frames).logits
    logits_b = forward_full(init_model(cfg), test.frames).logits
    assert logits_a.data.tobytes() == logits_b.data.tobytes()


CHECKS = [
    ("softplus ln2 and limits", check_softplus_ln2),
    ("uncertainty of zero logits", check_uncertainty_zero_logits),
    ("trajectory mean/std", check_trajectory_stats),
    ("importance score", check_importance_score),
    ("lif spike train 0,0,1,0", check_lif_train),
    ("lif leak law", check_lif_leak),
    ("lif threshold boundary", check_lif_boundary),
    ("topk tie-breaking", check_topk),
    ("flatten spatial index map", check_flatten_index),
    ("prune gather/scatter round-trip", check_gather_scatter_roundtrip),
    ("spike matmul ops and values", check_spike_matmul_ops),
    ("attention core hand matmul", check_attention_core),
    ("token logits row sums", check_token_logits_rows),
    ("keep-mask tie cases", check_low_uncert_keep),
    ("merge weights two-way softmax", check_merge_weights),
    ("op counting rules", check_counting_rules),
    ("energy unit conversion", check_energy_units),
    ("ridge normal equations", check_ridge_normal_equations),
    ("pooling single spike", check_pool_single_spike),
    ("score scalar-loop oracle", check_score_scalar_oracle),
    ("forward determinism", check_forward_determinism),
    ("active-token block equals dense block", check_active_token_block),
]


def run_selftest(out=print) -> int:
    """Run all oracle checks; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
            out(f"PASS {name}")
        except Exception as exc:  # report and continue
            failures += 1
            out(f"FAIL {name}: {exc}")
    out(f"{len(CHECKS) - failures}/{len(CHECKS)} oracle checks passed")
    return failures
