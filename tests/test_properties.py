"""Randomized invariant suites; each runs >= 1000 cases (acceptance item).

The generators use a fixed numpy seed so failures replay exactly.
"""
import numpy as np
import pytest

from spiketrim.backbone import SsaBlockWeights
from spiketrim.efficiency import SopLedger
from spiketrim.errors import ShapeError
from spiketrim.neuron import LifParams, LifState, lif_step
from spiketrim.selection import (apply_merge, build_merge_assignment,
                                 pruned_ssa_batched)
from spiketrim.tensors import DenseTensor, SpikeTensor

N_CASES = 1000


def test_spike_tensor_binarity_closure():
    """Every constructed SpikeTensor holds {0,1} only, non-binary payloads are
    rejected on construction, and LIF steps emit only 0 or 1."""
    rng = np.random.default_rng(101)
    for case in range(N_CASES):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 5)))
        t = SpikeTensor((rng.random(shape) < rng.random()).astype(np.uint8))
        assert set(np.unique(t.data)) <= {0, 1}
        if case % 4 == 0:
            bad = np.ones(shape, dtype=np.uint8) + rng.integers(1, 10)
            with pytest.raises(ShapeError):
                SpikeTensor(bad)
        if case % 5 == 0:
            state = LifState.zeros(LifParams(tau=0.5 + 0.4 * rng.random()), shape)
            spikes = lif_step(state, rng.normal(size=shape) * 2)
            assert set(np.unique(spikes)) <= {0, 1}


def test_gather_scatter_roundtrip():
    """The prune kernel's gather/scatter returns x bitwise for random x and
    random per-sample keep sets, when the block between them is the identity
    (zero weights: input current 1 reaches v_th exactly and resets)."""
    rng = np.random.default_rng(202)
    for _ in range(N_CASES):
        t, b, n, d = (int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                      int(rng.integers(2, 10)), int(rng.integers(1, 6)))
        x = SpikeTensor((rng.random((t, b, n, d)) < 0.5).astype(np.uint8))
        k = int(rng.integers(1, n + 1))
        anchor = np.full((b, n), -1, dtype=np.int64)
        for m in range(b):
            idx = rng.choice(n, size=k, replace=False)
            anchor[m, idx] = idx
        zero = DenseTensor(np.zeros((d, d), dtype=np.float32))
        block = SsaBlockWeights(zero, zero, zero, zero, lif=LifParams(), shift=1)
        out = pruned_ssa_batched(x, anchor, block)
        assert out.data.tobytes() == x.data.tobytes()


def test_merge_convexity_and_weight_normalization():
    """Merged coordinates stay within member min/max; weights sum to one."""
    rng = np.random.default_rng(303)
    case = 0
    while case < N_CASES:
        t, n, d = (int(rng.integers(1, 4)), int(rng.integers(3, 10)),
                   int(rng.integers(1, 5)))
        feats = SpikeTensor((rng.random((t, 1, n, d)) < rng.random()).astype(np.uint8))
        k = int(rng.integers(1, n))
        ratio = (k + 0.5) / n  # floor(ratio * n) == k, strictly inside (0, 1)
        scores = DenseTensor(rng.random((1, n)).astype(np.float32))
        anchor, weights = build_merge_assignment(scores, feats, ratio)
        merged = apply_merge(feats, anchor, weights)
        for ai, a in enumerate(np.flatnonzero(anchor[0] == np.arange(n))):
            group = np.flatnonzero(anchor[0] == a)
            assert abs(weights[0, group].sum() - 1.0) <= 1e-6
            vals = feats.data[:, 0][:, group, :].astype(np.float64)
            lo, hi = vals.min(axis=1), vals.max(axis=1)
            got = merged.data[:, 0, ai, :]
            assert (got >= lo - 1e-6).all() and (got <= hi + 1e-6).all()
            case += 1
            if case >= N_CASES:
                return


def test_ledger_merge_commutativity():
    """Adding per-context counts into one ledger in any order yields equal
    entries."""
    rng = np.random.default_rng(404)
    labels = ["embed", "s1.qkv", "s1.attn", "s2.proj"]
    for _ in range(N_CASES):
        parts = [(labels[rng.integers(len(labels))], int(rng.integers(0, 1000)),
                  int(rng.integers(0, 1000)))
                 for _ in range(int(rng.integers(2, 12)))]
        order = rng.permutation(len(parts))
        forward = SopLedger()
        for label, sa, mac in parts:
            forward.add(label, sa, mac)
        shuffled = SopLedger()
        for i in order:
            shuffled.add(*parts[i])
        assert forward.entries == shuffled.entries


def test_lif_leak_law():
    """With zero input, membrane after t steps equals tau^t * initial to 1e-6
    relative."""
    rng = np.random.default_rng(505)
    for _ in range(N_CASES):
        tau = float(rng.uniform(0.05, 0.99))
        v_th = float(rng.uniform(0.5, 4.0))
        steps = int(rng.integers(1, 30))
        init = rng.uniform(-0.45, 0.45, size=int(rng.integers(1, 6))) * v_th
        state = LifState(params=LifParams(tau=tau, v_th=v_th),
                         membrane=init.copy())
        for _ in range(steps):
            assert not lif_step(state, np.zeros_like(init)).any()
        expect = (tau ** steps) * init
        scale = np.maximum(np.abs(expect), 1e-12)
        assert (np.abs(state.membrane - expect) / scale).max() < 1e-6
