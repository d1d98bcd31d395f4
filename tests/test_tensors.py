import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiketrim import selection
from spiketrim.backbone import SsaBlockWeights
from spiketrim.efficiency import SopLedger
from spiketrim.errors import ShapeError
from spiketrim.neuron import LifParams
from spiketrim.selection import pruned_ssa_batched
from spiketrim.tensors import (DenseTensor, SpikeTensor, check_shape,
                               flatten_spatial, reduce_mean_std,
                               spike_dense_matmul, topk_indices)


class TestShapes:
    def test_valid_ranks(self):
        assert check_shape([3]) == (3,)
        assert check_shape([2, 3, 4, 5, 6]) == (2, 3, 4, 5, 6)

    @pytest.mark.parametrize("dims", [[], [1] * 6, [0], [3, -1]])
    def test_invalid(self, dims):
        with pytest.raises(ShapeError):
            check_shape(dims)

    def test_overflow_guard(self):
        with pytest.raises(ShapeError):
            check_shape([2**32, 2**32])


class TestTensorTypes:
    def test_spike_rejects_two(self):
        with pytest.raises(ShapeError):
            SpikeTensor(np.array([0, 1, 2], dtype=np.uint8))

    def test_spike_casts_and_counts(self):
        t = SpikeTensor(np.array([[1, 0], [1, 1]]))
        assert t.data.dtype == np.uint8
        assert t.nnz == 3

    def test_dense_rejects_nan(self):
        with pytest.raises(ShapeError):
            DenseTensor(np.array([1.0, np.nan]))

    def test_dense_rejects_inf(self):
        with pytest.raises(ShapeError):
            DenseTensor(np.array([np.inf]))


class TestFlattenSpatial:
    def test_shape_arithmetic(self):
        x = SpikeTensor(np.zeros((4, 1, 8, 2, 3), dtype=np.uint8))
        assert flatten_spatial(x).shape == (4, 1, 6, 8)

    def test_zeros_stay_zero(self):
        x = SpikeTensor(np.zeros((2, 1, 3, 2, 2), dtype=np.uint8))
        assert flatten_spatial(x).nnz == 0

    def test_index_formula(self):
        # nonzero at (t=0,b=0,c=2,h=1,w=0) with W=3 -> token 1*3+0=3, channel 2
        x = np.zeros((4, 1, 3, 2, 3), dtype=np.uint8)
        x[0, 0, 2, 1, 0] = 1
        flat = flatten_spatial(SpikeTensor(x))
        assert flat.data[0, 0, 3, 2] == 1
        assert flat.nnz == 1

    def test_wrong_rank(self):
        with pytest.raises(ShapeError):
            flatten_spatial(SpikeTensor(np.zeros((2, 2, 2), dtype=np.uint8)))


def _identity_block(d):
    """Zero weights: input current 1 reaches v_th exactly and resets, so the
    block maps every spike tensor to itself."""
    zero = DenseTensor(np.zeros((d, d), dtype=np.float32))
    return SsaBlockWeights(zero, zero, zero, zero, lif=LifParams(), shift=1)


def _keep(n, kept, b):
    anchor = np.full((b, n), -1, dtype=np.int64)
    anchor[:, kept] = kept
    return anchor


class TestGatherScatter:
    """Token gather/scatter, done in one place: the prune kernel gathers each
    sample's kept rows, runs the block on them and scatters them back."""

    def _random(self, rng, shape=(3, 2, 6, 4)):
        return SpikeTensor((rng.random(shape) < 0.5).astype(np.uint8))

    def _gathered(self, monkeypatch, x, anchor):
        seen = []

        def capture(g, w, ledger=None):
            seen.append(g.data.copy())
            return g
        monkeypatch.setattr(selection, "ssa_forward", capture)
        pruned_ssa_batched(x, anchor, None)
        return seen[0]

    def test_identity_gather(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = self._random(rng)
        assert (self._gathered(monkeypatch, x, _keep(6, range(6), 2)) == x.data).all()

    def test_single_row(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = self._random(rng, (2, 2, 4, 3))
        g = self._gathered(monkeypatch, x, _keep(4, [2], 2))
        assert (g[:, :, 0, :] == x.data[:, :, 2, :]).all()

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        x = self._random(rng)
        out = pruned_ssa_batched(x, _keep(6, [0, 2, 5], 2), _identity_block(4))
        assert (out.data == x.data).all()

    def test_scatter_construction(self, monkeypatch):
        monkeypatch.setattr(selection, "ssa_forward",
                            lambda g, w, ledger=None: SpikeTensor(np.ones_like(g.data)))
        base = SpikeTensor(np.zeros((1, 1, 4, 2), dtype=np.uint8))
        out = pruned_ssa_batched(base, _keep(4, [1, 3], 1), None)
        assert out.data[0, 0].tolist() == [[0, 0], [1, 1], [0, 0], [1, 1]]

    def test_scatter_full_cover(self, monkeypatch):
        rng = np.random.default_rng(3)
        base = self._random(rng, (2, 1, 3, 2))
        src = self._random(rng, (2, 1, 3, 2))
        monkeypatch.setattr(selection, "ssa_forward", lambda g, w, ledger=None: src)
        out = pruned_ssa_batched(base, _keep(3, [0, 1, 2], 1), None)
        assert (out.data == src.data).all()

    @pytest.mark.parametrize("idx", [
        [[0, 0, 2, -1]],  # another token's index: a merge record
        [[0, 1, 2, -2]],  # negative but not -1
        [[-1, -1, -1, -1]],  # keeps nothing
        [[0, -1, 2, -1], [0, 1, 2, -1]],  # unequal keep counts
    ])
    def test_bad_indices(self, idx):
        anchor = np.array(idx, dtype=np.int64)
        x = SpikeTensor(np.zeros((1, anchor.shape[0], 4, 2), dtype=np.uint8))
        with pytest.raises(ShapeError):
            pruned_ssa_batched(x, anchor, _identity_block(2))

    def test_scatter_length_mismatch(self):
        base = SpikeTensor(np.zeros((1, 1, 4, 2), dtype=np.uint8))
        with pytest.raises(ShapeError):
            pruned_ssa_batched(base, _keep(3, [0, 1], 1), _identity_block(2))


class TestTopK:
    def test_derived_example(self):
        assert topk_indices([0.9, 0.1, 0.5, 0.5, 0.3], 3) == [0, 2, 3]

    def test_tie_break(self):
        assert topk_indices([0.5, 0.5, 0.5, 0.1], 2) == [0, 1]

    def test_k_equals_n(self):
        assert topk_indices([0.3, 0.1, 0.2], 3) == [0, 1, 2]

    def test_k_zero(self):
        assert topk_indices([1.0, 2.0], 0) == []

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            topk_indices([1.0], 2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            topk_indices([np.nan, 1.0], 1)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_topk_properties(self, scores, data):
        k = data.draw(st.integers(0, len(scores)))
        sel = topk_indices(scores, k)
        assert sel == topk_indices(scores, k)  # deterministic
        assert sel == sorted(sel) and len(set(sel)) == len(sel)
        if k:
            worst = min(scores[i] for i in sel)
            assert all(scores[j] <= worst for j in range(len(scores)) if j not in sel)


class TestSpikeDenseMatmul:
    def test_zero_input(self):
        a = SpikeTensor(np.zeros((3, 4), dtype=np.uint8))
        w = DenseTensor(np.ones((4, 5), dtype=np.float32))
        ledger = SopLedger()
        out = spike_dense_matmul(a, w, ledger)
        assert (out.data == 0).all()
        assert ledger.totals() == (0, 0)

    def test_identity(self):
        a = SpikeTensor(np.eye(2, dtype=np.uint8))
        w = DenseTensor(np.array([[1.5, -2.0], [0.25, 4.0]], dtype=np.float32))
        ledger = SopLedger()
        out = spike_dense_matmul(a, w, ledger)
        assert (out.data == w.data).all()
        assert ledger.totals()[0] == 2 * 2

    def test_counting_rule(self):
        a = SpikeTensor(np.array([[1, 0, 1, 1]], dtype=np.uint8))
        w = DenseTensor(np.zeros((4, 8), dtype=np.float32))
        ledger = SopLedger()
        spike_dense_matmul(a, w, ledger)
        assert ledger.totals()[0] == 24

    def test_matches_ascending_scalar_oracle(self):
        rng = np.random.default_rng(5)
        a = SpikeTensor((rng.random((4, 6)) < 0.5).astype(np.uint8))
        w = DenseTensor(rng.normal(size=(6, 3)).astype(np.float32))
        out = spike_dense_matmul(a, w)
        for m in range(4):
            for p in range(3):
                acc = np.float64(0.0)
                for k in range(6):  # same ascending-k order as the contract
                    acc += np.float64(a.data[m, k]) * np.float64(w.data[k, p])
                assert out.data[m, p] == np.float32(acc)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            spike_dense_matmul(SpikeTensor(np.zeros((2, 3), dtype=np.uint8)),
                               DenseTensor(np.zeros((4, 2), dtype=np.float32)))


class TestReduceMeanStd:
    def test_hand_example(self):
        mean, std = reduce_mean_std([0.2, 0.4, 0.6, 0.8])
        assert mean == pytest.approx(0.5, abs=1e-9)
        assert std == pytest.approx(0.2236068, abs=1e-6)

    def test_constant(self):
        assert reduce_mean_std([0.3, 0.3, 0.3]) == (0.3, 0.0)

    def test_single(self):
        assert reduce_mean_std([0.7]) == (0.7, 0.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            reduce_mean_std([])

    def test_population_divisor(self):
        # divisor T, not T-1
        _, std = reduce_mean_std([0.0, 1.0])
        assert std == pytest.approx(0.5, abs=1e-12)
