import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiketrim import selection
from spiketrim.backbone import (HeadWeights, SsaBlockWeights, extract_patches,
                                patch_embed, token_logits)
from spiketrim.efficiency import SopLedger
from spiketrim.errors import ShapeError
from spiketrim.neuron import LifParams
from spiketrim.selection import pruned_ssa_batched
from spiketrim.tensors import DenseTensor, SpikeTensor, check_shape, topk_rows
from spiketrim.uncertainty import score_tokens


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

    @pytest.mark.parametrize("values", [[0.5, 0.99, 1.0], [256], [-1], [0.0, np.nan]],
                             ids=["fraction", "wraps", "negative", "nan"])
    def test_spike_rejects_before_cast(self, values):
        # the uint8 cast would turn each of these into a valid spike value
        with pytest.raises(ShapeError):
            SpikeTensor(np.array(values))

    def test_spike_accepts_binary_of_any_dtype(self):
        for arr in (np.array([0.0, 1.0]), np.array([0, 1]), np.array([False, True])):
            assert SpikeTensor(arr).data.tolist() == [0, 1]

    def test_spike_casts_and_counts(self):
        t = SpikeTensor(np.array([[1, 0], [1, 1]]))
        assert t.data.dtype == np.uint8
        assert t.data.sum() == 3

    def test_dense_rejects_nan(self):
        with pytest.raises(ShapeError):
            DenseTensor(np.array([1.0, np.nan]))

    def test_dense_rejects_inf(self):
        with pytest.raises(ShapeError):
            DenseTensor(np.array([np.inf]))


class TestFlattenSpatial:
    """Flattening the spatial grid into tokens is extract_patches with patch 1."""

    def test_shape_arithmetic(self):
        x = SpikeTensor(np.zeros((4, 1, 8, 2, 3), dtype=np.uint8))
        assert extract_patches(x, 1).shape == (4, 1, 6, 8)

    def test_zeros_stay_zero(self):
        x = SpikeTensor(np.zeros((2, 1, 3, 2, 2), dtype=np.uint8))
        assert not extract_patches(x, 1).any()

    def test_index_formula(self):
        # nonzero at (t=0,b=0,c=2,h=1,w=0) with W=3 -> token 1*3+0=3, channel 2
        x = np.zeros((4, 1, 3, 2, 3), dtype=np.uint8)
        x[0, 0, 2, 1, 0] = 1
        flat = extract_patches(SpikeTensor(x), 1)
        assert flat[0, 0, 3, 2] == 1
        assert flat.sum() == 1

    def test_wrong_rank(self):
        with pytest.raises(ShapeError):
            extract_patches(SpikeTensor(np.zeros((2, 2, 2), dtype=np.uint8)), 1)


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


def _top(scores, k):
    """topk_rows on one row of scores, as a list."""
    return topk_rows(np.array([scores], dtype=np.float64), k)[0].tolist()


class TestTopK:
    def test_derived_example(self):
        assert _top([0.9, 0.1, 0.5, 0.5, 0.3], 3) == [0, 2, 3]

    def test_tie_break(self):
        assert _top([0.5, 0.5, 0.5, 0.1], 2) == [0, 1]

    def test_k_equals_n(self):
        assert _top([0.3, 0.1, 0.2], 3) == [0, 1, 2]

    def test_k_zero(self):
        assert topk_rows(np.array([[1.0, 2.0], [2.0, 1.0]]), 0).shape == (2, 0)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            _top([1.0], 2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            topk_rows(np.array([[0.0, 1.0], [np.nan, 1.0]]), 1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
    def test_rejects_unsigned_keys(self, dtype):
        # -key wraps for unsigned dtypes: the top-1 of [0, 3, 1, 0] would be 0
        keys = np.array([[0, 3, 1, 0]])
        assert topk_rows(keys.astype(np.int64), 1).tolist() == [[1]]
        with pytest.raises(ValueError, match="unsigned"):
            topk_rows(keys.astype(dtype), 1)

    def test_rejects_flat_keys(self):
        with pytest.raises(ShapeError):
            topk_rows(np.array([1.0, 2.0]), 1)

    @given(st.integers(1, 40), st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_topk_properties(self, n, b, data):
        rows = [data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
                for _ in range(b)]
        k = data.draw(st.integers(0, n))
        sel = topk_rows(np.array(rows), k)
        assert (sel == topk_rows(np.array(rows), k)).all()  # deterministic
        assert sel.shape == (b, k)
        for scores, row in zip(rows, sel.tolist()):
            assert row == _top(scores, k)  # rows are independent
            assert row == sorted(row) and len(set(row)) == len(row)
            if k:
                worst = min(scores[i] for i in row)
                assert all(scores[j] <= worst for j in range(n) if j not in row)
                # ties at the cut go to the smaller index
                assert all(j > max(i for i in row if scores[i] == worst)
                           for j in range(n) if j not in row and scores[j] == worst)


def _head(w, b=None):
    w = np.asarray(w, dtype=np.float32)
    b = np.zeros(w.shape[1], dtype=np.float32) if b is None else b
    return HeadWeights(DenseTensor(w), DenseTensor(np.asarray(b, dtype=np.float32)))


class TestSpikeDenseMatmul:
    """The pinned spike-by-dense matmul is token_logits' ascending-index
    loop; a spike-driven linear layer (patch_embed on spike frames) charges
    nnz(input) * fan_out spike-accumulates."""

    def test_zero_input(self):
        out = token_logits(SpikeTensor(np.zeros((3, 4), dtype=np.uint8)),
                           _head(np.ones((4, 5))))
        assert (out.data == 0).all()
        ledger = SopLedger()
        frames = SpikeTensor(np.zeros((1, 1, 4, 1, 1), dtype=np.uint8))
        patch_embed(frames, 1, DenseTensor(np.ones((1, 4, 5), dtype=np.float32)),
                    LifParams(), ledger)
        assert ledger.totals() == (0, 0)

    def test_identity(self):
        w = np.array([[1.5, -2.0], [0.25, 4.0]], dtype=np.float32)
        out = token_logits(SpikeTensor(np.eye(2, dtype=np.uint8)), _head(w))
        assert (out.data == w).all()

    def test_counting_rule(self):
        frames = SpikeTensor(np.array([1, 0, 1, 1], dtype=np.uint8).reshape(1, 1, 4, 1, 1))
        ledger = SopLedger()
        patch_embed(frames, 1, DenseTensor(np.zeros((1, 4, 8), dtype=np.float32)),
                    LifParams(), ledger, label="x")
        assert ledger.totals() == (24, 0)

    def test_matches_ascending_scalar_oracle(self):
        rng = np.random.default_rng(5)
        a = SpikeTensor((rng.random((4, 6)) < 0.5).astype(np.uint8))
        head = _head(rng.normal(size=(6, 3)), rng.normal(size=3))
        out = token_logits(a, head)
        for m in range(4):
            for p in range(3):
                acc = np.float64(0.0)
                for k in range(6):  # same ascending-k order as the contract
                    acc += np.float64(a.data[m, k]) * np.float64(head.w.data[k, p])
                acc += np.float64(head.b.data[p])
                assert out.data[m, p] == np.float32(acc)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            token_logits(SpikeTensor(np.zeros((2, 3), dtype=np.uint8)),
                         _head(np.zeros((4, 2))))


def _mean_std(traj):
    """score_tokens' population mean and standard deviation of one [T] trajectory."""
    u = np.array(traj, dtype=np.float64).reshape(-1, 1, 1)
    return (float(score_tokens(u, mode="mean_only").data[0, 0]),
            float(score_tokens(u, mode="std_only").data[0, 0]))


class TestReduceMeanStd:
    """The temporal mean/std reduction is score_tokens' mean_only/std_only."""

    def test_hand_example(self):
        mean, std = _mean_std([0.2, 0.4, 0.6, 0.8])
        assert mean == pytest.approx(0.5, abs=1e-9)
        assert std == pytest.approx(0.2236068, abs=1e-6)

    def test_constant(self):
        assert _mean_std([0.3, 0.3, 0.3]) == (float(np.float32(0.3)), 0.0)

    def test_single(self):
        assert _mean_std([0.7]) == (float(np.float32(0.7)), 0.0)

    def test_empty(self):
        # no steps: refused up front, before numpy can warn about an empty mean
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError):
                _mean_std([])

    def test_population_divisor(self):
        # divisor T, not T-1
        _, std = _mean_std([0.0, 1.0])
        assert std == pytest.approx(0.5, abs=1e-12)
