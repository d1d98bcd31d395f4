import numpy as np
import pytest

from spiketrim.backbone import ModelConfig, init_model
from spiketrim.data import SyntheticSpec, synth_dataset
from spiketrim.engine import forward_full, pool_tokens
from spiketrim.head import RidgeConfig, accuracies, fit_ridge, ridge_solve, train_head
from spiketrim.tensors import DenseTensor, SpikeTensor, topk_rows


class TestRidgeSolve:
    def test_hand_example(self):
        w, b = ridge_solve(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]), 0.0)
        assert float(w[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert float(b[0]) == pytest.approx(0.0, abs=1e-12)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 6))
        y = rng.normal(size=(40, 3))
        l2 = 0.1
        w, b = ridge_solve(x, y, l2)
        xc = x - x.mean(0)
        yc = y - y.mean(0)
        lhs = (xc.T @ xc + l2 * np.eye(6)) @ w
        rhs = xc.T @ yc
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-5

    def test_shrinkage_limit(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 4))
        y = rng.normal(size=(20, 2))
        w, _ = ridge_solve(x, y, 1e12)
        assert np.abs(w).max() < 1e-6

    def test_duplicated_rows_equal_double_weight(self):
        # duplicating every row leaves the centered normal equations' solution
        # unchanged when l2 is also doubled (Gram and moment double together)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(15, 4))
        y = rng.normal(size=(15, 2))
        w1, b1 = ridge_solve(x, y, 0.5)
        w2, b2 = ridge_solve(np.vstack([x, x]), np.vstack([y, y]), 1.0)
        assert np.allclose(w1, w2, atol=1e-10)
        assert np.allclose(b1, b2, atol=1e-10)

    def test_singular_without_regularization(self):
        x = np.zeros((5, 3))
        y = np.zeros((5, 2))
        with pytest.raises(np.linalg.LinAlgError):
            ridge_solve(x, y, 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=(30, 3))
        w1, b1 = ridge_solve(x, y, 1e-3)
        w2, b2 = ridge_solve(x, y, 1e-3)
        assert w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()


class TestFitRidge:
    def test_onehot_recovery(self):
        # cleanly separable clusters -> near-perfect one-hot predictions
        rng = np.random.default_rng(4)
        centers = np.eye(3) * 4
        labels = rng.integers(0, 3, size=90)
        x = centers[labels] + rng.normal(scale=0.05, size=(90, 3))
        head = fit_ridge(DenseTensor(x.astype(np.float32)), labels, 3)
        pred = np.argmax(x @ head.w.data.astype(np.float64)
                         + head.b.data.astype(np.float64), axis=1)
        assert (pred == labels).mean() == 1.0

    def test_l2_validation(self):
        with pytest.raises(ValueError):
            RidgeConfig(l2=-1.0)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            fit_ridge(DenseTensor(np.zeros((3, 2), dtype=np.float32)), [0, 1], 2)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_classes(self, label):
        # a negative label would index the last one-hot column
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            fit_ridge(DenseTensor(np.eye(3, dtype=np.float32)), [0, 1, label], 3)

    def test_class_count_from_model(self):
        # seed 1's three train labels are [4, 4, 3]: no sample of classes 0-2
        # or 5, yet the head still scores all six of the model's classes
        spec = SyntheticSpec(classes=6, train_samples=3, test_samples=2)
        train, test = synth_dataset(spec, 1)
        assert train.labels.tolist() == [4, 4, 3]
        model = init_model(ModelConfig(num_classes=6))
        head = train_head(model, train.frames, train.labels)
        assert head.w.shape[1] == head.b.shape[0] == 6
        assert forward_full(model, test.frames).logits.shape == (2, 6)


class TestPooling:
    def test_all_ones(self):
        x = SpikeTensor(np.ones((2, 3, 4, 5), dtype=np.uint8))
        assert (pool_tokens(x).data == 1.0).all()

    def test_all_zeros(self):
        x = SpikeTensor(np.zeros((2, 3, 4, 5), dtype=np.uint8))
        assert (pool_tokens(x).data == 0.0).all()

    @pytest.mark.parametrize("shape", [(4, 2, 64, 3), (300, 2, 3, 2)])
    def test_counts_equal_float_mean(self, shape):
        # T*N > 255 passes a uint8 token count; T > 255 passes a uint8 step count
        rng = np.random.default_rng(5)
        for x in (np.ones(shape, dtype=np.uint8),
                  (rng.random(shape) < 0.4).astype(np.uint8)):
            expected = x.astype(np.float64).mean(axis=(0, 2)).astype(np.float32)
            assert pool_tokens(SpikeTensor(x)).data.tobytes() == expected.tobytes()

    def test_single_spike(self):
        x = np.zeros((2, 1, 3, 4), dtype=np.uint8)
        x[1, 0, 2, 1] = 1
        pooled = pool_tokens(SpikeTensor(x))
        assert float(pooled.data[0, 1]) == pytest.approx(1.0 / 6.0)
        assert float(np.abs(pooled.data).sum()) == pytest.approx(1.0 / 6.0)


class TestTopkClasses:
    # accuracies takes its top-5 class sets from tensors.topk_rows
    def test_ranking_with_ties(self):
        logits = np.array([[0.1, 0.9, 0.9, 0.5, 0.2, 0.0, 0.9]])
        assert topk_rows(logits, 5)[0].tolist() == [1, 2, 3, 4, 6]
        # ties at 0.9 resolve to smaller class indices
        assert topk_rows(logits, 2)[0].tolist() == [1, 2]
        logits5 = DenseTensor(np.repeat(logits, 2, axis=0))
        assert accuracies(logits5, [6, 5]) == (0.0, 0.5)

    def test_top1_matches_argmax(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(20, 8))
        assert (topk_rows(logits, 1)[:, 0] == np.argmax(logits, axis=1)).all()


class TestEval:
    def _trained(self, seed=3):
        spec = SyntheticSpec(train_samples=96, test_samples=64)
        train, test = synth_dataset(spec, seed)
        model = init_model(ModelConfig(seed=seed))
        train_head(model, train.frames, train.labels)
        return model, test

    def test_accuracy_and_topk_bounds(self):
        model, test = self._trained()
        acc1, acc5 = accuracies(forward_full(model, test.frames).logits, test.labels)
        assert 0.0 <= acc1 <= acc5 <= 1.0
        assert acc5 == 1.0  # C=4 < 5: top-5 always hits

    def test_monotone_transform_invariance(self):
        # accuracy depends only on argmax ranking of logits
        model, test = self._trained()
        base = accuracies(forward_full(model, test.frames).logits, test.labels)[0]
        w = model.head.w.data * np.float32(3.0)
        from spiketrim.backbone import HeadWeights
        model.head = HeadWeights(DenseTensor(w), DenseTensor(model.head.b.data * np.float32(3.0)))
        logits = forward_full(model, test.frames).logits
        assert accuracies(logits, test.labels)[0] == base

    def test_deterministic_head(self):
        spec = SyntheticSpec(train_samples=64, test_samples=32)
        train, _ = synth_dataset(spec, 5)
        m1 = init_model(ModelConfig(seed=5))
        m2 = init_model(ModelConfig(seed=5))
        h1 = train_head(m1, train.frames, train.labels)
        h2 = train_head(m2, train.frames, train.labels)
        assert h1.w.data.tobytes() == h2.w.data.tobytes()
        assert h1.b.data.tobytes() == h2.b.data.tobytes()
