import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiketrim.backbone import HeadWeights
from spiketrim.tensors import DenseTensor, SpikeTensor
from spiketrim.uncertainty import (score_tokens, trajectory_csv,
                                   uncertainty_trajectories)


def silent_u(bias) -> np.ndarray:
    """U of a silent token, one per row of bias [R, C]: the token has no
    nonzero feature, so its logits are exactly the head bias."""
    bias = np.atleast_2d(np.asarray(bias, dtype=np.float32))
    r, c = bias.shape
    out = np.empty(r)
    token = SpikeTensor(np.zeros((1, 1, 1, 2), dtype=np.uint8))
    for i in range(r):
        head = HeadWeights(DenseTensor(np.ones((2, c), dtype=np.float32)),
                           DenseTensor(bias[i]))
        out[i] = uncertainty_trajectories(token, head)[0, 0, 0]
    return out


def evidence(logit) -> float:
    """Softplus evidence of one logit, read back from a one-class U = 1/(1+e)."""
    return float(1.0 / silent_u([[logit]])[0] - 1.0)


def score(traj, lam=0.9, mode="full") -> float:
    """score_tokens of one token whose [T] trajectory is traj."""
    u = np.array(traj, dtype=np.float64).reshape(-1, 1, 1)
    return float(score_tokens(u, lam, mode).data[0, 0])


class TestEvidence:
    def test_ln2_at_zero(self):
        assert evidence(0.0) == pytest.approx(0.6931472, abs=1e-6)

    def test_limits(self):
        lo, hi = evidence(-40.0), evidence(40.0)
        assert 0.0 <= lo < 1e-17
        assert hi == pytest.approx(40.0, abs=1e-6)

    def test_overflow_safe_extremes(self):
        u = silent_u([[-1e4], [1e4]])
        assert np.isfinite(u).all()
        assert u[0] == 1.0
        assert 1.0 / u[1] - 1.0 == pytest.approx(1e4, rel=1e-6)

    @given(st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_always_positive_scalar(self, logit):
        # e >= 0 exactly when the one-class U = 1 / (1 + e) is at most 1
        assert 0.0 < silent_u([[logit]])[0] <= 1.0


class TestUncertainty:
    def test_zero_logits_c10(self):
        assert silent_u(np.zeros(10))[0] == pytest.approx(0.5906161, abs=1e-6)

    def test_zero_evidence_is_max(self):
        # softplus(-1e4) is exactly 0
        assert silent_u(np.full(4, -1e4))[0] == 1.0

    def test_concentrated_evidence(self):
        assert silent_u([40.0, -40.0])[0] == pytest.approx(2.0 / 42.0, abs=1e-4)

    def test_range_and_strict_decrease(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            logits = rng.uniform(-3, 3, size=6)
            j = rng.integers(6)
            raised = logits.copy()
            raised[j] += rng.uniform(0.01, 1.0)
            u, u2 = silent_u(np.stack([logits, raised]))
            assert 0.0 < u <= 1.0
            assert u2 < u


class TestStats:
    def test_hand_values(self):
        traj = [0.2, 0.4, 0.6, 0.8]
        assert score(traj, mode="mean_only") == pytest.approx(0.5)
        assert score(traj, mode="std_only") == pytest.approx(0.2236068, abs=1e-6)

    def test_constant_and_single(self):
        assert score([0.3] * 5, mode="std_only") == score([0.3] * 5, mode="std_only")
        assert score([0.42], mode="std_only") == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_empty_rejected(self):
        # no steps, no mean: the NaN score is refused by the score tensor
        with pytest.raises(ValueError):
            score_tokens(np.zeros((0, 1, 1)))


class TestScore:
    def test_lambda_derived_value(self):
        assert score([0.2, 0.4, 0.6, 0.8], lam=0.9) == pytest.approx(0.7012461, abs=1e-6)

    def test_lambda_zero_is_mean(self):
        assert score([0.1, 0.9], lam=0.0) == score([0.1, 0.9], mode="mean_only")

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            score([0.5], lam=-0.1)

    def test_monotone_in_mu_and_sigma(self):
        # (mu, sigma) = (0.5, 0.1), (0.6, 0.1), (0.5, 0.2)
        base = score([0.4, 0.6])
        assert score([0.5, 0.7]) > base
        assert score([0.3, 0.7]) > base


def _random_head(rng, d, c):
    return HeadWeights(DenseTensor(rng.normal(size=(d, c)).astype(np.float32)),
                       DenseTensor(rng.normal(size=c).astype(np.float32)))


class TestScoreTokens:
    def test_identical_tokens_equal_scores(self):
        rng = np.random.default_rng(1)
        token = (rng.random((3, 1, 1, 6)) < 0.5).astype(np.uint8)
        x = SpikeTensor(np.repeat(token, 5, axis=2))
        scores = score_tokens(uncertainty_trajectories(x, _random_head(rng, 6, 4)))
        assert np.unique(scores.data).size == 1

    def test_zero_tokens_uniform(self):
        rng = np.random.default_rng(2)
        x = SpikeTensor(np.zeros((3, 2, 5, 6), dtype=np.uint8))
        head = HeadWeights(DenseTensor(rng.normal(size=(6, 4)).astype(np.float32)),
                           DenseTensor(np.zeros(4, dtype=np.float32)))
        scores = score_tokens(uncertainty_trajectories(x, head))
        assert np.unique(scores.data).size == 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        x = (rng.random((3, 2, 7, 6)) < 0.5).astype(np.uint8)
        head = _random_head(rng, 6, 4)
        perm = rng.permutation(7)
        s1 = score_tokens(uncertainty_trajectories(SpikeTensor(x), head)).data
        s2 = score_tokens(uncertainty_trajectories(SpikeTensor(x[:, :, perm, :]), head)).data
        assert (s2 == s1[:, perm]).all()

    def test_batch_isolation(self):
        rng = np.random.default_rng(4)
        x = (rng.random((3, 3, 5, 6)) < 0.5).astype(np.uint8)
        head = _random_head(rng, 6, 4)
        full = score_tokens(uncertainty_trajectories(SpikeTensor(x), head)).data
        solo = score_tokens(uncertainty_trajectories(SpikeTensor(x[:, 1:2]), head)).data
        assert (full[1] == solo[0]).all()

    def test_modes(self):
        rng = np.random.default_rng(5)
        x = SpikeTensor((rng.random((4, 1, 5, 6)) < 0.5).astype(np.uint8))
        head = _random_head(rng, 6, 4)
        u = uncertainty_trajectories(x, head)
        mu = u.mean(axis=0)
        sigma = np.sqrt(((u - mu) ** 2).mean(axis=0))
        assert np.allclose(score_tokens(u, mode="mean_only").data, mu.astype(np.float32))
        assert np.allclose(score_tokens(u, mode="std_only").data, sigma.astype(np.float32))
        assert np.allclose(score_tokens(u, mode="last_step").data, u[-1].astype(np.float32))
        assert np.allclose(score_tokens(u, lam=0.9).data, (mu + 0.9 * sigma).astype(np.float32))

    def test_unknown_mode(self):
        x = SpikeTensor(np.zeros((2, 1, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            score_tokens(uncertainty_trajectories(x, _random_head(np.random.default_rng(0), 3, 2)),
                         mode="median")

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = SpikeTensor((rng.random((3, 2, 4, 5)) < 0.5).astype(np.uint8))
        head = _random_head(rng, 5, 3)
        scores = score_tokens(uncertainty_trajectories(x, head), lam=0.9)
        for b in range(2):
            for i in range(4):
                traj = []
                for t in range(3):
                    logits = [sum(float(x.data[t, b, i, k]) * float(head.w.data[k, c])
                                  for k in range(5)) + float(head.b.data[c])
                              for c in range(3)]
                    ev = [math.log1p(math.exp(-abs(l))) + max(l, 0.0) for l in logits]
                    traj.append(3.0 / (3.0 + sum(ev)))
                mu = sum(traj) / 3
                sig = math.sqrt(sum((v - mu) ** 2 for v in traj) / 3)
                assert float(scores.data[b, i]) == pytest.approx(mu + 0.9 * sig, abs=1e-5)


def test_trajectory_csv_layout():
    u = np.arange(12, dtype=np.float64).reshape(2, 2, 3) / 100
    text = trajectory_csv(u)
    lines = text.strip().split("\n")
    assert lines[0] == "sample,token,t,U"
    assert len(lines) == 1 + 12
    assert lines[1] == "0,0,0,0.000000"
    assert lines[2] == "0,0,1,0.060000"
