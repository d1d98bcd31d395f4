import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiketrim.backbone import HeadWeights
from spiketrim.errors import ContractError
from spiketrim.tensors import DenseTensor, SpikeTensor
from spiketrim.uncertainty import (evidence_from_logits, importance_score,
                                   score_tokens, trajectory_csv,
                                   trajectory_stats, uncertainty_from_evidence,
                                   uncertainty_trajectories)


class TestEvidence:
    def test_ln2_at_zero(self):
        assert evidence_from_logits(np.array([0.0])).data.item() == pytest.approx(
            0.6931472, abs=1e-6)

    def test_limits(self):
        lo = evidence_from_logits(np.array([-40.0])).data.item()
        hi = evidence_from_logits(np.array([40.0])).data.item()
        assert 0.0 <= lo < 1e-17
        assert hi == pytest.approx(40.0, abs=1e-6)

    def test_overflow_safe_extremes(self):
        out = evidence_from_logits(np.array([-1e4, 1e4], dtype=np.float32))
        assert np.isfinite(out.data).all()
        assert out.data[1].item() == pytest.approx(1e4, rel=1e-6)

    @given(st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_always_positive_scalar(self, logit):
        e = evidence_from_logits(np.array([logit], dtype=np.float64)).data.item()
        assert e >= 0.0


class TestUncertainty:
    def test_zero_logits_c10(self):
        e = evidence_from_logits(np.zeros(10))
        assert uncertainty_from_evidence(e).data.item() == pytest.approx(
            0.5906161, abs=1e-6)

    def test_zero_evidence_is_max(self):
        assert uncertainty_from_evidence(np.zeros(4)).data.item() == 1.0

    def test_concentrated_evidence(self):
        e = evidence_from_logits(np.array([40.0, -40.0]))
        assert uncertainty_from_evidence(e).data.item() == pytest.approx(
            2.0 / 42.0, abs=1e-4)

    def test_negative_evidence_rejected(self):
        with pytest.raises(ContractError):
            uncertainty_from_evidence(np.array([-0.1, 0.2]))

    def test_range_and_strict_decrease(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            e = rng.uniform(0, 5, size=6)
            u = uncertainty_from_evidence(e).data.item()
            assert 0.0 < u <= 1.0
            j = rng.integers(6)
            e2 = e.copy()
            e2[j] += rng.uniform(0.01, 1.0)
            assert uncertainty_from_evidence(e2).data.item() < u


class TestStats:
    def test_hand_values(self):
        st_ = trajectory_stats([0.2, 0.4, 0.6, 0.8])
        assert st_.mu == pytest.approx(0.5)
        assert st_.sigma == pytest.approx(0.2236068, abs=1e-6)

    def test_constant_and_single(self):
        assert trajectory_stats([0.3] * 5) == trajectory_stats([0.3] * 5)
        assert trajectory_stats([0.42]).sigma == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trajectory_stats([])


class TestScore:
    def test_lambda_derived_value(self):
        st_ = trajectory_stats([0.2, 0.4, 0.6, 0.8])
        assert importance_score(st_, 0.9) == pytest.approx(0.7012461, abs=1e-6)

    def test_lambda_zero_is_mean(self):
        st_ = trajectory_stats([0.1, 0.9])
        assert importance_score(st_, 0.0) == st_.mu

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            importance_score(trajectory_stats([0.5]), -0.1)

    def test_monotone_in_mu_and_sigma(self):
        from spiketrim.uncertainty import TokenStats
        base = importance_score(TokenStats(0.5, 0.1), 0.9)
        assert importance_score(TokenStats(0.6, 0.1), 0.9) > base
        assert importance_score(TokenStats(0.5, 0.2), 0.9) > base


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
