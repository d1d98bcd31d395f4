import numpy as np
import pytest

from spiketrim.backbone import ModelConfig, init_model, ssa_forward
from spiketrim.efficiency import SopLedger
from spiketrim.neuron import LifParams
from spiketrim.rng import stream
from spiketrim.selection import (Strategy, apply_merge, build_keep_mask,
                                 build_merge_assignment, mask_csv, merged_ssa,
                                 pruned_ssa_batched, random_keys)
from spiketrim.tensors import DenseTensor, SpikeTensor


def _block(d=8, scale=1.0, seed=3):
    cfg = ModelConfig(steps=2, in_channels=1, height=2, width=2, patch=1,
                      num_classes=2,
                      channels=d, w_scales=((scale,),),
                      insert_block="1.0", seed=seed)
    return init_model(cfg).blocks[0][0]


def _keep(n, kept, b=1):
    """Prune record keeping the same token list in each of b samples."""
    anchor = np.full((b, n), -1, dtype=np.int64)
    anchor[:, kept] = kept
    return anchor


def _kept(row):
    return np.flatnonzero(row >= 0).tolist()


def _members(anchor_row, a):
    """[anchor] + its members ascending, the order of a group's weights."""
    return [a] + [j for j in np.flatnonzero(anchor_row == a).tolist() if j != a]


class TestStrategy:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Strategy(kind="prune_hard")

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            Strategy(kind="uncert-prune", lam=-1.0)

    def test_unknown_score_mode(self):
        # rejected when the plan is built, before any prefix runs
        for kind in ("random-prune", "uncert-prune"):
            with pytest.raises(ValueError, match="score mode"):
                Strategy(kind=kind, score_mode="bogus")


class TestKeepMask:
    def test_floor_arithmetic(self):
        scores = np.random.default_rng(0).random((1, 10)).astype(np.float32)
        anchor = build_keep_mask(scores, 0.6)
        assert len(_kept(anchor[0])) == 6

    def test_keep_all(self):
        anchor = build_keep_mask(np.zeros((1, 5), dtype=np.float32), 1.0)
        assert anchor.tolist() == [[0, 1, 2, 3, 4]]

    def test_derived_tie_cases(self):
        # low-uncert-prune keeps the top negated scores
        scores = np.array([[0.9, 0.1, 0.5, 0.5, 0.3]], dtype=np.float32)
        hi = build_keep_mask(scores, 0.6)
        lo = build_keep_mask(-scores, 0.6)
        assert hi.tolist() == [[0, -1, 2, 3, -1]]
        assert lo.tolist() == [[-1, 1, 2, -1, 4]]

    def test_zero_keep_rejected(self):
        with pytest.raises(ValueError):
            build_keep_mask(np.zeros((1, 3), dtype=np.float32), 0.2)

    def test_random_deterministic_and_per_sample(self):
        m1 = build_keep_mask(random_keys(99, 3, 12), 0.5)
        m2 = build_keep_mask(random_keys(99, 3, 12), 0.5)
        assert (m1 == m2).all()
        assert len({tuple(row) for row in m1.tolist()}) > 1  # samples differ
        other = build_keep_mask(random_keys(100, 3, 12), 0.5)
        assert (m1 != other).any()

    def test_random_rows_equal_per_sample_streams(self):
        # one batched draw equals each sample's own seeded stream
        for b in (1, 3, 256):
            for n in (1, 2, 64, 257):
                keys = random_keys(b + n, b, n)
                for ratio in (0.01, 0.3, 1.0):
                    if ratio * n < 1:
                        continue
                    anchor = build_keep_mask(keys, ratio)
                    k = int(ratio * n)
                    for m in range(b):
                        rows = stream(b + n, f"random_prune/{m}").sample_without_replacement(n, k)
                        assert _kept(anchor[m]) == rows.tolist(), (b, n, ratio, m)

    def test_mask_invariants(self):
        # every row keeps floor(ratio * N) tokens at their own index, the rest -1
        scores = np.random.default_rng(10).random((4, 10)).astype(np.float32)
        for keys in (scores, -scores, random_keys(1, 4, 10)):
            anchor = build_keep_mask(keys, 0.75)
            assert anchor.shape == (4, 10) and anchor.dtype == np.int64
            own = anchor == np.arange(10)
            assert (own.sum(axis=1) == 7).all()
            assert (anchor[~own] == -1).all()


class TestPrunedSsa:
    def _x(self, rng, shape=(2, 2, 4, 8)):
        return SpikeTensor((rng.random(shape) < 0.5).astype(np.uint8))

    def test_full_mask_identity(self):
        rng = np.random.default_rng(1)
        block = _block()
        x = self._x(rng)
        a = pruned_ssa_batched(x, _keep(4, [0, 1, 2, 3], b=2), block)
        b = ssa_forward(x, block)
        assert a.data.tobytes() == b.data.tobytes()

    def test_full_mask_ledger_equal(self):
        rng = np.random.default_rng(2)
        block = _block()
        x = self._x(rng)
        l1, l2 = SopLedger(), SopLedger()
        pruned_ssa_batched(x, _keep(4, [0, 1, 2, 3], b=2), block, l1)
        ssa_forward(x, block, l2)
        assert l1.entries == l2.entries

    def test_pass_through_rows(self):
        rng = np.random.default_rng(3)
        block = _block()
        x = self._x(rng)
        out = pruned_ssa_batched(x, _keep(4, [1, 3], b=2), block)
        assert (out.data[:, :, 0, :] == x.data[:, :, 0, :]).all()
        assert (out.data[:, :, 2, :] == x.data[:, :, 2, :]).all()

    def test_ops_strictly_less(self):
        rng = np.random.default_rng(4)
        block = _block()
        x = self._x(rng, (3, 2, 6, 8))
        full, part = SopLedger(), SopLedger()
        ssa_forward(x, block, full)
        pruned_ssa_batched(x, _keep(6, [0, 2, 5], b=2), block, part)
        assert part.total_ops() < full.total_ops()

    def test_batched_equals_per_sample_loop(self):
        rng = np.random.default_rng(5)
        block = _block()
        x = self._x(rng, (3, 4, 6, 8))
        anchor = np.concatenate([_keep(6, sorted(rng.choice(6, size=3, replace=False).tolist()))
                                 for _ in range(4)])
        batched = pruned_ssa_batched(x, anchor, block)
        for b in range(4):
            solo = pruned_ssa_batched(SpikeTensor(x.data[:, b : b + 1]), anchor[b : b + 1], block)
            assert (batched.data[:, b] == solo.data[:, 0]).all()

    def test_mask_shared_across_time(self):
        # the same keep set selects every timestep: row equality per t
        rng = np.random.default_rng(6)
        block = _block()
        x = self._x(rng)
        out = pruned_ssa_batched(x, _keep(4, [0, 2], b=2), block)
        for t in range(x.shape[0]):
            assert (out.data[t, :, (1, 3), :] == x.data[t, :, (1, 3), :]).all()


class TestMerge:
    def test_identical_features_min_anchor_and_uniform(self):
        feats = SpikeTensor(np.ones((2, 1, 4, 3), dtype=np.uint8))
        scores = DenseTensor(np.array([[0.1, 0.9, 0.8, 0.2]], dtype=np.float32))
        anchor, weights = build_merge_assignment(scores, feats, 0.5)
        # identical sims -> smaller anchor index
        assert anchor.tolist() == [[1, 1, 2, 1]]
        w = weights[0, _members(anchor[0], 1)]
        assert w == pytest.approx(np.full(3, 1 / 3), abs=1e-6)  # identical sims

    def test_no_member_weight_is_one(self):
        feats = SpikeTensor(np.ones((2, 1, 4, 3), dtype=np.uint8))
        scores = DenseTensor(np.array([[0.1, 0.9, 0.8, 0.2]], dtype=np.float32))
        anchor, weights = build_merge_assignment(scores, feats, 0.5)
        assert weights[0, 2] == 1.0
        merged = apply_merge(feats, anchor, weights)
        assert (merged.data[:, 0, 1, :] == 1.0).all()  # anchor == itself

    def test_two_way_softmax_weights(self):
        feats = np.zeros((1, 1, 2, 2), dtype=np.uint8)
        feats[0, 0, 0] = [1, 0]
        feats[0, 0, 1] = [0, 1]
        scores = DenseTensor(np.array([[1.0, 0.0]], dtype=np.float32))
        anchor, weights = build_merge_assignment(scores, SpikeTensor(feats), 0.5)
        assert weights[0, 0] == pytest.approx(0.7310586, abs=1e-6)
        assert weights[0, 1] == pytest.approx(0.2689414, abs=1e-6)
        merged = apply_merge(SpikeTensor(feats), anchor, weights)
        assert merged.data[0, 0, 0].tolist() == pytest.approx([0.7310586, 0.2689414], abs=1e-6)

    def test_weight_normalization_and_convexity(self):
        rng = np.random.default_rng(7)
        feats = SpikeTensor((rng.random((3, 2, 10, 4)) < 0.5).astype(np.uint8))
        scores = DenseTensor(rng.random((2, 10)).astype(np.float32))
        anchor, weights = build_merge_assignment(scores, feats, 0.4)
        merged = apply_merge(feats, anchor, weights)
        for m in range(2):
            for ai, a in enumerate(np.flatnonzero(anchor[m] == np.arange(10))):
                group = _members(anchor[m], a)
                assert weights[m, group].sum() == pytest.approx(1.0, abs=1e-6)
                vals = feats.data[:, m][:, group, :].astype(np.float64)
                assert (merged.data[:, m, ai, :] >= vals.min(axis=1) - 1e-6).all()
                assert (merged.data[:, m, ai, :] <= vals.max(axis=1) + 1e-6).all()

    def test_every_non_anchor_assigned_once(self):
        rng = np.random.default_rng(8)
        feats = SpikeTensor((rng.random((2, 1, 8, 4)) < 0.5).astype(np.uint8))
        scores = DenseTensor(rng.random((1, 8)).astype(np.float32))
        anchor, _ = build_merge_assignment(scores, feats, 0.5)
        anchors = np.flatnonzero(anchor[0] == np.arange(8))
        assert len(anchors) == 4
        assert np.isin(anchor[0], anchors).all()  # each token names one anchor

    def test_ratio_bounds(self):
        feats = SpikeTensor(np.ones((1, 1, 4, 2), dtype=np.uint8))
        scores = DenseTensor(np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            build_merge_assignment(scores, feats, 1.0)

    def test_zero_feature_cosine_zero(self):
        feats = np.zeros((1, 1, 3, 2), dtype=np.uint8)
        feats[0, 0, 0] = [1, 1]
        feats[0, 0, 1] = [1, 0]
        # token 2 all-zero -> cosine 0 to every anchor -> joins smaller anchor
        scores = DenseTensor(np.array([[0.9, 0.8, 0.1]], dtype=np.float32))
        anchor, _ = build_merge_assignment(scores, SpikeTensor(feats), 0.67)
        assert anchor[0, 2] == 0

    def test_merged_ssa_reduces_tokens(self):
        rng = np.random.default_rng(9)
        block = _block()
        feats = SpikeTensor((rng.random((2, 2, 4, 8)) < 0.5).astype(np.uint8))
        scores = DenseTensor(rng.random((2, 4)).astype(np.float32))
        anchor, weights = build_merge_assignment(scores, feats, 0.5)
        out = merged_ssa(feats, anchor, weights, block, LifParams())
        assert out.shape == (2, 2, 2, 8)

    def test_matches_per_group_loop(self):
        # reference: the dict-based per-anchor loop the batched form replaced,
        # with its per-group `w.sum()` and einsum
        rng = np.random.default_rng(12)
        cases = [((rng.random((4, 3, 24, 6)) < 0.3), (0.8, 0.4, 0.2))]
        # one group of more than 128 members, where numpy's pairwise sum
        # recurses: the silent majority joins the first anchor
        big = rng.random((4, 2, 160, 8)) < 0.3
        big &= (rng.random((2, 160)) < 0.15)[None, :, :, None]
        cases.append((big, (0.05,)))
        # samples with different group-size mixes: dense, silent, sparse
        mixed = rng.random((4, 3, 48, 8)) < np.array([0.6, 0.0, 0.05])[:, None, None]
        cases.append((mixed, (0.5, 0.1)))
        # an odd step count, whose time means are not dyadic
        cases.append(((rng.random((3, 2, 40, 5)) < 0.4), (0.3,)))
        sizes = set()
        for spikes, ratios in cases:
            feats = SpikeTensor(spikes.astype(np.uint8))
            t, b, n, _ = feats.shape
            scores = DenseTensor(rng.random((b, n)).astype(np.float32))
            for ratio in ratios:
                anchor, weights = build_merge_assignment(scores, feats, ratio)
                merged = apply_merge(feats, anchor, weights).data
                for m in range(b):
                    zbar = feats.data[:, m].astype(np.float64).mean(axis=0)
                    norms = np.sqrt((zbar**2).sum(axis=-1))
                    xm = feats.data[:, m].astype(np.float64)
                    anchors = np.flatnonzero(anchor[m] == np.arange(n))
                    for ai, a in enumerate(anchors):
                        group = _members(anchor[m], a)
                        sizes.add(len(group))
                        sims = [1.0 if j == a else
                                0.0 if norms[j] == 0.0 or norms[a] == 0.0 else
                                float(zbar[a] @ zbar[j] / (norms[a] * norms[j]))
                                for j in group]
                        w = np.exp(np.asarray(sims, dtype=np.float64))
                        w /= w.sum()
                        assert weights[m, group].tobytes() == w.tobytes()
                        ref = np.einsum("j,tjd->td", w, xm[:, group]).astype(np.float32)
                        assert merged[:, m, ai].tobytes() == ref.tobytes()
        assert max(sizes) > 128 and {1, 2, 8} <= sizes

    def test_apply_merge_accumulation_order(self):
        # weights chosen so that three float64 orders of one group's sum round
        # to different float32 values: only anchor first, then members
        # ascending, gives 1 + 2^-23
        ulp = 2.0**-52
        w_anchor, w0, w1 = 1 + 2.0**-24 - ulp, 0.5 * ulp, ulp
        pinned = (w_anchor + w0) + w1
        assert np.float32(pinned) == np.float32(1 + 2.0**-23)
        assert np.float32((w_anchor + w1) + w0) == np.float32((w0 + w1) + w_anchor) == 1.0
        anchor = np.array([[2, 2, 2]])
        weights = np.array([[w0, w1, w_anchor]])
        merged = apply_merge(SpikeTensor(np.ones((2, 1, 3, 4), dtype=np.uint8)),
                             anchor, weights)
        assert (merged.data == np.float32(pinned)).all()

    def test_apply_merge_charges_every_token_once(self):
        rng = np.random.default_rng(13)
        feats = SpikeTensor((rng.random((3, 2, 10, 4)) < 0.5).astype(np.uint8))
        scores = DenseTensor(rng.random((2, 10)).astype(np.float32))
        anchor, weights = build_merge_assignment(scores, feats, 0.4)
        ledger = SopLedger()
        apply_merge(feats, anchor, weights, ledger, label="m")
        assert ledger.entries["m"] == (0, 3 * 2 * 10 * 4)


def test_mask_csv_layout():
    text = mask_csv(_keep(4, [0, 2]))
    lines = text.strip().split("\n")
    assert lines[0] == "sample,token,kept,anchor"
    assert lines[1:] == ["0,0,1,0", "0,1,0,-1", "0,2,1,2", "0,3,0,-1"]
    merged = mask_csv(np.array([[1, 1, 2, 1]]))
    assert merged.strip().split("\n")[1:] == ["0,0,0,1", "0,1,1,1", "0,2,1,2", "0,3,0,1"]
