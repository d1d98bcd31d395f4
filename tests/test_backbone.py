import hashlib
import shutil
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiketrim import backbone, selection
from spiketrim.backbone import (HeadWeights, ModelConfig, attention_core,
                                extract_patches, init_model, load_model,
                                patch_embed, save_model, ssa_forward,
                                token_logits)
from spiketrim.efficiency import SopLedger, count_attention, count_linear
from spiketrim.errors import ConfigError, ContractError, ShapeError
from spiketrim.neuron import LifParams, LifState, lif_sequence, lif_step
from spiketrim.tensorfile import read_manifest
from spiketrim.tensors import DenseTensor, SpikeTensor


def small_config(**kw):
    defaults = dict(
        steps=3, in_channels=2, height=4, width=4, patch=1, num_classes=3,
        channels=8, w_scales=((0.25,), (0.25, 0.5)),
        lif=LifParams(tau=0.9, v_th=1.0), seed=7, insert_block="2.1",
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestConfig:
    def test_patch_divisibility(self):
        with pytest.raises(ConfigError):
            small_config(height=6, patch=4)

    @pytest.mark.parametrize("sizes", [dict(channels=0), dict(in_channels=0),
                                       dict(height=-4, width=-4)],
                             ids=["channels", "in_channels", "height-width"])
    def test_sizes_positive(self, sizes):
        # a height and width of -4 would still give a 16-token grid
        with pytest.raises(ConfigError, match=">= 1"):
            small_config(**sizes)

    def test_insert_block_parse(self):
        # 'S.B' is a position in the blocks taken stage by stage: 1.0 2.0 2.1
        cfg = small_config()
        assert cfg.parse_insert() == 2
        assert init_model(cfg).flat_blocks[2].label == "stage2.block1"
        assert small_config(insert_block="1.0").parse_insert() == 0
        assert small_config(insert_block="2.0").parse_insert() == 1
        # the config rejects a block outside its layout when it is built
        for block in ("3.0", "2.2", "nonsense"):
            with pytest.raises(ConfigError):
                small_config(insert_block=block)

    @pytest.mark.parametrize("w_scales", [(), ((0.25,), ())],
                             ids=["no-stage", "empty-stage"])
    def test_every_stage_has_a_block(self, w_scales):
        with pytest.raises(ConfigError, match="at least one stage required, each with"):
            small_config(w_scales=w_scales, insert_block="1.0")


class TestInit:
    def test_deterministic(self):
        a = init_model(small_config())
        b = init_model(small_config())
        assert a.embed_w.data.tobytes() == b.embed_w.data.tobytes()
        assert a.blocks[1][0].w_q.data.tobytes() == b.blocks[1][0].w_q.data.tobytes()

    def test_seed_changes_weights(self):
        a = init_model(small_config(seed=1))
        b = init_model(small_config(seed=2))
        assert a.embed_w.data.tobytes() != b.embed_w.data.tobytes()

    def test_default_firing_regime(self):
        # default config drives responsive tokens into a sparse-burst band;
        # mean rate over firing tokens sits inside [0.05, 0.5]
        from spiketrim.data import SyntheticSpec, synth_dataset
        from spiketrim.engine import forward_prefix
        model = init_model(ModelConfig(seed=3, insert_block="2.0"))
        _, test = synth_dataset(SyntheticSpec(test_samples=64), 3)
        x = forward_prefix(model, test.frames).tokens.data  # stage 1's output [T,B,N,D]
        token_active = x.any(axis=(0, 3))
        rates = x.mean(axis=(0, 3))[token_active]
        assert 0.05 <= float(rates.mean()) <= 0.5


class TestPatchEmbed:
    def test_zero_frames(self):
        cfg = small_config()
        model = init_model(cfg)
        frames = SpikeTensor(np.zeros((3, 2, 2, 4, 4), dtype=np.uint8))
        out = patch_embed(frames, cfg.patch, model.embed_w, cfg.lif)
        assert not out.data.any()
        assert out.shape == (3, 2, 16, 8)

    def test_patch_count(self):
        cfg = ModelConfig(steps=2, in_channels=1, height=8, width=8, patch=4,
                          num_classes=2,
                          channels=4, w_scales=((0.0625,),),
                          insert_block="1.0", seed=1)
        model = init_model(cfg)
        frames = SpikeTensor(np.zeros((2, 1, 1, 8, 8), dtype=np.uint8))
        out = patch_embed(frames, 4, model.embed_w, cfg.lif)
        assert out.shape == (2, 1, 4, 4)

    def test_static_repeat_spikes_differ_across_time(self):
        # identical projected current each step, but membrane carryover makes
        # sub-threshold drive fire on later steps only:
        # membranes 0.5, 0.95, 1.355 -> spike/reset, 0.5
        lif = LifParams(tau=0.9, v_th=1.0)
        weights = DenseTensor(np.full((1, 1, 1), 0.5, dtype=np.float32))
        frames = SpikeTensor(np.ones((4, 1, 1, 1, 1), dtype=np.uint8))
        out = patch_embed(frames, 1, weights, lif)
        assert out.data[:, 0, 0, 0].tolist() == [0, 0, 1, 0]

    def test_ledger_spike_counting(self):
        cfg = small_config()
        model = init_model(cfg)
        frames = np.zeros((3, 1, 2, 4, 4), dtype=np.uint8)
        frames[0, 0, 0, 0, 0] = 1
        ledger = SopLedger()
        patch_embed(SpikeTensor(frames), 1, model.embed_w, cfg.lif, ledger)
        assert ledger.totals()[0] == 1 * 8  # nnz * D

    @pytest.mark.parametrize("kind", ["spike", "silent"])
    def test_equals_einsum_form(self, kind):
        # the per-step matmul form against the whole-sequence einsum + LIF
        # it replaced, bits and ledger
        cfg = small_config(height=8, width=8, patch=2)
        model = init_model(cfg)
        rng = np.random.default_rng(4)
        density = 0.3 if kind == "spike" else 0.0
        frames = SpikeTensor((rng.random((3, 5, 2, 8, 8)) < density).astype(np.uint8))
        ledger, expected_ledger = SopLedger(), SopLedger()
        out = patch_embed(frames, 2, model.embed_w, cfg.lif, ledger)
        expected = patch_embed_einsum(frames, 2, model.embed_w, cfg.lif, expected_ledger)
        assert out.data.tobytes() == expected.data.tobytes()
        assert ledger.entries == expected_ledger.entries
        assert out.data.any() == (kind != "silent")

    def test_bad_rank(self):
        cfg = small_config()
        model = init_model(cfg)
        with pytest.raises(ShapeError):
            patch_embed(SpikeTensor(np.zeros((3, 2, 4, 4), dtype=np.uint8)),
                        1, model.embed_w, cfg.lif)


class TestSsaForward:
    def _block(self, d=8, scale=0.5, shift=1, seed=3):
        cfg = ModelConfig(steps=2, in_channels=1, height=2, width=2, patch=1,
                          num_classes=2,
                          channels=d, w_scales=((scale,),),
                          insert_block="1.0", seed=seed, attn_shift=shift)
        return init_model(cfg).blocks[0][0]

    def test_zero_in_zero_out(self):
        block = self._block()
        x = SpikeTensor(np.zeros((2, 1, 4, 8), dtype=np.uint8))
        out = ssa_forward(x, block)
        assert not out.data.any()

    def test_binary_closure_random(self):
        rng = np.random.default_rng(0)
        block = self._block(scale=1.0)
        x = SpikeTensor((rng.random((3, 2, 4, 8)) < 0.5).astype(np.uint8))
        out = ssa_forward(x, block)
        assert out.data.max() <= 1  # SpikeTensor construction also asserts

    def test_attention_core_hand_example(self):
        q = np.array([[[1.0, 1.0]]])
        a, y = attention_core(q, q, q)
        assert a[0, 0, 0] == 2.0 and y[0, 0].tolist() == [2.0, 2.0]

    def test_ledger_reproducible(self):
        rng = np.random.default_rng(1)
        block = self._block(scale=1.0)
        x = SpikeTensor((rng.random((2, 2, 4, 8)) < 0.4).astype(np.uint8))
        l1, l2 = SopLedger(), SopLedger()
        ssa_forward(x, block, l1)
        ssa_forward(x, block, l2)
        assert l1.entries == l2.entries
        assert l1.totals()[0] > 0

    def test_dim_mismatch(self):
        block = self._block(d=8)
        with pytest.raises(ShapeError):
            ssa_forward(SpikeTensor(np.zeros((2, 1, 4, 6), dtype=np.uint8)), block)


def patch_embed_einsum(frames, patch, weights, lif, ledger=None) -> SpikeTensor:
    """The whole-sequence form: one einsum for the [T,B,N,D] current, then
    lif_sequence. The oracle for patch_embed's per-step loop."""
    patches = extract_patches(frames, patch)
    wf = weights.data.astype(np.float64)
    current = np.einsum("tbnf,nfd->tbnd", patches, wf)
    if ledger is not None:
        ledger.add("stage1.embed", spike_accumulates=count_linear(
            int(patches.sum(dtype=np.int64)), wf.shape[2]))
    return lif_sequence(lif, current)


def dense_ssa_reference(x: SpikeTensor, w, ledger=None) -> SpikeTensor:
    """The block run over all N tokens at every step: the oracle for the
    active-token path of ssa_forward."""
    t_steps, b, n, d = x.shape
    wq, wk, wv, wp = (m.data.astype(np.float64) for m in (w.w_q, w.w_k, w.w_v, w.w_proj))
    states = [LifState.zeros(w.lif, (b, n, d)) for _ in range(4)]
    out = np.zeros((t_steps, b, n, d), dtype=np.uint8)
    for t in range(t_steps):
        xt = x.data[t].astype(np.float64)
        nnz_x = int(x.data[t].sum(dtype=np.int64))
        q = lif_step(states[0], xt @ wq).astype(np.float64)
        k = lif_step(states[1], xt @ wk).astype(np.float64)
        v = lif_step(states[2], xt @ wv).astype(np.float64)
        a, y = attention_core(q, k, v)
        z = (y @ wp) * 2.0 ** (-w.shift)
        out[t] = lif_step(states[3], z + xt)
        if ledger is not None:
            ledger.add(f"{w.label}.qkv", spike_accumulates=count_linear(nnz_x, d) * 3)
            sa, macs = count_attention(int(q.sum(dtype=np.int64)), n, d)
            ledger.add(f"{w.label}.attn", spike_accumulates=sa, dense_macs=macs * b)
            ledger.add(f"{w.label}.proj", dense_macs=b * n * d * d)
    return SpikeTensor(out)


def _active_block(d=8, seed=3, scale=1.0):
    cfg = ModelConfig(steps=2, in_channels=1, height=2, width=2, patch=1,
                      num_classes=2,
                      channels=d, w_scales=((scale,),),
                      insert_block="1.0", seed=seed)
    return init_model(cfg).blocks[0][0]


def _tokens(active, t_steps=3, d=8, seed=0):
    """[T,B,N,D] spikes; token (b, i) fires at random where active[b][i]."""
    active = np.asarray(active, dtype=bool)
    rng = np.random.default_rng(seed)
    x = rng.random((t_steps,) + active.shape + (d,)) < 0.2
    x[0, ~x.any(axis=(0, 3)), 0] = True  # every active token fires at least once
    return SpikeTensor((x & active[None, :, :, None]).astype(np.uint8))


ACTIVE_CASES = {
    "all_active": np.ones((3, 8), dtype=bool),
    "all_silent": np.zeros((3, 8), dtype=bool),
    "silent_beside_full": np.array([[0] * 8, [1] * 8]),
    "single_sample": np.array([[0, 1, 1, 0, 0, 0, 1, 0]]),
    "scattered": np.array([[0, 1, 0, 0, 0, 1, 0, 0],
                           [1, 0, 1, 1, 0, 0, 1, 1],
                           [0, 0, 0, 0, 0, 0, 0, 1]]),
}


class TestActiveTokens:
    """ssa_forward runs only on active tokens; the dense loop is the oracle."""

    @pytest.mark.parametrize("case", sorted(ACTIVE_CASES))
    def test_equals_dense_block(self, case):
        x = _tokens(ACTIVE_CASES[case])
        assert (x.data.any(axis=(0, 3)) == ACTIVE_CASES[case]).all()
        block = _active_block()
        got_ledger, ref_ledger = SopLedger(), SopLedger()
        got = ssa_forward(x, block, got_ledger)
        ref = dense_ssa_reference(x, block, ref_ledger)
        assert got.data.tobytes() == ref.data.tobytes()
        assert got_ledger.entries == ref_ledger.entries
        if x.data.any():  # non-vacuous: attention ran on live queries
            assert ref_ledger.entries["stage1.block0.attn"][0] > 0

    def test_all_silent_charges_structurally(self):
        x = _tokens(np.zeros((2, 8), dtype=bool))
        ledger = SopLedger()
        out = ssa_forward(x, _active_block(), ledger)
        assert out.shape == x.shape and not out.data.any()
        # 3 steps of full-N attention and projection, nothing spike-driven
        assert ledger.entries["stage1.block0.attn"] == (0, 3 * 2 * 8 * 8 * 8)
        assert ledger.entries["stage1.block0.proj"] == (0, 3 * 2 * 8 * 8 * 8)

    @pytest.mark.parametrize("case", sorted(ACTIVE_CASES))
    def test_pruned_block_equals_dense(self, case, monkeypatch):
        x = _tokens(ACTIVE_CASES[case], seed=1)
        b, n = x.shape[1:3]
        anchor = np.full((b, n), -1, dtype=np.int64)
        kept = [0, 1, 5, 7]
        anchor[:, kept] = kept
        block = _active_block()
        got_ledger, ref_ledger = SopLedger(), SopLedger()
        got = selection.pruned_ssa_batched(x, anchor, block, got_ledger)
        monkeypatch.setattr(selection, "ssa_forward", dense_ssa_reference)
        ref = selection.pruned_ssa_batched(x, anchor, block, ref_ledger)
        assert got.data.tobytes() == ref.data.tobytes()
        assert got_ledger.entries == ref_ledger.entries

    @pytest.mark.parametrize("case", sorted(ACTIVE_CASES))
    def test_merged_block_equals_dense(self, case, monkeypatch):
        x = _tokens(ACTIVE_CASES[case], seed=2)
        b, n = x.shape[1:3]
        scores = DenseTensor(np.random.default_rng(5).random((b, n)).astype(np.float32))
        anchor, weights = selection.build_merge_assignment(scores, x, 0.5)
        block = _active_block()
        lif = LifParams(tau=0.9, v_th=0.5)
        got_ledger, ref_ledger = SopLedger(), SopLedger()
        got = selection.merged_ssa(x, anchor, weights, block, lif, got_ledger)
        monkeypatch.setattr(selection, "ssa_forward", dense_ssa_reference)
        ref = selection.merged_ssa(x, anchor, weights, block, lif, ref_ledger)
        assert got.data.tobytes() == ref.data.tobytes()
        assert got_ledger.entries == ref_ledger.entries

    @given(density=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_random_density_equals_dense(self, density, seed):
        rng = np.random.default_rng(seed)
        x = _tokens(rng.random((3, 8)) < density, seed=seed)
        block = _active_block(seed=seed % 7 + 1)
        got_ledger, ref_ledger = SopLedger(), SopLedger()
        got = ssa_forward(x, block, got_ledger)
        ref = dense_ssa_reference(x, block, ref_ledger)
        assert got.data.tobytes() == ref.data.tobytes()
        assert got_ledger.entries == ref_ledger.entries


def _count_attention_samples(monkeypatch) -> list:
    """Wrap backbone.attention_core; the list gets each call's sample count."""
    seen = []

    def counting(q, k, v):
        seen.append(q.shape[0])
        return attention_core(q, k, v)

    monkeypatch.setattr(backbone, "attention_core", counting)
    return seen


def _query_on_channel0_block():
    """Q fires exactly where channel 0 spikes (w_q row 0 is 1.0 = v_th, every
    other row 0), so a test sets each sample's queries through its input."""
    block = _active_block()
    w_q = np.zeros(block.w_q.shape, dtype=np.float32)
    w_q[0] = 1.0
    return replace(block, w_q=DenseTensor(w_q))


class TestSilentQueries:
    """A sample whose Q never fires skips K/V, attention and projection; the
    dense loop is the oracle."""

    def _mixed_batch(self):
        # sample 0 queries, 1 is active but never queries, 2 queries only at
        # the last step, 3 is silent
        x = _tokens(np.array([[1, 1, 0, 1, 0, 0, 1, 0], [0, 1, 1, 0, 1, 1, 0, 1],
                              [1, 0, 0, 1, 1, 0, 0, 0], [0] * 8], dtype=bool),
                    seed=4).data.copy()
        x[..., 0] = 0
        x[:2, 0, :4, 0] = 1
        x[-1, 2, [0, 3], 0] = 1
        return SpikeTensor(x)

    def test_mixed_batch_equals_dense(self, monkeypatch):
        x = self._mixed_batch()
        block = _query_on_channel0_block()
        ref_ledger, got_ledger = SopLedger(), SopLedger()
        ref = dense_ssa_reference(x, block, ref_ledger)
        seen = _count_attention_samples(monkeypatch)
        got = ssa_forward(x, block, got_ledger)
        assert got.data.tobytes() == ref.data.tobytes()
        assert got_ledger.entries == ref_ledger.entries
        assert seen == [2] * x.shape[0]  # samples 0 and 2, at every step
        # an unqueried sample's output current is x_t, so with v_th 1 the
        # block passes its spikes through unchanged
        assert (got.data[:, 1] == x.data[:, 1]).all() and x.data[:, 1].any()
        # non-vacuous: attention changed a queried sample's spikes
        assert (got.data[:, 0] != x.data[:, 0]).any()

    def test_last_step_query_equals_dense(self, monkeypatch):
        x = self._mixed_batch()
        x = SpikeTensor(x.data[:, 2:3].copy())
        block = _query_on_channel0_block()
        ref_ledger, got_ledger = SopLedger(), SopLedger()
        ref = dense_ssa_reference(x, block, ref_ledger)
        seen = _count_attention_samples(monkeypatch)
        got = ssa_forward(x, block, got_ledger)
        assert got.data.tobytes() == ref.data.tobytes()
        assert got_ledger.entries == ref_ledger.entries
        assert seen == [1] * x.shape[0]
        # 2 queried tokens x D columns, each against N keys, all at the last step
        assert not x.data[:-1, ..., 0].any()
        assert got_ledger.entries["stage1.block0.attn"][0] == 2 * 8 * 8

    @pytest.mark.parametrize("case", sorted(ACTIVE_CASES))
    def test_quiet_block_skips_attention(self, case, monkeypatch):
        # w_scale 0.0625, D=8, two steps: a Q membrane reaches at most
        # 8 * 0.0625 * (1 + 0.9) = 0.95 < v_th, so no sample can query
        x = _tokens(ACTIVE_CASES[case], t_steps=2, seed=5)
        block = _active_block(scale=0.0625)
        ref_ledger, got_ledger = SopLedger(), SopLedger()
        ref = dense_ssa_reference(x, block, ref_ledger)
        seen = _count_attention_samples(monkeypatch)
        got = ssa_forward(x, block, got_ledger)
        assert got.data.tobytes() == ref.data.tobytes() == x.data.tobytes()
        assert got_ledger.entries == ref_ledger.entries
        assert seen == [0, 0]

    def test_default_quiet_blocks_skip_attention(self, monkeypatch):
        # the default model's w_scale 0.0625 blocks on real stage-1 tokens
        from spiketrim.data import SyntheticSpec, synth_dataset
        model = init_model(ModelConfig(seed=3))
        _, test = synth_dataset(SyntheticSpec(test_samples=32), 3)
        cfg = model.config
        # blocks 1.0, 2.0 and 3.0 each pass their input through unchanged,
        # so every one of them, and block 3.1, sees the embedding
        x = patch_embed(test.frames, cfg.patch, model.embed_w, cfg.lif)
        seen = _count_attention_samples(monkeypatch)
        for block in model.flat_blocks[:3]:
            assert ssa_forward(x, block).data.tobytes() == x.data.tobytes()
        assert seen == [0] * 3 * model.config.steps
        seen.clear()
        ssa_forward(x, model.flat_blocks[3])
        assert seen == [32] * model.config.steps


class TestTokenLogits:
    def test_zero_gives_bias(self):
        head = HeadWeights(DenseTensor(np.ones((3, 2), dtype=np.float32)),
                           DenseTensor(np.array([0.5, -1.0], dtype=np.float32)))
        z = SpikeTensor(np.zeros((4, 3), dtype=np.uint8))
        logits = token_logits(z, head)
        assert (logits.data == np.array([0.5, -1.0], dtype=np.float32)).all()

    def test_identity_head(self):
        head = HeadWeights(DenseTensor(np.eye(3, dtype=np.float32)),
                           DenseTensor(np.zeros(3, dtype=np.float32)))
        z = SpikeTensor(np.array([[1, 0, 1]], dtype=np.uint8))
        assert token_logits(z, head).data.tolist() == [[1.0, 0.0, 1.0]]

    def test_row_sums(self):
        head = HeadWeights(
            DenseTensor(np.array([[1, 2], [4, 8], [16, 32]], dtype=np.float32)),
            DenseTensor(np.zeros(2, dtype=np.float32)))
        z = SpikeTensor(np.array([1, 0, 1], dtype=np.uint8))
        assert token_logits(z, head).data.tolist() == [17.0, 34.0]

    def test_dim_mismatch(self):
        head = HeadWeights(DenseTensor(np.ones((3, 2), dtype=np.float32)),
                           DenseTensor(np.zeros(2, dtype=np.float32)))
        with pytest.raises(ShapeError):
            token_logits(SpikeTensor(np.zeros((4,), dtype=np.uint8)), head)

    def test_live_rows_only(self):
        # silent rows are exactly b (a -0.0 bias comes out as 0.0 + b does);
        # live rows equal the ascending-index loop bit for bit
        rng = np.random.default_rng(8)
        head = HeadWeights(DenseTensor(rng.normal(size=(6, 3)).astype(np.float32)),
                           DenseTensor(np.array([0.25, -0.0, -1.5], dtype=np.float32)))
        z = (rng.random((4, 2, 5, 6)) < 0.3).astype(np.uint8)
        z[:, :, 1] = 0
        z[2] = 0
        live = z.any(axis=-1)
        assert live.any() and not live.all()
        got = token_logits(SpikeTensor(z), head).data
        ref = np.zeros(z.shape[:-1] + (3,), dtype=np.float64)
        for k in range(6):
            ref += z[..., k : k + 1].astype(np.float64) * head.w.data[k].astype(np.float64)
        ref += head.b.data.astype(np.float64)
        assert got.tobytes() == ref.astype(np.float32).tobytes()
        assert (got[~live] == head.b.data).all()

    def test_real_valued_rows(self):
        rng = np.random.default_rng(9)
        head = HeadWeights(DenseTensor(rng.normal(size=(4, 2)).astype(np.float32)),
                           DenseTensor(rng.normal(size=2).astype(np.float32)))
        z = rng.normal(size=(5, 4)).astype(np.float32)
        z[3] = 0.0
        ref = np.zeros((5, 2), dtype=np.float64)
        for k in range(4):
            ref += z[:, k : k + 1].astype(np.float64) * head.w.data[k].astype(np.float64)
        ref += head.b.data.astype(np.float64)
        got = token_logits(DenseTensor(z), head).data
        assert got.tobytes() == ref.astype(np.float32).tobytes()


class TestSerialization:
    def test_roundtrip_bitwise(self, tmp_path):
        # the second config sets every field away from its default and
        # apart from the others, so a wrong manifest key or field fails
        every_field = small_config(steps=5, in_channels=3, height=4, width=6, patch=2,
                                   num_classes=6, lif=LifParams(tau=0.8, v_th=0.75),
                                   seed=11, embed_scale=0.5, attn_shift=2)
        assert all(getattr(every_field, f.name) != getattr(ModelConfig(), f.name)
                   for f in fields(ModelConfig))
        for i, cfg in enumerate((small_config(), every_field)):
            model = init_model(cfg)
            # overwrite the head with non-grid reals like a trained one
            rng = np.random.default_rng(9)
            c = cfg.num_classes
            model.head = HeadWeights(
                DenseTensor(rng.normal(size=(8, c)).astype(np.float32)),
                DenseTensor(rng.normal(size=c).astype(np.float32)))
            save_model(model, tmp_path / str(i))
            back = load_model(tmp_path / str(i))
            assert back.config == model.config
            assert back.embed_w.data.tobytes() == model.embed_w.data.tobytes()
            assert back.head.w.data.tobytes() == model.head.w.data.tobytes()
            assert back.head.b.data.tobytes() == model.head.b.data.tobytes()
            for blk, orig in zip(back.flat_blocks, model.flat_blocks, strict=True):
                for name in ("w_q", "w_k", "w_v", "w_proj"):
                    assert (getattr(blk, name).data.tobytes()
                            == getattr(orig, name).data.tobytes())

    @staticmethod
    def _loads_with_legacy_lines(tmp_path, legacy):
        # every weight comes from the .spkt files, so a legacy line that the
        # layout satisfies is ignored and the logits keep their bits
        from spiketrim.data import SyntheticSpec
        from spiketrim.engine import forward_full
        from spiketrim.sweep import prepared_model
        spec = SyntheticSpec(train_samples=32, test_samples=16)
        model, _, test = prepared_model(ModelConfig(seed=2), spec, 2)
        save_model(model, tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.txt"
        lines = manifest.read_text().splitlines() + legacy
        manifest.write_text("\n".join(sorted(lines)) + "\n")
        back = load_model(tmp_path / "m")

        def sha(m):
            return hashlib.sha256(forward_full(m, test.frames).logits.data.tobytes()).hexdigest()

        assert sha(back) == sha(model)

    def test_legacy_embed_init_line_loads(self, tmp_path):
        # manifests written before embed_init was removed carry embed_init=sign
        self._loads_with_legacy_lines(tmp_path, ["embed_init=sign"])

    def test_legacy_downsample_lines_load(self, tmp_path):
        # manifests written while stages had an entry transform carry
        # stageN.downsample=1 for each of the default model's three stages
        self._loads_with_legacy_lines(tmp_path, [f"stage{s}.downsample=1" for s in (1, 2, 3)])


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    directory = tmp_path_factory.mktemp("model")
    save_model(init_model(small_config(steps=2, in_channels=1, height=2, width=2,
                                       num_classes=2, channels=4)), directory)
    return directory


# the saved keys, a stage beyond the saved layout, and a legacy key
_MODEL_KEYS = (["format", "seed", "steps", "in_channels", "height", "width", "patch",
                "classes", "tau", "vth", "embed_scale", "attn_shift", "insert_block",
                "n_stages", "stage1.downsample"]
               + [f"stage{s}.{key}" for s in (1, 2, 3)
                  for key in ("channels", "blocks", "w_scales")])
# fixed alphabets keep hypothesis from building its unicode tables
_VALUES = st.one_of(st.integers(0, 6).map(str), st.integers().map(str),
                    st.floats().map(repr), st.text("0123456789.-e_ =#xé", max_size=8))


@settings(max_examples=50, deadline=None)
@given(drop=st.sets(st.sampled_from(_MODEL_KEYS), max_size=1),
       change=st.dictionaries(st.sampled_from(_MODEL_KEYS), _VALUES, max_size=3),
       extra=st.one_of(st.just(""), st.text("01.=#\nxé", max_size=12)))
def test_any_model_manifest_loads_or_raises_contract_errors(tiny_model, drop, change,
                                                            extra):
    # valid weight files under a valid, mangled or arbitrary manifest; a block
    # file that the layout names but the directory lacks is FileNotFoundError
    entries = {k: v for k, v in read_manifest(tiny_model / "manifest.txt").items()
               if k not in drop}
    entries.update(change)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for path in tiny_model.glob("*.spkt"):
            shutil.copy(path, directory / path.name)
        text = "".join(f"{k}={v}\n" for k, v in entries.items()) + extra
        (directory / "manifest.txt").write_bytes(text.encode("utf-8"))
        try:
            model = load_model(directory)
        except (ShapeError, ContractError, ConfigError, FileNotFoundError):
            return
    cfg, d = model.config, model.config.channels
    n_tokens = (cfg.height // cfg.patch) * (cfg.width // cfg.patch)
    assert model.embed_w.shape == (n_tokens, cfg.patch ** 2 * cfg.in_channels, d)
    assert [len(stage) for stage in model.blocks] == [len(s) for s in cfg.w_scales]
    assert all(getattr(blk, name).shape == (d, d) for blk in model.flat_blocks
               for name in ("w_q", "w_k", "w_v", "w_proj"))
    assert model.head.w.shape == (d, cfg.num_classes)
    assert model.head.b.shape == (cfg.num_classes,)
