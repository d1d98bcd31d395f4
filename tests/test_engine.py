import numpy as np
import pytest
from dataclasses import replace

from spiketrim import engine, neuron, selection, uncertainty
from spiketrim.backbone import ModelConfig, StageConfig, init_model, ssa_forward
from spiketrim.data import SyntheticSpec, synth_dataset
from spiketrim.engine import (ReductionPlan, forward_full, forward_prefix,
                              forward_suffix)
from spiketrim.errors import ConfigError, ShapeError
from spiketrim.head import train_head
from spiketrim.selection import Strategy
from spiketrim.tensors import SpikeTensor
from spiketrim.uncertainty import score_tokens, uncertainty_trajectories

KINDS = ("uncert-prune", "uncert-merge", "random-prune", "low-uncert-prune", "none")


def kind_ids(value):
    """Parameter IDs spell strategy kinds with underscores, as the suite's
    recorded test IDs do."""
    return value.replace("-", "_") if isinstance(value, str) else None


def tiny_config(seed=2, **kw):
    defaults = dict(
        steps=3, in_channels=2, height=4, width=4, patch=1, num_classes=3,
        stages=(StageConfig(channels=8, blocks=1, w_scales=0.125),
                StageConfig(channels=8, blocks=2, w_scales=(0.125, 1.0))),
        insert_block="2.1", seed=seed,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def tiny_inputs(seed=2, b=6):
    rng = np.random.default_rng(seed)
    return SpikeTensor((rng.random((3, b, 2, 4, 4)) < 0.3).astype(np.uint8))


class TestForward:
    def test_shapes_and_tokens(self):
        model = init_model(tiny_config())
        res = forward_full(model, tiny_inputs())
        assert res.logits.shape == (6, 3)
        assert res.tokens.shape == (3, 6, 16, 8)

    def test_single_step_input_rejected(self):
        # frames carry every step; a [1,B,...] input is not repeated
        model = init_model(tiny_config())
        with pytest.raises(ConfigError, match="steps"):
            forward_full(model, SpikeTensor(tiny_inputs().data[:1]))

    def test_raw_array_is_spike_frames(self):
        # a plain 0/1 array is wrapped once and charged as spikes
        model = init_model(tiny_config())
        frames = tiny_inputs()
        raw, wrapped = forward_full(model, frames.data), forward_full(model, frames)
        assert raw.logits.data.tobytes() == wrapped.logits.data.tobytes()
        assert raw.ledger.entries == wrapped.ledger.entries

    def test_non_binary_input_rejected(self):
        model = init_model(tiny_config())
        with pytest.raises(ShapeError):
            forward_full(model, np.full((3, 1, 2, 4, 4), 0.5))

    def test_input_mismatch(self):
        model = init_model(tiny_config())
        with pytest.raises(ConfigError):
            forward_full(model, SpikeTensor(np.zeros((3, 1, 2, 8, 8), dtype=np.uint8)))
        with pytest.raises(ConfigError):
            forward_full(model, SpikeTensor(np.zeros((2, 1, 2, 4, 4), dtype=np.uint8)))

    def test_fixed_seed_reproducible(self):
        res1 = forward_full(init_model(tiny_config()), tiny_inputs())
        res2 = forward_full(init_model(tiny_config()), tiny_inputs())
        assert res1.logits.data.tobytes() == res2.logits.data.tobytes()
        assert res1.ledger.entries == res2.ledger.entries


class TestIdentityInvariant:
    @pytest.mark.parametrize("kind", KINDS, ids=kind_ids)
    def test_ratio_one_is_noop(self, kind):
        model = init_model(tiny_config())
        x = tiny_inputs()
        base = forward_full(model, x)
        plan = ReductionPlan(Strategy(kind=kind, seed=5), keep_ratio=1.0)
        red = forward_full(model, x, plan)
        assert red.logits.data.tobytes() == base.logits.data.tobytes()
        assert red.ledger.entries == base.ledger.entries
        assert red.tokens.data.tobytes() == base.tokens.data.tobytes()
        # the record keeps every token of every sample
        assert red.selection.anchor.tolist() == [list(range(16))] * 6
        assert red.selection.weights is None

    def test_none_strategy_ignores_ratio(self):
        model = init_model(tiny_config())
        x = tiny_inputs()
        base = forward_full(model, x)
        red = forward_full(model, x, ReductionPlan(Strategy(kind="none"), 0.5))
        assert red.logits.data.tobytes() == base.logits.data.tobytes()


class TestReducedForward:
    def _trained(self):
        spec = SyntheticSpec(train_samples=96, test_samples=32)
        train, test = synth_dataset(spec, 4)
        model = init_model(ModelConfig(seed=4))
        train_head(model, train.frames, train.labels)
        return model, test

    def test_prune_keeps_token_count(self):
        model, test = self._trained()
        plan = ReductionPlan(Strategy(kind="uncert-prune"), 0.5)
        res = forward_full(model, test.frames, plan)
        assert res.tokens.shape[2] == 64
        anchor = res.selection.anchor
        assert anchor.shape == (32, 64)
        assert ((anchor == np.arange(64)).sum(axis=1) == 32).all()
        assert ((anchor == np.arange(64)) | (anchor == -1)).all()

    def test_merge_reduces_token_count(self):
        model, test = self._trained()
        plan = ReductionPlan(Strategy(kind="uncert-merge"), 0.5)
        res = forward_full(model, test.frames, plan)
        assert res.tokens.shape[2] == 32
        anchor, weights = res.selection.anchor, res.selection.weights
        assert ((anchor == np.arange(64)).sum(axis=1) == 32).all()
        assert (anchor >= 0).all()  # merging drops no token
        assert weights.shape == (32, 64) and (weights > 0).all()

    def test_capture_provides_trajectories(self):
        # the uncertainty dump reads the prefix's trajectories
        model, test = self._trained()
        u = forward_prefix(model, test.frames).trajectories(model.head)
        assert u.shape == (4, 32, 64)
        assert (u > 0).all() and (u <= 1).all()

    def test_block_ops_monotone_in_ratio(self):
        model, test = self._trained()
        prefix = forward_prefix(model, test.frames).label
        assert prefix == "stage3.block1"
        totals = []
        for ratio in (1.0, 0.6, 0.2):
            plan = ReductionPlan(Strategy(kind="uncert-prune"), ratio)
            res = forward_full(model, test.frames, plan)
            totals.append(res.ledger.total_ops(prefix))
        assert totals[0] > totals[1] > totals[2]

    def test_random_prune_needs_no_head_scores(self):
        model = init_model(tiny_config())
        x = tiny_inputs()
        plan = ReductionPlan(Strategy(kind="random-prune", seed=3), 0.5)
        res = forward_full(model, x, plan)
        assert ((res.selection.anchor >= 0).sum(axis=1) == 8).all()
        assert res.selection.scores is None

    def test_capture_measures_insertion_input_for_any_strategy(self):
        # the dump point is the insertion block's input, independent of the
        # reduction actually applied there: the prefix's trajectories are the
        # ones a reduced pass scores
        model, test = self._trained()
        prefix = forward_prefix(model, test.frames)
        u = prefix.trajectories(model.head)
        assert u.tobytes() == uncertainty_trajectories(prefix.tokens, model.head).tobytes()
        plan = ReductionPlan(Strategy(kind="uncert-prune"), 0.5)
        for res in (forward_full(model, test.frames, plan), forward_suffix(model, prefix, plan)):
            assert res.selection.scores.data.tobytes() == score_tokens(u, lam=0.9).data.tobytes()

    def test_merge_feeds_later_stages(self):
        # merge at a stage's last block hands K = floor(r N) tokens to the
        # next stage; on a prefix that already served a pruning suffix it
        # gives the bits of a fresh full pass
        model = init_model(tiny_config(insert_block="1.0"))
        x = tiny_inputs()
        prune = ReductionPlan(Strategy(kind="uncert-prune"), 0.6)
        merge = ReductionPlan(Strategy(kind="uncert-merge"), 0.6)
        prefix = forward_prefix(model, x)
        forward_suffix(model, prefix, prune)
        split = forward_suffix(model, prefix, merge)
        assert split.tokens.shape[2] == 9
        assert split.logits.shape == (6, 3)
        assert _result_bytes(split) == _result_bytes(forward_full(model, x, merge))


@pytest.fixture(scope="module")
def trained():
    spec = SyntheticSpec(train_samples=96, test_samples=24, p_background=0.35)
    train, test = synth_dataset(spec, 6)
    model = init_model(ModelConfig(seed=6))
    train_head(model, train.frames, train.labels)
    return model, test


def _selection_bytes(sel):
    return tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes())
                 for a in (sel.anchor, sel.weights,
                           None if sel.scores is None else sel.scores.data))


def _result_bytes(res):
    return (res.logits.data.tobytes(), list(res.ledger.entries.items()),
            res.tokens.shape, res.tokens.data.tobytes(),
            _selection_bytes(res.selection))


class TestPrefixSuffix:
    @pytest.mark.parametrize("insert_block", ["1.0", "2.0", "3.0", "3.1"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_shared_prefix_equals_forward_full(self, trained, insert_block, warm):
        # one prefix serves every plan in turn, as in a sweep; each suffix must
        # give the bits of a fresh full pass, ledger insertion order included,
        # whether or not a dump filled the prefix's trajectories first
        model, test = trained
        model = replace(model, config=replace(model.config, insert_block=insert_block))
        prefix = forward_prefix(model, test.frames)
        if warm:
            prefix.trajectories(model.head)
        for kind in KINDS:
            for ratio in (1.0, 0.6, 0.2):
                plan = ReductionPlan(Strategy(kind=kind, seed=3), ratio)
                full = forward_full(model, test.frames, plan)
                split = forward_suffix(model, prefix, plan)
                assert _result_bytes(split) == _result_bytes(full), (kind, ratio)

    def test_prefix_stops_at_insertion_block(self, trained):
        model, test = trained
        prefix = forward_prefix(model, test.frames)
        full = forward_full(model, test.frames)
        assert prefix.insert == 3 and prefix.label == "stage3.block1"
        # the input of block 3.1 is block 3.0's output
        at_30 = replace(model, config=replace(model.config, insert_block="3.0"))
        block_30 = ssa_forward(forward_prefix(at_30, test.frames).tokens, model.flat_blocks[2])
        assert prefix.tokens.data.tobytes() == block_30.data.tobytes()
        assert list(prefix.ledger.entries) == [
            label for label in full.ledger.entries if not label.startswith("stage3.block1")]

    def test_suffixes_leave_prefix_untouched(self, trained):
        model, test = trained
        prefix = forward_prefix(model, test.frames)
        before = (prefix.tokens.data.tobytes(), dict(prefix.ledger.entries))
        prefix.trajectories(model.head)
        for kind in ("uncert-merge", "uncert-prune"):
            res = forward_suffix(model, prefix, ReductionPlan(Strategy(kind=kind), 0.4))
            res.ledger.add("stage1.block0.qkv", 1, 1)  # the result's ledger is its own
        after = (prefix.tokens.data.tobytes(), dict(prefix.ledger.entries))
        assert after == before

    def test_trajectories_computed_once_per_prefix(self, trained, monkeypatch):
        model, test = trained
        calls = []
        token_logits = uncertainty.token_logits

        def counting(*args, **kwargs):
            calls.append(1)
            return token_logits(*args, **kwargs)

        monkeypatch.setattr(uncertainty, "token_logits", counting)
        prefix = forward_prefix(model, test.frames)
        for kind in ("uncert-prune", "low-uncert-prune", "uncert-merge"):
            forward_suffix(model, prefix, ReductionPlan(Strategy(kind=kind), 0.5))
            prefix.trajectories(model.head)
        assert len(calls) == 1

    def test_trajectories_follow_the_head(self, trained):
        model, test = trained
        prefix = forward_prefix(model, test.frames)
        u = prefix.trajectories(model.head)
        other = init_model(ModelConfig(seed=6)).head
        assert prefix.trajectories(model.head) is u
        assert prefix.trajectories(other).tobytes() != u.tobytes()


# Names the benchmark's tracer wraps where forward_full looks them up; a
# refactor that stops calling one would silently blank its per-layer metric.
TRACED = ((engine, "score_tokens"), (engine, "build_keep_mask"),
          (engine, "pruned_ssa_batched"), (engine, "build_merge_assignment"),
          (engine, "merged_ssa"), (selection, "apply_merge"),
          (selection, "ssa_forward"), (selection, "lif_sequence"),
          (neuron, "lif_step"))
PRUNE_CALLS = {"engine.score_tokens", "engine.build_keep_mask",
               "engine.pruned_ssa_batched", "selection.ssa_forward", "neuron.lif_step"}


@pytest.mark.parametrize("kind, expected", [
    ("none", {"neuron.lif_step"}),
    ("uncert-prune", PRUNE_CALLS),
    ("low-uncert-prune", PRUNE_CALLS),
    ("random-prune", PRUNE_CALLS - {"engine.score_tokens"}),
    ("uncert-merge", {"engine.score_tokens", "engine.build_merge_assignment",
                      "engine.merged_ssa", "selection.apply_merge",
                      "selection.ssa_forward", "selection.lif_sequence",
                      "neuron.lif_step"}),
], ids=kind_ids)
def test_forward_full_calls_traced_names(monkeypatch, kind, expected):
    calls = set()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.add(name)
            return fn(*args, **kwargs)
        return wrapped

    for module, attr in TRACED:
        name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    model = init_model(tiny_config())
    forward_full(model, tiny_inputs(), ReductionPlan(Strategy(kind=kind, seed=1), 0.5))
    assert calls == expected


def test_capture_computes_token_logits_once(monkeypatch):
    # the dump's trajectories and the scores share one [T,B,N] array when the
    # dump reads the prefix that served the reduced suffix
    calls = []
    token_logits = uncertainty.token_logits

    def counting(*args, **kwargs):
        calls.append(1)
        return token_logits(*args, **kwargs)

    monkeypatch.setattr(uncertainty, "token_logits", counting)
    model = init_model(tiny_config())
    prefix = forward_prefix(model, tiny_inputs())
    res = forward_suffix(model, prefix, ReductionPlan(Strategy(kind="uncert-prune"), 0.5))
    dump = prefix.trajectories(model.head)
    assert res.selection.scores.data.tobytes() == score_tokens(dump, lam=0.9).data.tobytes()
    assert len(calls) == 1
