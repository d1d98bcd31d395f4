import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiketrim.data import (Dataset, SyntheticSpec, bayes_accuracy,
                            load_dataset, save_dataset, signature_positions,
                            synth_dataset)
from spiketrim.errors import ConfigError, ContractError, ShapeError
from spiketrim.tensorfile import read_manifest


class TestSpec:
    def test_probability_ordering(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(p_signal=0.1, p_background=0.1)

    def test_signature_capacity(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(grid=2, classes=4, signature_tokens=2)

    def test_token_count(self):
        assert SyntheticSpec(grid=8).n_tokens == 64


class TestGeneration:
    def test_byte_identical_repeat(self):
        spec = SyntheticSpec(train_samples=16, test_samples=8)
        a_train, a_test = synth_dataset(spec, 11)
        b_train, b_test = synth_dataset(spec, 11)
        assert a_train.frames.data.tobytes() == b_train.frames.data.tobytes()
        assert a_test.frames.data.tobytes() == b_test.frames.data.tobytes()
        assert (a_train.labels == b_train.labels).all()

    def test_splits_differ(self):
        spec = SyntheticSpec(train_samples=16, test_samples=16)
        train, test = synth_dataset(spec, 11)
        assert train.frames.data.tobytes() != test.frames.data.tobytes()

    def test_signature_positions_disjoint_and_shared(self):
        spec = SyntheticSpec()
        sig = signature_positions(spec, 4)
        seen = set()
        for c, pos in sig.items():
            assert len(pos) == spec.signature_tokens
            assert not (seen & set(pos))
            seen |= set(pos)
        train, test = synth_dataset(spec, 4)
        assert train.signature_positions == test.signature_positions == sig

    def test_signal_rate_separation(self):
        spec = SyntheticSpec(train_samples=64, test_samples=8)
        train, _ = synth_dataset(spec, 2)
        frames = train.frames.data.reshape(spec.steps, 64, spec.channels, -1)
        hot_rates, bg_rates = [], []
        for m in range(64):
            hot = list(train.signature_positions[int(train.labels[m])])
            bg = [i for i in range(spec.n_tokens) if i not in hot]
            hot_rates.append(frames[:, m, :, hot].mean())
            bg_rates.append(frames[:, m, :, bg].mean())
        assert np.mean(hot_rates) == pytest.approx(0.9, abs=0.03)
        assert np.mean(bg_rates) == pytest.approx(0.1, abs=0.02)

    def test_noise_free_extreme(self):
        spec = SyntheticSpec(p_signal=1.0, p_background=0.0, steps=1,
                             train_samples=8, test_samples=32)
        _, test = synth_dataset(spec, 9)
        frames = test.frames.data.reshape(1, 32, spec.channels, -1)
        for m in range(32):
            hot = list(test.signature_positions[int(test.labels[m])])
            assert frames[0, m, :, hot].min() == 1
        assert bayes_accuracy(test) == 1.0

    def test_bayes_near_chance_when_uninformative(self):
        # p_signal barely above p_background: bayes cannot do much
        spec = SyntheticSpec(p_signal=0.1001, p_background=0.1,
                             train_samples=8, test_samples=128)
        _, test = synth_dataset(spec, 1)
        acc = bayes_accuracy(test)
        assert acc < 0.5  # far below the separable regime

    def test_default_spec_bayes_ceiling(self):
        _, test = synth_dataset(SyntheticSpec(test_samples=128), 1)
        assert bayes_accuracy(test) == 1.0


class TestIo:
    def test_roundtrip(self, tmp_path):
        spec = SyntheticSpec(train_samples=8, test_samples=4)
        train, _ = synth_dataset(spec, 3)
        save_dataset(train, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.frames.data.tobytes() == train.frames.data.tobytes()
        assert (back.labels == train.labels).all()
        assert back.spec == spec
        assert back.signature_positions == train.signature_positions


@pytest.fixture(scope="module")
def small_split(tmp_path_factory):
    spec = SyntheticSpec(grid=3, classes=2, signature_tokens=1, channels=1,
                         steps=2, train_samples=4, test_samples=3)
    directory = tmp_path_factory.mktemp("split")
    save_dataset(synth_dataset(spec, 2)[1], directory)
    return directory


_KEYS = [f.name for f in fields(SyntheticSpec)] + ["seed", "samples"]
# fixed alphabets keep hypothesis from building its unicode tables
_VALUES = st.one_of(st.integers(0, 6).map(str), st.integers().map(str),
                    st.floats().map(repr), st.text("0123456789.-e_ =#xé", max_size=8))


@settings(max_examples=50, deadline=None)
@given(drop=st.sets(st.sampled_from(_KEYS), max_size=1),
       change=st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=3),
       extra=st.one_of(st.just(""), st.text("01.=#\nxé", max_size=12)))
def test_any_manifest_loads_or_raises_contract_errors(small_split, drop, change, extra):
    # valid frames and labels under a valid, mangled or arbitrary manifest
    entries = {k: v for k, v in read_manifest(small_split / "dataset.txt").items()
               if k not in drop}
    entries.update(change)
    with tempfile.TemporaryDirectory() as tmp:
        split = Path(tmp)
        for name in ("frames.spkt", "labels.spkt"):
            shutil.copy(small_split / name, split / name)
        text = "".join(f"{k}={v}\n" for k, v in entries.items()) + extra
        (split / "dataset.txt").write_bytes(text.encode("utf-8"))
        try:
            ds = load_dataset(split)
        except (ShapeError, ContractError, ConfigError):
            return
    spec = ds.spec
    assert ds.frames.shape == (spec.steps, ds.labels.shape[0], spec.channels,
                               spec.grid, spec.grid)
    assert ((0 <= ds.labels) & (ds.labels < spec.classes)).all()
