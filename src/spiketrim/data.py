"""Synthetic spike dataset: class identity is carried by token position.

Each class owns a disjoint set of signature token positions on the grid.
Signature positions spike with probability p_signal per (channel, step),
everything else with p_background. Because informative content is purely
positional and spatially sparse, ground truth for "which tokens matter" is
known exactly, and a brute-force Bayes classifier on the generative model
provides a calibration ceiling for selection-quality checks.

Generation is a pure function of (spec, seed): signature positions derive
from the seed alone, split contents from (seed, split name).

SyntheticSpec's fields are the one list of dataset settings: each is a
`--name` flag of the CLI (underscores as dashes) and a key of a saved split's
dataset.txt, next to `seed` and the split's `samples`.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .rng import stream
from .tensorfile import (manifest_fields, read_manifest, read_tensor,
                         write_manifest, write_tensor)
from .tensors import DenseTensor, SpikeTensor


@dataclass(frozen=True)
class SyntheticSpec:
    grid: int = 8
    classes: int = 4
    signature_tokens: int = 4
    p_signal: float = 0.9
    p_background: float = 0.1
    channels: int = 2
    steps: int = 4
    train_samples: int = 384
    test_samples: int = 256

    def __post_init__(self):
        if not 0.0 <= self.p_background < self.p_signal <= 1.0:
            raise ConfigError("need 0 <= p_background < p_signal <= 1")
        if self.classes < 2:
            raise ConfigError("need at least two classes")
        if self.grid < 1 or self.channels < 1 or self.steps < 1:
            raise ConfigError("grid, channels, steps must be positive")
        if self.signature_tokens < 1:
            raise ConfigError("need at least one signature token per class")
        if self.classes * self.signature_tokens > self.grid * self.grid:
            raise ConfigError(
                f"{self.classes} x {self.signature_tokens} signature positions "
                f"exceed the {self.grid}x{self.grid} grid"
            )

    @property
    def n_tokens(self) -> int:
        return self.grid * self.grid


@dataclass
class Dataset:
    frames: SpikeTensor  # [T, M, n, H, W]
    labels: np.ndarray  # [M] int64
    spec: SyntheticSpec
    seed: int
    signature_positions: dict[int, tuple[int, ...]]  # class -> token indices


def signature_positions(spec: SyntheticSpec, seed: int) -> dict[int, tuple[int, ...]]:
    """Disjoint per-class token positions, deterministic from the seed."""
    perm = stream(seed, "signature_positions").permutation(spec.n_tokens)
    out = {}
    for c in range(spec.classes):
        chunk = perm[c * spec.signature_tokens : (c + 1) * spec.signature_tokens]
        out[c] = tuple(sorted(int(i) for i in chunk))
    return out


def synth_split(spec: SyntheticSpec, seed: int, split: str, samples: int) -> Dataset:
    sig = signature_positions(spec, seed)
    labels = stream(seed, f"labels/{split}").integers(samples, spec.classes)
    g, n, t = spec.grid, spec.channels, spec.steps
    u = stream(seed, f"spikes/{split}").uniform(t * samples * n * g * g)
    u = u.reshape(t, samples, n, g, g)
    prob = np.full((t, samples, n, g * g), spec.p_background)
    for m in range(samples):
        prob[:, m, :, list(sig[int(labels[m])])] = spec.p_signal
    prob = prob.reshape(t, samples, n, g, g)
    frames = SpikeTensor((u < prob).astype(np.uint8))
    return Dataset(frames=frames, labels=labels, spec=spec, seed=seed,
                   signature_positions=sig)


def synth_dataset(spec: SyntheticSpec, seed: int) -> tuple[Dataset, Dataset]:
    """(train split, test split), byte-identical for equal (spec, seed)."""
    return (synth_split(spec, seed, "train", spec.train_samples),
            synth_split(spec, seed, "test", spec.test_samples))


def bayes_accuracy(ds: Dataset) -> float:
    """Brute-force Bayes-optimal accuracy under the known generative model.

    Log-likelihood of each class assumes its signature positions fire at
    p_signal and everything else at p_background; only positions that differ
    between hypotheses matter, so the log-likelihood reduces to a sum over
    each class's signature positions.
    """
    spec = ds.spec
    x = ds.frames.data.astype(np.float64)  # [T,M,n,H,W]
    t, m, n, h, w_ = x.shape
    tokens = x.reshape(t, m, n, h * w_)
    # per-token spike counts over (T, channels)
    counts = tokens.sum(axis=(0, 2))  # [M, N]
    trials = t * n
    ps, pb = spec.p_signal, spec.p_background
    def safe_log(v):
        return np.log(np.maximum(v, 1e-300))
    # log-odds contribution of one token being signature instead of background
    gain = (counts * (safe_log(ps) - safe_log(pb))
            + (trials - counts) * (safe_log(1 - ps) - safe_log(1 - pb)))  # [M, N]
    scores = np.zeros((m, spec.classes))
    for c in range(spec.classes):
        scores[:, c] = gain[:, list(ds.signature_positions[c])].sum(axis=1)
    pred = np.argmax(scores, axis=1)
    return float((pred == ds.labels).mean())


def save_dataset(ds: Dataset, directory: Union[str, Path]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = {f.name: str(getattr(ds.spec, f.name)) for f in fields(SyntheticSpec)}
    entries.update(seed=str(ds.seed), samples=str(ds.labels.shape[0]))
    write_manifest(directory / "dataset.txt", entries)
    write_tensor(directory / "frames.spkt", ds.frames)
    write_tensor(directory / "labels.spkt",
                 DenseTensor(ds.labels.astype(np.float32)))


def load_dataset(directory: Union[str, Path]) -> Dataset:
    """Load a split, checking its frames and labels against its manifest
    before anything is derived from the manifest's values."""
    directory = Path(directory)
    path = directory / "dataset.txt"
    m = read_manifest(path)
    with manifest_fields(path):
        spec = SyntheticSpec(**{f.name: type(f.default)(m[f.name])
                                for f in fields(SyntheticSpec)})
        seed, samples = int(m["seed"]), int(m["samples"])
    frames_path, labels_path = directory / "frames.spkt", directory / "labels.spkt"
    frames = read_tensor(frames_path)
    shape = (spec.steps, samples, spec.channels, spec.grid, spec.grid)
    if not isinstance(frames, SpikeTensor) or frames.shape != shape:
        raise ShapeError(f"{frames_path}: expected binary frames of shape {list(shape)}, "
                         f"got {type(frames).__name__} {list(frames.shape)}")
    labels = read_tensor(labels_path).data
    if labels.shape != (samples,):
        raise ShapeError(f"{labels_path}: expected {samples} labels, "
                         f"got shape {list(labels.shape)}")
    if not np.isin(labels, np.arange(spec.classes)).all():
        raise ContractError(f"{labels_path}: labels must be integers in [0, {spec.classes})")
    return Dataset(frames=frames, labels=labels.astype(np.int64), spec=spec, seed=seed,
                   signature_positions=signature_positions(spec, seed))
