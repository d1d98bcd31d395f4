"""Frozen reference semantics for the benchmark's correctness gate.

This module restates, independently of the package under test, what
spiketrim computes for the default model: synthetic data, weight
initialization, the ridge head, the forward pass under every reduction
strategy, the SOP ledger, and the sweep CSV. The benchmark compares the
program's outputs with these byte for byte, so an optimization of the
program passes only if it keeps the logits, ledger entries and CSV bytes.

Every floating-point step that is not exact (LIF leak, ridge solve, merge
weights, classifier head) uses the same numpy expression, operand order and
dtype as the seed implementation; steps whose operands are exact (binary
spikes times dyadic weights) may use any order. Randomness comes from
`spiketrim.rng`, the package's counter-based streams, which the benchmark
treats as part of its input definition.

The sweep reference computes the plan-independent prefix once and reruns
only the insertion block per cell; that reuse is exact because the prefix
does not read the plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from spiketrim.rng import stream

Ledger = dict  # label -> (spike_accumulates, dense_macs)


@dataclass(frozen=True)
class Spec:
    """The default synthetic task; p_background is what the workloads vary."""

    grid: int = 8
    classes: int = 4
    signature_tokens: int = 4
    p_signal: float = 0.9
    p_background: float = 0.1
    channels: int = 2
    steps: int = 4
    train_samples: int = 384
    test_samples: int = 256

    @property
    def n_tokens(self) -> int:
        return self.grid * self.grid


# Default model layout: (stage label, block index, weight scale) per block.
BLOCKS = (("stage1", 0, 0.0625), ("stage2", 0, 0.0625),
          ("stage3", 0, 0.0625), ("stage3", 1, 1.25))
INSERT_LABEL = "stage3.block1"
CHANNELS = 32
TAU, V_TH = 0.9, 1.0
EMBED_SCALE = 0.25
ATTN_SHIFT = 1
LAM = 0.9
L2 = 1e-3
PJ_PER_OP = 0.9


@dataclass(frozen=True)
class Plan:
    """A reduction request: strategy name as on the CLI and a keep ratio."""

    strategy: str
    ratio: float

    @property
    def name(self) -> str:
        return f"{self.strategy}@{self.ratio}"


@dataclass
class Batch:
    frames: np.ndarray  # uint8 [T, B, n, H, W]
    labels: np.ndarray  # int64 [B]


@dataclass
class Params:
    seed: int
    embed: np.ndarray  # float32 [N, F, D]
    blocks: dict  # label -> (wq, wk, wv, wproj) float32 [D, D]
    head_w: Optional[np.ndarray] = None  # float32 [D, C]
    head_b: Optional[np.ndarray] = None  # float32 [C]
    signature: dict = field(default_factory=dict)  # class -> token indices


@dataclass
class Outcome:
    """One forward pass: logits, ledger, and what the selection did."""

    logits: np.ndarray  # float32 [B, C]
    ledger: Ledger
    insert_input: np.ndarray  # uint8 [T, B, N, D] tokens entering the insertion block
    kept: Optional[np.ndarray] = None  # int64 [B, k] kept (or anchor) tokens


# --- data and weights ------------------------------------------------------

def signature_positions(spec: Spec, seed: int) -> dict:
    perm = stream(seed, "signature_positions").permutation(spec.n_tokens)
    s = spec.signature_tokens
    return {c: tuple(sorted(int(i) for i in perm[c * s:(c + 1) * s]))
            for c in range(spec.classes)}


def synth_split(spec: Spec, seed: int, split: str, samples: int) -> Batch:
    sig = signature_positions(spec, seed)
    labels = stream(seed, f"labels/{split}").integers(samples, spec.classes)
    g, n, t = spec.grid, spec.channels, spec.steps
    u = stream(seed, f"spikes/{split}").uniform(t * samples * n * g * g)
    prob = np.full((t, samples, n, g * g), spec.p_background)
    for m in range(samples):
        prob[:, m, :, list(sig[int(labels[m])])] = spec.p_signal
    frames = (u.reshape(t, samples, n, g, g) < prob.reshape(t, samples, n, g, g))
    return Batch(frames.astype(np.uint8), labels)


def init_params(spec: Spec, seed: int) -> Params:
    n_tok, n_feat = spec.n_tokens, spec.channels
    embed = stream(seed, "embed").sign_magnitude((n_tok, n_feat, CHANNELS), EMBED_SCALE)
    blocks = {}
    for stage, b, scale in BLOCKS:
        blocks[f"{stage}.block{b}"] = tuple(
            stream(seed, f"{stage}.block{b}.{name}")
            .uniform_grid((CHANNELS, CHANNELS), scale).astype(np.float32)
            for name in ("wq", "wk", "wv", "wproj"))
    return Params(seed=seed, embed=embed.astype(np.float32), blocks=blocks,
                  signature=signature_positions(spec, seed))


# --- layers ----------------------------------------------------------------

def _add(ledger: Ledger, label: str, sa: int = 0, mac: int = 0) -> None:
    sa0, mac0 = ledger.get(label, (0, 0))
    ledger[label] = (sa0 + int(sa), mac0 + int(mac))


def _lif(membrane: np.ndarray, current: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = TAU * membrane + current.astype(np.float64)
    spikes = m >= V_TH
    return m * (1.0 - spikes), spikes.astype(np.uint8)


def lif_sequence(currents: np.ndarray) -> np.ndarray:
    membrane = np.zeros(currents.shape[1:], dtype=np.float64)
    out = np.zeros(currents.shape, dtype=np.uint8)
    for t in range(currents.shape[0]):
        membrane, out[t] = _lif(membrane, currents[t])
    return out


def patch_embed(frames: np.ndarray, embed: np.ndarray, ledger: Ledger) -> np.ndarray:
    t, b, n, h, w = frames.shape
    patches = frames.reshape(t, b, n, h * w).transpose(0, 1, 3, 2).astype(np.float64)
    current = np.einsum("tbnf,nfd->tbnd", patches, embed.astype(np.float64))
    _add(ledger, "stage1.embed", sa=int(patches.sum(dtype=np.int64)) * embed.shape[2])
    return lif_sequence(current)


def ssa(x: np.ndarray, weights: tuple, label: str, ledger: Ledger) -> np.ndarray:
    """Spike attention over [T,B,N,D]: LIF(Q), LIF(K), LIF(V), (QK^T)V,
    projection scaled by 2^-shift plus the residual into the output LIF."""
    t_steps, b, n, d = x.shape
    wq, wk, wv, wp = (w.astype(np.float64) for w in weights)
    scale = 2.0 ** (-ATTN_SHIFT)
    mem = [np.zeros((b, n, d), dtype=np.float64) for _ in range(4)]
    out = np.zeros(x.shape, dtype=np.uint8)
    for t in range(t_steps):
        xt = x[t].astype(np.float64)
        mem[0], q = _lif(mem[0], xt @ wq)
        mem[1], k = _lif(mem[1], xt @ wk)
        mem[2], v = _lif(mem[2], xt @ wv)
        q, k, v = (a.astype(np.float64) for a in (q, k, v))
        y = (q @ np.swapaxes(k, -1, -2)) @ v
        mem[3], out[t] = _lif(mem[3], (y @ wp) * scale + xt)
        _add(ledger, f"{label}.qkv", sa=int(x[t].sum(dtype=np.int64)) * d * 3)
        _add(ledger, f"{label}.attn", sa=int(q.sum(dtype=np.int64)) * n, mac=n * n * d * b)
        _add(ledger, f"{label}.proj", mac=b * n * d * d)
    return out


def head_logits(z: np.ndarray, head_w: np.ndarray, head_b: np.ndarray) -> np.ndarray:
    """Affine head with the ascending-feature accumulation the program pins."""
    arr = z.astype(np.float64)
    wf = head_w.astype(np.float64)
    out = np.zeros(arr.shape[:-1] + (wf.shape[1],), dtype=np.float64)
    for k in range(wf.shape[0]):
        out += arr[..., k:k + 1] * wf[k]
    out += head_b.astype(np.float64)
    return out.astype(np.float32)


def pool(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float64).mean(axis=(0, 2)).astype(np.float32)


def scores(x: np.ndarray, p: Params) -> np.ndarray:
    """mu + lambda * sigma of the evidential uncertainty trajectory, [B, N]."""
    logits = head_logits(x, p.head_w, p.head_b).astype(np.float64)
    ax = np.abs(logits)
    e = np.where(logits > 0, logits + np.log1p(np.exp(-ax)), np.log1p(np.exp(-ax)))
    c = e.shape[-1]
    u = c / (c + e.sum(axis=-1))
    mu = u.mean(axis=0)
    sigma = np.sqrt(((u - mu) ** 2).mean(axis=0))
    return (mu + LAM * sigma).astype(np.float32)


def topk(row: np.ndarray, k: int) -> list:
    arr = np.asarray(row, dtype=np.float64)
    order = np.lexsort((np.arange(arr.size), -arr))
    return sorted(int(i) for i in order[:k])


def keep_indices(plan: Plan, s: Optional[np.ndarray], b: int, n: int, seed: int) -> np.ndarray:
    k = math.floor(plan.ratio * n)
    rows = []
    for m in range(b):
        if plan.strategy == "uncert-prune":
            rows.append(topk(s[m], k))
        elif plan.strategy == "low-uncert-prune":
            rows.append(topk(-s[m].astype(np.float64), k))
        else:
            idx = stream(seed, f"random_prune/{m}").sample_without_replacement(n, k)
            rows.append([int(i) for i in idx])
    return np.array(rows, dtype=np.int64)


def merge(x: np.ndarray, s: np.ndarray, ratio: float, label: str,
          ledger: Ledger) -> tuple[np.ndarray, np.ndarray]:
    """ToMe-style merge at the insertion block: anchors are the top-score
    tokens, every other token joins its most cosine-similar anchor, and each
    group is combined with softmax-of-similarity weights (anchor first)."""
    t, b, n, d = x.shape
    k = math.floor(ratio * n)
    out = np.zeros((t, b, k, d), dtype=np.float64)
    anchors_all = np.zeros((b, k), dtype=np.int64)
    macs = 0
    for m in range(b):
        anchors = topk(s[m], k)
        anchors_all[m] = anchors
        zbar = x[:, m].astype(np.float64).mean(axis=0)
        norms = np.sqrt((zbar ** 2).sum(axis=-1))
        anchor_arr = np.array(anchors, dtype=np.int64)
        anchor_set = set(anchors)
        assign = {}
        for j in range(n):
            if j in anchor_set:
                continue
            if norms[j] == 0.0:
                sims = np.zeros(len(anchors))
            else:
                dots = zbar[anchor_arr] @ zbar[j]
                dens = norms[anchor_arr] * norms[j]
                sims = np.where(dens > 0.0, dots / np.where(dens > 0.0, dens, 1.0), 0.0)
            assign[j] = int(anchor_arr[int(np.argmax(sims))])
        xm = x[:, m].astype(np.float64)
        for ai, a in enumerate(anchors):
            group = [a] + sorted(j for j, tgt in assign.items() if tgt == a)
            sims = [1.0 if j == a else
                    0.0 if norms[j] == 0.0 or norms[a] == 0.0 else
                    float(zbar[a] @ zbar[j] / (norms[a] * norms[j]))
                    for j in group]
            w = np.exp(np.asarray(sims, dtype=np.float64))
            w /= w.sum()
            out[:, m, ai] = np.einsum("j,tjd->td", w, xm[:, group])
            macs += t * len(group) * d
    _add(ledger, f"{label}.merge", mac=macs)
    return out.astype(np.float32), anchors_all


# --- forward ---------------------------------------------------------------

def prefix(p: Params, frames: np.ndarray, ledger: Ledger) -> np.ndarray:
    """Embedding and every block before the insertion block."""
    x = patch_embed(frames, p.embed, ledger)
    for stage, b, _ in BLOCKS:
        label = f"{stage}.block{b}"
        if label == INSERT_LABEL:
            break
        x = ssa(x, p.blocks[label], label, ledger)
    return x


def insert_block(p: Params, x: np.ndarray, plan: Optional[Plan],
                 ledger: Ledger) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The insertion block under a plan; returns its output and kept tokens."""
    w = p.blocks[INSERT_LABEL]
    t, b, n, d = x.shape
    if plan is None or plan.strategy == "none":
        return ssa(x, w, INSERT_LABEL, ledger), None
    s = None if plan.strategy == "random-prune" else scores(x, p)
    if plan.strategy == "uncert-merge":
        if plan.ratio == 1.0:
            return ssa(x, w, INSERT_LABEL, ledger), np.tile(np.arange(n), (b, 1))
        merged, anchors = merge(x, s, plan.ratio, INSERT_LABEL, ledger)
        binary = lif_sequence(merged.astype(np.float64))
        return ssa(binary, w, INSERT_LABEL, ledger), anchors
    idx = keep_indices(plan, s, b, n, p.seed)
    expand = np.broadcast_to(idx[None, :, :, None], (t, b, idx.shape[1], d))
    updated = ssa(np.take_along_axis(x, expand, axis=2), w, INSERT_LABEL, ledger)
    out = np.array(x)
    np.put_along_axis(out, expand, updated, axis=2)
    return out, idx


def forward(p: Params, frames: np.ndarray, plan: Optional[Plan]) -> Outcome:
    ledger: Ledger = {}
    x = prefix(p, frames, ledger)
    out, kept = insert_block(p, x, plan, ledger)
    logits = head_logits(pool(out), p.head_w, p.head_b)
    return Outcome(logits=logits, ledger=ledger, insert_input=x, kept=kept)


# --- ridge head --------------------------------------------------------------

def _cholesky_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    low = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            acc = a[i, j] - float(low[i, :j] @ low[j, :j])
            low[i, j] = np.sqrt(acc) if i == j else acc / low[j, j]
    y = np.zeros_like(rhs)
    for i in range(n):
        y[i] = (rhs[i] - low[i, :i] @ y[:i]) / low[i, i]
    x = np.zeros_like(rhs)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - low[i + 1:, i] @ x[i + 1:]) / low[i, i]
    return x


def fit_head(p: Params, train: Batch) -> None:
    """Ridge fit on pooled unreduced features, centered, bias from means."""
    x = prefix(p, train.frames, {})
    x = ssa(x, p.blocks[INSERT_LABEL], INSERT_LABEL, {})
    feats = pool(x).astype(np.float64)
    c = max(int(train.labels.max()) + 1, 2)
    onehot = np.zeros((feats.shape[0], c), dtype=np.float64)
    onehot[np.arange(feats.shape[0]), train.labels] = 1.0
    x_mean, y_mean = feats.mean(axis=0), onehot.mean(axis=0)
    xc, yc = feats - x_mean, onehot - y_mean
    gram = xc.T @ xc + L2 * np.eye(feats.shape[1])
    w = _cholesky_solve(gram, xc.T @ yc)
    p.head_w = w.astype(np.float32)
    p.head_b = (y_mean - x_mean @ w).astype(np.float32)


def prepare(spec: Spec, seed: int) -> tuple[Params, Batch, Batch]:
    """What `prepared_model` should produce: weights, head, train/test splits."""
    train = synth_split(spec, seed, "train", spec.train_samples)
    test = synth_split(spec, seed, "test", spec.test_samples)
    p = init_params(spec, seed)
    fit_head(p, train)
    return p, train, test


# --- sweep -----------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    strategy: str
    keep_ratio: float
    seed: int
    acc1: float
    acc5: float
    block_sops: int
    energy_mj: float


def energy_mj(ledger: Ledger) -> float:
    total = sum(sa + mac for sa, mac in ledger.values())
    return total * PJ_PER_OP * 1e-9


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((np.argmax(logits, axis=-1) == labels).mean())


def sweep(p: Params, test: Batch, plans: list) -> tuple[list, list]:
    """Rows of a one-seed sweep (sorted as the CSV) and each cell's Outcome."""
    base: Ledger = {}
    x = prefix(p, test.frames, base)
    rows, outcomes = [], []
    for plan in plans:
        ledger = dict(base)
        out, kept = insert_block(p, x, plan, ledger)
        logits = head_logits(pool(out), p.head_w, p.head_b)
        acc1 = accuracy(logits, test.labels)
        block_sops = sum(sa for label, (sa, _) in ledger.items()
                         if label.startswith(INSERT_LABEL))
        rows.append(Row(plan.strategy, plan.ratio, p.seed, acc1, acc1,
                        block_sops, energy_mj(ledger)))
        outcomes.append(Outcome(logits, ledger, x, kept))
    order = sorted(range(len(rows)), key=lambda i: (rows[i].strategy, rows[i].keep_ratio))
    return [rows[i] for i in order], [outcomes[i] for i in order]


def rows_csv(rows: list) -> str:
    """The sweep CSV for fewer than five classes (acc5 column holds acc1)."""
    lines = ["strategy,keep_ratio,seed,acc1,acc5(=acc1),block_sops,energy_mj"]
    for r in rows:
        lines.append(f"{r.strategy},{r.keep_ratio:.6f},{r.seed},{r.acc1:.6f},"
                     f"{r.acc5:.6f},{r.block_sops},{r.energy_mj:.6f}")
    return "\n".join(lines) + "\n"
