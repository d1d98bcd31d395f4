"""Hierarchical spiking transformer: configs, weights, patch embedding,
spike-driven self-attention, and the per-token classifier map.

Numeric scheme: weights are initialized on dyadic grids (uniform_grid or
sign_magnitude), so float64 matmuls against binary spikes incur no rounding at
all and BLAS summation order cannot affect results. The classifier head is the
single exception (ridge weights are arbitrary reals); token_logits therefore
accumulates in an explicit ascending-index loop.

Silent-token law: there are no biases, so a token whose input is zero at every
step of a block stays silent through it and adds only exact zeros to the
other tokens' sums, for any weights. ssa_forward therefore computes only on
each sample's active tokens and token_logits only on rows with a nonzero
feature, with every output bit unchanged. The ledger is not execution: charges
stay structural and are counted on the full token count N.

Per-step kernels: the patch embedding computes each step's current with
one per-position batched matmul and never holds the [T,B,N,D] current. An
SSA block projects Q, K and V with one [D, 3D] matmul into one LIF state of
width 3D; LIF is elementwise and the matmul exact, so the spikes are those
of three separate projections and states, with 2 lif_step calls per step
instead of 4. lif_step (neuron) updates its membrane in place.

The patch embedding uses per-position projection weights: one weight block per
token position. With weight sharing the whole network would be permutation
equivariant over token positions and mean pooling would erase all position
information, which makes position-coded tasks unlearnable; per-position
weights keep spatial identity observable downstream while preserving the
zero-input -> zero-spike law.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .efficiency import SopLedger, count_attention, count_linear
from .errors import ConfigError, ShapeError
from .neuron import LifParams, LifState, lif_sequence
from .rng import stream
from .tensorfile import (manifest_fields, read_manifest, read_tensor,
                         write_manifest, write_tensor)
from .tensors import DenseTensor, SpikeTensor, as_array


@dataclass(frozen=True)
class StageConfig:
    """One backbone stage: channel width, block count, entry downsampling.

    w_scales holds the init scale of each attention block's weights; a single
    float applies to every block in the stage.
    """

    channels: int
    blocks: int
    downsample: int = 1
    w_scales: Union[float, tuple[float, ...]] = 0.0625

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError("stage channels must be >= 1")
        if self.blocks < 1:
            raise ConfigError("stage blocks must be >= 1")
        if self.downsample not in (1, 2):
            raise ConfigError("downsample factor must be 1 or 2")
        scales = self.w_scales
        if isinstance(scales, (int, float)):
            scales = tuple([float(scales)] * self.blocks)
        else:
            scales = tuple(float(s) for s in scales)
        if len(scales) != self.blocks:
            raise ConfigError(f"{len(scales)} w_scales for {self.blocks} blocks")
        object.__setattr__(self, "w_scales", scales)


# Defaults tuned once on the synthetic task (see ModelConfig notes): quiet
# early blocks preserve stage-1 burst structure exactly; the final block is
# strong enough that its attention updates carry class-relevant signal.
_DEFAULT_STAGES = (
    StageConfig(channels=32, blocks=1, downsample=1, w_scales=0.0625),
    StageConfig(channels=32, blocks=1, downsample=1, w_scales=0.0625),
    StageConfig(channels=32, blocks=2, downsample=1, w_scales=(0.0625, 1.25)),
)


@dataclass(frozen=True)
class ModelConfig:
    """Complete structural description of a model; init is a pure function
    of (config, seed).

    embed_scale 0.25 with sign-magnitude init, tau 0.9, and T=4 place
    driven tokens in a single-burst firing regime (roughly one active step in
    four), which the uncertainty score's temporal statistics rely on.
    attn_shift is the power-of-two right shift applied to the attention
    output projection before the final LIF.
    """

    steps: int = 4
    in_channels: int = 2
    height: int = 8
    width: int = 8
    patch: int = 1
    num_classes: int = 4
    stages: tuple[StageConfig, ...] = _DEFAULT_STAGES
    lif: LifParams = field(default_factory=LifParams)
    seed: int = 1
    embed_scale: float = 0.25
    attn_shift: int = 1
    insert_block: str = "3.1"

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.patch < 1 or self.height % self.patch or self.width % self.patch:
            raise ConfigError("patch size must divide height and width")
        if not self.stages:
            raise ConfigError("at least one stage required")
        gh, gw = self.height // self.patch, self.width // self.patch
        for i, st in enumerate(self.stages):
            if st.downsample == 2:
                if gh % 2 or gw % 2:
                    raise ConfigError(f"stage {i + 1} downsample does not divide grid {gh}x{gw}")
                gh, gw = gh // 2, gw // 2
        self.parse_insert()

    def grid_at(self, stage_index: int) -> tuple[int, int]:
        """Token grid (rows, cols) at the input of stage_index's blocks."""
        gh, gw = self.height // self.patch, self.width // self.patch
        for st in self.stages[: stage_index + 1]:
            if st.downsample == 2:
                gh, gw = gh // 2, gw // 2
        return gh, gw

    def parse_insert(self) -> tuple[int, int]:
        """insert_block 'S.B' -> (stage index 0-based, block index 0-based);
        S is 1-based."""
        text = self.insert_block
        try:
            s_str, b_str = text.split(".")
            s, b = int(s_str) - 1, int(b_str)
        except Exception as exc:
            raise ConfigError(f"bad insert block {text!r}, expected 'S.B'") from exc
        if not 0 <= s < len(self.stages) or not 0 <= b < self.stages[s].blocks:
            raise ConfigError(f"insert block {text!r} outside model layout")
        return s, b


@dataclass(frozen=True)
class SsaBlockWeights:
    """Square projections of one spike-attention block.

    Fresh LIF states are created per forward pass (the lif field is the state
    factory); shift scales the attention output projection by 2**-shift.
    """

    w_q: DenseTensor
    w_k: DenseTensor
    w_v: DenseTensor
    w_proj: DenseTensor
    lif: LifParams
    shift: int
    label: str = "ssa"

    def __post_init__(self):
        d = self.w_q.shape
        if len(d) != 2 or d[0] != d[1]:
            raise ShapeError(f"w_q must be square, got {d}")
        for name in ("w_k", "w_v", "w_proj"):
            if getattr(self, name).shape != d:
                raise ShapeError(f"{name} shape mismatch vs w_q {d}")


@dataclass(frozen=True)
class HeadWeights:
    """Affine classifier: logits = z @ w + b."""

    w: DenseTensor
    b: DenseTensor

    def __post_init__(self):
        if len(self.w.shape) != 2 or len(self.b.shape) != 1:
            raise ShapeError("head expects w [D, C] and b [C]")
        if self.w.shape[1] != self.b.shape[0]:
            raise ShapeError(f"head w {self.w.shape} vs b {self.b.shape}")


@dataclass(frozen=True)
class DownsampleWeights:
    w: DenseTensor  # [in_features, out_channels]
    label: str


@dataclass
class Model:
    config: ModelConfig
    embed_w: DenseTensor  # [N, patch*patch*in_channels, D1]
    entries: list[Optional[DownsampleWeights]]  # per stage, None = identity entry
    blocks: list[list[SsaBlockWeights]]  # per stage
    head: HeadWeights


def init_model(config: ModelConfig) -> Model:
    """Deterministic weight construction from (config, config.seed)."""
    n_feat = config.patch * config.patch * config.in_channels
    gh, gw = config.height // config.patch, config.width // config.patch
    n_tokens = gh * gw
    d1 = config.stages[0].channels
    emb = stream(config.seed, "embed").sign_magnitude((n_tokens, n_feat, d1),
                                                      config.embed_scale)
    embed_w = DenseTensor(emb.astype(np.float32))

    entries: list[Optional[DownsampleWeights]] = []
    blocks: list[list[SsaBlockWeights]] = []
    prev_c = d1
    for s, st in enumerate(config.stages):
        label = f"stage{s + 1}"
        if s == 0:
            entries.append(None)  # patch embedding is stage 1's entry
        elif st.downsample == 2 or st.channels != prev_c:
            in_feat = prev_c * (4 if st.downsample == 2 else 1)
            w = stream(config.seed, f"{label}.down").uniform_grid(
                (in_feat, st.channels), 0.25
            )
            entries.append(DownsampleWeights(DenseTensor(w.astype(np.float32)),
                                             label=f"{label}.down"))
        else:
            entries.append(None)
        stage_blocks = []
        for b in range(st.blocks):
            scale = st.w_scales[b]
            ws = []
            for name in ("wq", "wk", "wv", "wproj"):
                w = stream(config.seed, f"{label}.block{b}.{name}").uniform_grid(
                    (st.channels, st.channels), scale
                )
                ws.append(DenseTensor(w.astype(np.float32)))
            stage_blocks.append(
                SsaBlockWeights(*ws, lif=config.lif, shift=config.attn_shift,
                                label=f"{label}.block{b}")
            )
        blocks.append(stage_blocks)
        prev_c = st.channels
    head_w = stream(config.seed, "head").uniform_grid(
        (config.stages[-1].channels, config.num_classes), 0.125
    )
    head = HeadWeights(DenseTensor(head_w.astype(np.float32)),
                       DenseTensor(np.zeros(config.num_classes, dtype=np.float32)))
    return Model(config=config, embed_w=embed_w, entries=entries, blocks=blocks,
                 head=head)


def extract_patches(frames, patch: int) -> np.ndarray:
    """[T,B,n,H,W] -> float64 [T,B,N,patch*patch*n]; token (h, w) -> h*(W/P)+w,
    feature order (channel, dy, dx) row-major within the patch."""
    arr = as_array(frames)
    if arr.ndim != 5:
        raise ShapeError(f"expected [T,B,n,H,W], got {arr.shape}")
    t, b, n, h, w = arr.shape
    if h % patch or w % patch:
        raise ShapeError(f"patch {patch} does not divide {h}x{w}")
    gh, gw = h // patch, w // patch
    x = arr.reshape(t, b, n, gh, patch, gw, patch)
    x = x.transpose(0, 1, 3, 5, 2, 4, 6)  # [T,B,gh,gw,n,P,P]
    return np.ascontiguousarray(x.reshape(t, b, gh * gw, n * patch * patch)).astype(np.float64)


def patch_embed(frames, patch: int, weights: DenseTensor, lif: LifParams,
                ledger: Optional[SopLedger] = None,
                label: str = "stage1.embed") -> SpikeTensor:
    """Project non-overlapping patches per position, then spike via LIF.

    frames: SpikeTensor (event data, counted as spike-accumulates) or
    DenseTensor (static frames, counted as dense MACs) of shape [T,B,n,H,W].
    weights: [N, patch*patch*n, D].

    One step at a time: a per-position batched matmul [N,B,F] @ [N,F,D] gives
    the step's current and lif_step turns it into spikes, so the [T,B,N,D]
    current is never held. With spike frames, or static frames on a dyadic
    grid, every product and partial sum is exact and the bits equal those
    of one einsum "tbnf,nfd->tbnd" over all steps; for other real-valued
    static frames with F >= 3 the sum over F follows the BLAS order.
    """
    patches = extract_patches(frames, patch)
    t, b, n_tok, n_feat = patches.shape
    wf = weights.data.astype(np.float64)
    if wf.shape[0] != n_tok or wf.shape[1] != n_feat:
        raise ShapeError(f"embed weights {weights.shape} vs patches {patches.shape}")
    d = wf.shape[2]
    if ledger is not None:
        if isinstance(frames, SpikeTensor):
            ledger.add(label, spike_accumulates=count_linear(int(patches.sum(dtype=np.int64)), d))
        else:
            ledger.add(label, dense_macs=t * b * n_tok * n_feat * d)
    # looked up at call time, as in ssa_forward
    from .neuron import lif_step

    state = LifState.zeros(lif, (n_tok, b, d))
    out = np.empty((t, b, n_tok, d), dtype=np.uint8)
    for step in range(t):
        current = np.matmul(patches[step].transpose(1, 0, 2), wf)  # [N,B,D]
        out[step] = lif_step(state, current).transpose(1, 0, 2)
    return SpikeTensor(out)


def downsample_tokens(x: SpikeTensor, grid: tuple[int, int], factor: int,
                      weights: DownsampleWeights, lif: LifParams,
                      ledger: Optional[SopLedger] = None) -> SpikeTensor:
    """Merge factor x factor token neighborhoods through a linear map + LIF."""
    t, b, n, d = x.shape
    gh, gw = grid
    if gh * gw != n:
        raise ShapeError(f"grid {grid} does not match N={n}")
    if factor == 1:
        feats = x.data.astype(np.float64)
    else:
        xt = x.data.reshape(t, b, gh // factor, factor, gw // factor, factor, d)
        xt = xt.transpose(0, 1, 2, 4, 3, 5, 6)
        feats = xt.reshape(t, b, (gh // factor) * (gw // factor), factor * factor * d).astype(np.float64)
    wf = weights.w.data.astype(np.float64)
    if wf.shape[0] != feats.shape[-1]:
        raise ShapeError(f"downsample weights {weights.w.shape} vs features {feats.shape}")
    current = feats @ wf
    if ledger is not None:
        ledger.add(weights.label,
                   spike_accumulates=count_linear(int(feats.sum(dtype=np.int64)), wf.shape[1]))
    return lif_sequence(lif, current)


def attention_core(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = Q K^T (integer-valued), Y = A V. Inputs are binary [.., N, D] arrays."""
    a = q @ np.swapaxes(k, -1, -2)
    return a, a @ v


def ssa_forward(x: SpikeTensor, w: SsaBlockWeights,
                ledger: Optional[SopLedger] = None) -> SpikeTensor:
    """Spike-driven self-attention block over [T,B,N,D].

    Per timestep: Q/K/V = LIF(linear(x_t)) with states carried across time,
    computed as one [D, 3D] projection into one shared [B, m, 3D] state;
    Y = (Q K^T) V; output current = proj(Y) * 2**-shift + x_t (residual enters
    as current), binarized by the output LIF. No softmax, no normalization.

    Silent-token law: a token whose input row is zero at every step is a fixed
    point of the block for any weights (there are no biases). Its membranes
    stay at 0, so its Q, K and V rows are 0, its row of A is 0 and it emits
    no spike, and its K and V rows add only exact zeros to the other tokens'
    sums. The block therefore runs on each sample's active tokens, gathered
    in ascending order and padded to the batch's largest active count with
    the sample's own silent tokens, and scatters the result into a zero
    output. Every matmul operand sits on the dyadic grid, so dropping the
    zero terms changes no bit. Charges stay structural and are counted on the
    full N: qkv from nnz(x_t), attn from nnz(Q) over N tokens, proj on all
    B*N rows.
    """
    t_steps, b, n, d = x.shape
    if w.w_q.shape[0] != d:
        raise ShapeError(f"block dim {w.w_q.shape[0]} vs input D={d}")
    # one [D, 3D] projection and one LIF state for Q, K and V: LIF is
    # elementwise and the matmul exact, so every bit equals three separate ones
    wqkv = np.concatenate([w.w_q.data, w.w_k.data, w.w_v.data], axis=1).astype(np.float64)
    wp = w.w_proj.data.astype(np.float64)
    scale = 2.0 ** (-w.shift)
    active = x.data.any(axis=0).any(axis=-1)  # [B,N]
    # at least one row keeps an all-silent batch on the same path
    m = max(int(active.sum(axis=1).max()), 1)
    # stable: each sample's active tokens ascending, then its silent ones
    rows = np.arange(b)[:, None]
    idx = np.argsort(~active, axis=1, kind="stable")[:, :m]
    xs = x.data[:, rows, idx]  # [T,B,m,D]
    qkv_state = LifState.zeros(w.lif, (b, m, 3 * d))
    out_state = LifState.zeros(w.lif, (b, m, d))
    spikes = np.empty((t_steps, b, m, d), dtype=np.uint8)
    # looked up in neuron at call time, not bound at import: a wrapper
    # patched onto neuron.lif_step (a tracer, a test) must see every step
    from .neuron import lif_step

    for t in range(t_steps):
        xt = xs[t].astype(np.float64)  # [B,m,D]
        qkv = lif_step(qkv_state, xt @ wqkv)  # [B,m,3D] uint8: Q | K | V
        # no float64 Q, K, V or A outlives the expression
        z = attention_core(*(qkv[..., i * d:(i + 1) * d].astype(np.float64)
                             for i in range(3)))[1] @ wp
        z *= scale
        z += xt
        spikes[t] = lif_step(out_state, z)
        if ledger is not None:
            nnz_x = int(xs[t].sum(dtype=np.int64))
            ledger.add(f"{w.label}.qkv", spike_accumulates=count_linear(nnz_x, d) * 3)
            sa, macs = count_attention(int(qkv[..., :d].sum(dtype=np.int64)), n, d)
            ledger.add(f"{w.label}.attn", spike_accumulates=sa, dense_macs=macs * b)
            ledger.add(f"{w.label}.proj", dense_macs=b * n * d * d)
    out = np.zeros((t_steps, b, n, d), dtype=np.uint8)
    out[:, rows, idx] = spikes
    return SpikeTensor(out)


def token_logits(z, head: HeadWeights) -> DenseTensor:
    """Affine map per token: [.., D] -> [.., C], ascending-index accumulation.

    The head weights come from a ridge solve and are not grid-exact, so the
    reduction order is pinned explicitly to stay bit-reproducible. A row with
    no nonzero feature has logits exactly b (0.0 plus zero products plus b),
    so the loop runs only over rows with a nonzero feature and the other rows
    are filled with b; spike tokens are mostly silent, pooled features mostly
    not.
    """
    arr = as_array(z)
    wf = head.w.data.astype(np.float64)
    if arr.shape[-1] != wf.shape[0]:
        raise ShapeError(f"feature dim {arr.shape[-1]} vs head {head.w.shape}")
    rows = arr.reshape(-1, wf.shape[0])
    live = rows.any(axis=1)
    feats = rows[live].astype(np.float64)
    acc = np.zeros((feats.shape[0], wf.shape[1]), dtype=np.float64)
    for k in range(wf.shape[0]):
        acc += feats[:, k : k + 1] * wf[k]
    bias = head.b.data.astype(np.float64)
    acc += bias
    out = np.empty((rows.shape[0], wf.shape[1]), dtype=np.float64)
    out[:] = 0.0 + bias  # what the loop gives a zero row, -0.0 included
    out[live] = acc
    return DenseTensor(out.reshape(arr.shape[:-1] + (wf.shape[1],)).astype(np.float32))


# --- serialization ---------------------------------------------------------

_FORMAT = "1"


def save_model(model: Model, directory: Union[str, Path]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cfg = model.config
    entries = {
        "format": _FORMAT,
        "seed": str(cfg.seed),
        "steps": str(cfg.steps),
        "in_channels": str(cfg.in_channels),
        "height": str(cfg.height),
        "width": str(cfg.width),
        "patch": str(cfg.patch),
        "classes": str(cfg.num_classes),
        "tau": repr(cfg.lif.tau),
        "vth": repr(cfg.lif.v_th),
        "embed_scale": repr(cfg.embed_scale),
        "attn_shift": str(cfg.attn_shift),
        "insert_block": cfg.insert_block,
        "n_stages": str(len(cfg.stages)),
    }
    for i, st in enumerate(cfg.stages):
        entries[f"stage{i + 1}.channels"] = str(st.channels)
        entries[f"stage{i + 1}.blocks"] = str(st.blocks)
        entries[f"stage{i + 1}.downsample"] = str(st.downsample)
        entries[f"stage{i + 1}.w_scales"] = ",".join(repr(s) for s in st.w_scales)
    write_manifest(directory / "manifest.txt", entries)
    write_tensor(directory / "embed.spkt", model.embed_w)
    for s, (entry, stage_blocks) in enumerate(zip(model.entries, model.blocks)):
        if entry is not None:
            write_tensor(directory / f"stage{s + 1}.down.spkt", entry.w)
        for bb, blk in enumerate(stage_blocks):
            for name, tensor in (("wq", blk.w_q), ("wk", blk.w_k),
                                 ("wv", blk.w_v), ("wproj", blk.w_proj)):
                write_tensor(directory / f"stage{s + 1}.block{bb}.{name}.spkt", tensor)
    write_tensor(directory / "head.w.spkt", model.head.w)
    write_tensor(directory / "head.b.spkt", model.head.b)


def load_model(directory: Union[str, Path]) -> Model:
    directory = Path(directory)
    path = directory / "manifest.txt"
    m = read_manifest(path)
    if m.get("format") != _FORMAT:
        raise ConfigError(f"unsupported model format {m.get('format')!r}")
    with manifest_fields(path):
        stages = []
        for i in range(int(m["n_stages"])):
            stages.append(StageConfig(
                channels=int(m[f"stage{i + 1}.channels"]),
                blocks=int(m[f"stage{i + 1}.blocks"]),
                downsample=int(m[f"stage{i + 1}.downsample"]),
                w_scales=tuple(float(s) for s in m[f"stage{i + 1}.w_scales"].split(",")),
            ))
        cfg = ModelConfig(
            steps=int(m["steps"]),
            in_channels=int(m["in_channels"]),
            height=int(m["height"]),
            width=int(m["width"]),
            patch=int(m["patch"]),
            num_classes=int(m["classes"]),
            stages=tuple(stages),
            lif=LifParams(tau=float(m["tau"]), v_th=float(m["vth"])),
            seed=int(m["seed"]),
            embed_scale=float(m["embed_scale"]),
            attn_shift=int(m["attn_shift"]),
            insert_block=m["insert_block"],
        )
    model = init_model(cfg)
    model.embed_w = read_tensor(directory / "embed.spkt")
    for s in range(len(cfg.stages)):
        down = directory / f"stage{s + 1}.down.spkt"
        if model.entries[s] is not None:
            model.entries[s] = DownsampleWeights(read_tensor(down),
                                                 label=model.entries[s].label)
        for bb in range(cfg.stages[s].blocks):
            tensors = {
                name: read_tensor(directory / f"stage{s + 1}.block{bb}.{name}.spkt")
                for name in ("wq", "wk", "wv", "wproj")
            }
            model.blocks[s][bb] = SsaBlockWeights(
                tensors["wq"], tensors["wk"], tensors["wv"], tensors["wproj"],
                lif=cfg.lif, shift=cfg.attn_shift, label=f"stage{s + 1}.block{bb}",
            )
    model.head = HeadWeights(read_tensor(directory / "head.w.spkt"),
                             read_tensor(directory / "head.b.spkt"))
    return model
