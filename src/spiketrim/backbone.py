"""Spiking transformer whose blocks all run on one token grid at one width:
configs, weights, patch embedding, spike-driven self-attention, and the
per-token classifier map.

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

Silent-query law: attention has no softmax, so a sample whose Q never fires
has A = QK^T = 0 and Y = AV = 0 at every step, and its output LIF's current
(0 W_p) 2^-shift + x_t has the bits of x_t (x_t is +0.0 or 1.0, and a signed
zero added to it vanishes). Its K and V feed only its own attention.
ssa_forward therefore spikes Q for every sample first and runs K/V,
attention and the output projection only for the samples that query.

Per-step kernels: the patch embedding takes spike frames only, charged as
nnz(patches) x D spike-accumulates. It computes each step's current with one
per-position batched matmul and never holds the [T,B,N,D] current. An SSA
block projects Q with one [D, D] matmul and K and V with one [D, 2D]
matmul into one LIF state of width 2D; LIF is elementwise and the matmul
exact, so the spikes are those of separate projections and states, with 3
lif_step calls per step instead of 4. lif_step (neuron) updates its
membrane in place.

The patch embedding uses per-position projection weights: one weight block per
token position. With weight sharing the whole network would be permutation
equivariant over token positions and mean pooling would erase all position
information, which makes position-coded tasks unlearnable; per-position
weights keep spatial identity observable downstream while preserving the
zero-input -> zero-spike law.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .efficiency import SopLedger, count_attention, count_linear
from .errors import ConfigError, ShapeError
from .neuron import LifParams, LifState
from .rng import stream
from .tensorfile import (manifest_fields, read_manifest, read_tensor,
                         write_manifest, write_tensor)
from .tensors import DenseTensor, SpikeTensor, Tensor, as_array


@dataclass(frozen=True)
class ModelConfig:
    """Complete structural description of a model; init is a pure function
    of (config, seed).

    Every block runs at width channels on the patch embedding's token grid.
    w_scales holds one tuple of block init scales per stage, so stage s has
    len(w_scales[s]) blocks; a stage only labels them (stageS.blockB), which
    addresses their weight streams and weight files.

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
    channels: int = 32
    # Defaults tuned once on the synthetic task: quiet early blocks preserve
    # stage-1 burst structure exactly; the final block is strong enough that
    # its attention updates carry class-relevant signal.
    w_scales: tuple[tuple[float, ...], ...] = ((0.0625,), (0.0625,), (0.0625, 1.25))
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
        if min(self.in_channels, self.height, self.width, self.channels) < 1:
            raise ConfigError("in_channels, height, width and channels must be >= 1")
        if not self.w_scales or not all(self.w_scales):
            raise ConfigError("at least one stage required, each with at least one block")
        object.__setattr__(self, "w_scales", tuple(tuple(map(float, st)) for st in self.w_scales))
        self.parse_insert()

    def parse_insert(self) -> int:
        """insert_block 'S.B' (S 1-based, B 0-based within stage S) -> the
        block's position in Model.flat_blocks."""
        text = self.insert_block
        try:
            s_str, b_str = text.split(".")
            s, b = int(s_str) - 1, int(b_str)
        except Exception as exc:
            raise ConfigError(f"bad insert block {text!r}, expected 'S.B'") from exc
        if not 0 <= s < len(self.w_scales) or not 0 <= b < len(self.w_scales[s]):
            raise ConfigError(f"insert block {text!r} outside model layout")
        return sum(len(st) for st in self.w_scales[:s]) + b

    @property
    def embed_shape(self) -> tuple[int, int, int]:
        """[N, patch*patch*in_channels, channels]: the patch embedding's weights."""
        n_tokens = (self.height // self.patch) * (self.width // self.patch)
        return n_tokens, self.patch * self.patch * self.in_channels, self.channels


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


@dataclass
class Model:
    config: ModelConfig
    embed_w: DenseTensor  # [N, patch*patch*in_channels, D]
    blocks: list[list[SsaBlockWeights]]  # per stage
    head: HeadWeights

    @property
    def flat_blocks(self) -> list[SsaBlockWeights]:
        """Every block in forward order, stage by stage."""
        return [blk for stage in self.blocks for blk in stage]


def init_model(config: ModelConfig) -> Model:
    """Deterministic weight construction from (config, config.seed)."""
    d = config.channels
    emb = stream(config.seed, "embed").sign_magnitude(config.embed_shape, config.embed_scale)
    embed_w = DenseTensor(emb.astype(np.float32))

    blocks: list[list[SsaBlockWeights]] = []
    for s, scales in enumerate(config.w_scales):
        label = f"stage{s + 1}"
        stage_blocks = []
        for b, scale in enumerate(scales):
            ws = []
            for name in ("wq", "wk", "wv", "wproj"):
                w = stream(config.seed, f"{label}.block{b}.{name}").uniform_grid(
                    (d, d), scale
                )
                ws.append(DenseTensor(w.astype(np.float32)))
            stage_blocks.append(
                SsaBlockWeights(*ws, lif=config.lif, shift=config.attn_shift,
                                label=f"{label}.block{b}")
            )
        blocks.append(stage_blocks)
    head_w = stream(config.seed, "head").uniform_grid(
        (d, config.num_classes), 0.125
    )
    head = HeadWeights(DenseTensor(head_w.astype(np.float32)),
                       DenseTensor(np.zeros(config.num_classes, dtype=np.float32)))
    return Model(config=config, embed_w=embed_w, blocks=blocks, head=head)


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


def patch_embed(frames: SpikeTensor, patch: int, weights: DenseTensor, lif: LifParams,
                ledger: Optional[SopLedger] = None,
                label: str = "stage1.embed") -> SpikeTensor:
    """Project non-overlapping patches per position, then spike via LIF.

    frames: spike frames [T,B,n,H,W], counted as spike-accumulates.
    weights: [N, patch*patch*n, D].

    One step at a time: a per-position batched matmul [N,B,F] @ [N,F,D] gives
    the step's current and lif_step turns it into spikes, so the [T,B,N,D]
    current is never held. Every product and partial sum of binary patches
    is exact, so the bits equal those of one einsum "tbnf,nfd->tbnd" over
    all steps.
    """
    patches = extract_patches(frames, patch)
    t, b, n_tok, n_feat = patches.shape
    wf = weights.data.astype(np.float64)
    if wf.shape[0] != n_tok or wf.shape[1] != n_feat:
        raise ShapeError(f"embed weights {weights.shape} vs patches {patches.shape}")
    d = wf.shape[2]
    if ledger is not None:
        ledger.add(label, spike_accumulates=count_linear(np.count_nonzero(patches), d))
    # looked up at call time, as in ssa_forward
    from .neuron import lif_step

    state = LifState.zeros(lif, (n_tok, b, d))
    out = np.empty((t, b, n_tok, d), dtype=np.uint8)
    for step in range(t):
        current = np.matmul(patches[step].transpose(1, 0, 2), wf)  # [N,B,D]
        out[step] = lif_step(state, current).transpose(1, 0, 2)
    return SpikeTensor(out)


def attention_core(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = Q K^T (integer-valued), Y = A V. Inputs are binary [.., N, D] arrays."""
    a = q @ np.swapaxes(k, -1, -2)
    return a, a @ v


def ssa_forward(x: SpikeTensor, w: SsaBlockWeights,
                ledger: Optional[SopLedger] = None) -> SpikeTensor:
    """Spike-driven self-attention block over [T,B,N,D].

    Per timestep: Q/K/V = LIF(linear(x_t)) with states carried across time,
    K and V computed as one [D, 2D] projection into one shared [B, m, 2D]
    state; Y = (Q K^T) V; output current = proj(Y) * 2**-shift + x_t
    (residual enters as current), binarized by the output LIF. No softmax,
    no normalization.

    Silent-token law: a token whose input row is zero at every step is a fixed
    point of the block for any weights (there are no biases). Its membranes
    stay at 0, so its Q, K and V rows are 0, its row of A is 0 and it emits
    no spike, and its K and V rows add only exact zeros to the other tokens'
    sums. The block therefore runs on each sample's active tokens, gathered
    in ascending order and padded to the batch's largest active count with
    the sample's own silent tokens, and scatters the result into a zero
    output. Every matmul operand sits on the dyadic grid, so dropping the
    zero terms changes no bit.

    Silent-query law: Q is spiked for all T steps first, and K/V, attention
    and the output projection run only for the samples whose Q fires at some
    step, reordered to the front of the batch so that they are a leading
    slice. Every other sample has Q = 0 at every step, hence A = 0 and Y = 0,
    and (0 W_p) 2^-shift + x_t has the bits of x_t (+0.0 or 1.0; a signed
    zero added to it vanishes), so its output current is x_t itself. An
    empty query set runs the same code on zero-size arrays. Charges stay
    structural and are counted on the full N: qkv x3 from nnz(x_t), attn
    from nnz(Q) over N tokens, proj on all B*N rows.
    """
    t_steps, b, n, d = x.shape
    if w.w_q.shape[0] != d:
        raise ShapeError(f"block dim {w.w_q.shape[0]} vs input D={d}")
    wq = w.w_q.data.astype(np.float64)
    # one [D, 2D] projection and one LIF state for K and V: LIF is elementwise
    # and the matmul exact, so every bit equals two separate ones
    wkv = np.concatenate([w.w_k.data, w.w_v.data], axis=1).astype(np.float64)
    wp = w.w_proj.data.astype(np.float64)
    scale = 2.0 ** (-w.shift)
    active = x.data.any(axis=0).any(axis=-1)  # [B,N]
    # at least one row keeps an all-silent batch on the same path
    m = max(int(active.sum(axis=1).max()), 1)
    # stable: each sample's active tokens ascending, then its silent ones
    idx = np.argsort(~active, axis=1, kind="stable")[:, :m]
    xs = x.data[:, np.arange(b)[:, None], idx]  # [T,B,m,D]
    # looked up in neuron at call time, not bound at import: a wrapper
    # patched onto neuron.lif_step (a tracer, a test) must see every step
    from .neuron import lif_step

    q_state = LifState.zeros(w.lif, (b, m, d))
    q = np.empty((t_steps, b, m, d), dtype=np.uint8)
    for t in range(t_steps):
        q[t] = lif_step(q_state, xs[t].astype(np.float64) @ wq)
    del q_state  # its [B,m,D] membrane is not needed past this point
    # queried samples first, so that they are a leading slice (a view) of
    # every per-step array and the others need no copy of their own
    queried = q.any(axis=(0, 2, 3))  # [B]
    order = np.argsort(~queried, kind="stable")
    s = int(queried.sum())
    xs, q, idx = xs[:, order], q[:, order], idx[order]
    kv_state = LifState.zeros(w.lif, (s, m, 2 * d))
    out_state = LifState.zeros(w.lif, (b, m, d))
    spikes = np.empty((t_steps, b, m, d), dtype=np.uint8)
    for t in range(t_steps):
        xt = xs[t].astype(np.float64)  # [B,m,D]; the output LIF's current
        kv = lif_step(kv_state, xt[:s] @ wkv)  # [s,m,2D] uint8: K | V
        # no float64 Q, K, V or A outlives the expression
        z = attention_core(q[t, :s].astype(np.float64), kv[..., :d].astype(np.float64),
                           kv[..., d:].astype(np.float64))[1] @ wp
        z *= scale
        # IEEE addition commutes exactly, so this is z + x_t bit for bit
        xt[:s] += z
        spikes[t] = lif_step(out_state, xt)
        if ledger is not None:
            nnz_x = np.count_nonzero(xs[t])
            ledger.add(f"{w.label}.qkv", spike_accumulates=count_linear(nnz_x, d) * 3)
            sa, macs = count_attention(np.count_nonzero(q[t]), n, d)
            ledger.add(f"{w.label}.attn", spike_accumulates=sa, dense_macs=macs * b)
            ledger.add(f"{w.label}.proj", dense_macs=b * n * d * d)
    out = np.zeros((t_steps, b, n, d), dtype=np.uint8)
    out[:, order[:, None], idx] = spikes
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
# a block's weight file <label>.<name>.spkt holds its field attr, as (name, attr)
_BLOCK_FILES = (("wq", "w_q"), ("wk", "w_k"), ("wv", "w_v"), ("wproj", "w_proj"))
# scalar manifest key -> the ModelConfig field it holds: save_model writes
# str(value), load_model parses it with the type of the field's default
_MANIFEST_FIELDS = {"classes": "num_classes", **{name: name for name in (
    "seed", "steps", "in_channels", "height", "width", "patch", "embed_scale",
    "attn_shift", "insert_block")}}


def save_model(model: Model, directory: Union[str, Path]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cfg = model.config
    entries = {key: str(getattr(cfg, name)) for key, name in _MANIFEST_FIELDS.items()}
    entries.update({"format": _FORMAT, "tau": repr(cfg.lif.tau), "vth": repr(cfg.lif.v_th),
                    "n_stages": str(len(cfg.w_scales))})
    for s, scales in enumerate(cfg.w_scales, 1):
        entries[f"stage{s}.channels"] = str(cfg.channels)
        entries[f"stage{s}.blocks"] = str(len(scales))
        entries[f"stage{s}.w_scales"] = ",".join(repr(v) for v in scales)
    write_manifest(directory / "manifest.txt", entries)
    write_tensor(directory / "embed.spkt", model.embed_w)
    for blk in model.flat_blocks:
        for name, attr in _BLOCK_FILES:
            write_tensor(directory / f"{blk.label}.{name}.spkt", getattr(blk, attr))
    write_tensor(directory / "head.w.spkt", model.head.w)
    write_tensor(directory / "head.b.spkt", model.head.b)


def _read_shaped(path: Path, shape: tuple[int, ...]) -> Tensor:
    t = read_tensor(path)
    if t.shape != shape:
        raise ShapeError(f"{path}: shape {t.shape}, the manifest asks for {shape}")
    return t


def load_model(directory: Union[str, Path]) -> Model:
    """The model saved in directory. Each weight file must have the shape the
    manifest implies; embed and head are checked before init_model runs."""
    directory = Path(directory)
    path = directory / "manifest.txt"
    m = read_manifest(path)
    if m.get("format") != _FORMAT:
        raise ConfigError(f"unsupported model format {m.get('format')!r}")
    with manifest_fields(path):
        w_scales, widths = [], set()
        for key in (f"stage{s + 1}" for s in range(int(m["n_stages"]))):
            # manifests written before stages lost their entry transform
            # carry stageN.downsample=1, which every layout here satisfies
            legacy = m.get(f"{key}.downsample", "1")
            if legacy != "1":
                raise ValueError(f"{key}.downsample={legacy}: no stage downsamples")
            widths.add(int(m[f"{key}.channels"]))
            w_scales.append(tuple(float(v) for v in m[f"{key}.w_scales"].split(",")))
            if int(m[f"{key}.blocks"]) != len(w_scales[-1]):
                raise ValueError(f"{key}.blocks differs from the number of {key}.w_scales")
        if len(widths) > 1:
            raise ValueError(f"stage widths {sorted(widths)} differ; every stage has one width")
        cfg = ModelConfig(
            channels=min(widths, default=ModelConfig.channels), w_scales=tuple(w_scales),
            lif=LifParams(tau=float(m["tau"]), v_th=float(m["vth"])),
            **{name: type(getattr(ModelConfig, name))(m[key])
               for key, name in _MANIFEST_FIELDS.items()})
    d, c = cfg.channels, cfg.num_classes
    embed_w = _read_shaped(directory / "embed.spkt", cfg.embed_shape)
    head = HeadWeights(_read_shaped(directory / "head.w.spkt", (d, c)),
                       _read_shaped(directory / "head.b.spkt", (c,)))
    model = init_model(cfg)
    model.embed_w, model.head = embed_w, head
    model.blocks = [[replace(blk, **{attr: _read_shaped(directory / f"{blk.label}.{name}.spkt",
                                                        (d, d))
                                     for name, attr in _BLOCK_FILES})
                     for blk in stage] for stage in model.blocks]
    return model
