"""Micro-scale vision model built on TTT blocks, plus optimizer and FLOPs accounting.

Assembly: patch embed -> depth x [CPE residual + TTT(LN x) + MLP(LN x)] ->
global average pooling -> linear head. Pre-norm, ratio-4 SiLU MLP, conditional
positional encoding as a shared depthwise-conv residual before each block.
Forward/backward run batched on [b, N, C] rows over one tape.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .autodiff import Node, Tape
from .inner import InnerTrainConfig, get_arch, partition_batches
from .layer import TTTLayerParams, ttt_attention_nodes


def default_head_archs(heads: int) -> tuple[str, ...]:
    """One depthwise-conv head, gated-linear heads elsewhere."""
    return ("dwconv3x3",) + ("gated_fc",) * (heads - 1)


@dataclass
class ModelConfig:
    image_size: int = 32
    patch_size: int = 4
    dim: int = 64
    heads: int = 4
    depth: int = 4
    mlp_ratio: float = 4.0
    num_classes: int = 10
    inner: InnerTrainConfig = field(default_factory=InnerTrainConfig)
    head_archs: tuple[str, ...] = ()
    normalize_qk: bool = False

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise T.DimensionError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.image_size % self.patch_size != 0:
            raise T.DimensionError("patch size must divide image size")
        if not self.head_archs:
            self.head_archs = default_head_archs(self.heads)
        if isinstance(self.head_archs, list):
            self.head_archs = tuple(self.head_archs)

    @property
    def grid(self) -> tuple[int, int]:
        s = self.image_size // self.patch_size
        return (s, s)

    @property
    def tokens(self) -> int:
        s = self.image_size // self.patch_size
        return s * s


def micro_config(**overrides) -> ModelConfig:
    """The desk-scale default: dim 64, 4 heads, 4 blocks, patch 4."""
    return ModelConfig(**overrides)


class Model:
    """Parameter store plus forward builders; arrays are updated in place."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.layers: list[TTTLayerParams] = []
        self.params: dict[str, np.ndarray] = {}
        c, p = cfg.dim, cfg.patch_size
        patch_in = p * p * 3

        def normal(shape, std=0.02):
            return (rng.standard_normal(shape) * std).astype(dtype)

        self.params["patch.w"] = normal((patch_in, c))
        self.params["patch.b"] = np.zeros(c, dtype=dtype)
        for i in range(cfg.depth):
            lay = TTTLayerParams.create(rng, c, cfg.heads, cfg.head_archs, dtype=dtype,
                                        normalize_qk=cfg.normalize_qk)
            self.layers.append(lay)
            self.params.update(lay.named_arrays(prefix=f"b{i}.ttt."))
            self.params[f"b{i}.cpe"] = normal((3, 3, c), std=1.0 / 3.0)
            hid = int(cfg.mlp_ratio * c)
            self.params[f"b{i}.ln1.g"] = np.ones(c, dtype=dtype)
            self.params[f"b{i}.ln1.b"] = np.zeros(c, dtype=dtype)
            self.params[f"b{i}.ln2.g"] = np.ones(c, dtype=dtype)
            self.params[f"b{i}.ln2.b"] = np.zeros(c, dtype=dtype)
            self.params[f"b{i}.mlp.w1"] = normal((c, hid))
            self.params[f"b{i}.mlp.b1"] = np.zeros(hid, dtype=dtype)
            self.params[f"b{i}.mlp.w2"] = normal((hid, c))
            self.params[f"b{i}.mlp.b2"] = np.zeros(c, dtype=dtype)
        self.params["head.w"] = normal((c, cfg.num_classes))
        self.params["head.b"] = np.zeros(cfg.num_classes, dtype=dtype)

    def n_params(self) -> int:
        return sum(int(p.size) for p in self.params.values())

    # -- tape builders ------------------------------------------------------

    def _leaves(self, tape: Tape) -> dict[str, Node]:
        return {name: tape.leaf(arr, name=name, param=True)
                for name, arr in self.params.items()}

    def forward_nodes(self, tape: Tape, images: np.ndarray) -> Node:
        cfg = self.cfg
        leaves = self._leaves(tape)
        tok = unfold_patches(images.astype(self.dtype), cfg.patch_size)
        x = ad.linear(tape.leaf(tok), leaves["patch.w"], leaves["patch.b"])
        for i in range(cfg.depth):
            x = ttt_block_nodes(x, leaves, self.layers[i], cfg, prefix=f"b{i}.")
        pooled = ad.mean_tokens(x)
        return ad.linear(pooled, leaves["head.w"], leaves["head.b"])

    def loss_and_grads(self, images: np.ndarray, labels: np.ndarray):
        tape = Tape()
        logits = self.forward_nodes(tape, images)
        loss = ad.cross_entropy(logits, labels)
        grads = tape.backward(loss)
        return float(loss.value), grads, logits.value


def ttt_block_nodes(x: Node, leaves: dict[str, Node], layer: TTTLayerParams,
                    cfg: ModelConfig, prefix: str) -> Node:
    hp, wp = cfg.grid
    lead = x.value.shape[:-2]
    xg = ad.reshape(x, (*lead, hp, wp, cfg.dim))
    cpe = ad.reshape(ad.dwconv3x3(xg, leaves[f"{prefix}cpe"]), x.value.shape)
    x = ad.add(x, cpe)
    h = ad.layer_norm(x, leaves[f"{prefix}ln1.g"], leaves[f"{prefix}ln1.b"])
    x = ad.add(x, ttt_attention_nodes(h, leaves, layer, cfg.inner, cfg.grid,
                                      prefix=f"{prefix}ttt."))
    h = ad.layer_norm(x, leaves[f"{prefix}ln2.g"], leaves[f"{prefix}ln2.b"])
    m = ad.silu(ad.linear(h, leaves[f"{prefix}mlp.w1"], leaves[f"{prefix}mlp.b1"]))
    m = ad.linear(m, leaves[f"{prefix}mlp.w2"], leaves[f"{prefix}mlp.b2"])
    return ad.add(x, m)


def forward_classifier(model: Model, images: np.ndarray) -> np.ndarray:
    """Logits for a [b, H, W, 3] image batch."""
    tape = Tape()
    return model.forward_nodes(tape, images).value


# ---------------------------------------------------------------------------
# patchification

def unfold_patches(images: np.ndarray, p: int) -> np.ndarray:
    """[b, H, W, 3] -> [b, N, p*p*3] non-overlapping patch rows (raster order)."""
    if images.ndim == 3:
        images = images[None]
    b, h, w, c = images.shape
    if h % p or w % p:
        raise T.DimensionError(f"patch {p} does not divide image {h}x{w}")
    x = images.reshape(b, h // p, p, w // p, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x).reshape(b, (h // p) * (w // p), p * p * c)


def fold_patches(tokens: np.ndarray, p: int, hw: tuple[int, int]) -> np.ndarray:
    """Inverse of unfold_patches."""
    h, w = hw
    b = tokens.shape[0]
    c = tokens.shape[-1] // (p * p)
    x = tokens.reshape(b, h // p, w // p, p, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x).reshape(b, h, w, c)


def patch_embed(image: np.ndarray, p: int, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flatten non-overlapping patches of one [H, W, 3] image and project to [N, C]."""
    tok = unfold_patches(image[None], p)[0]
    return tok @ w + b


# ---------------------------------------------------------------------------
# outer optimizer

@dataclass
class OptState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]):
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: OptState, lr: float, betas=(0.9, 0.999), eps=1e-8,
               weight_decay: float = 0.0):
    """Decoupled-weight-decay Adam update, in place; returns (params, state)."""
    state.step += 1
    t = state.step
    b1, b2 = betas
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name].astype(p.dtype, copy=False)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        if weight_decay:
            update = update + weight_decay * p
        p -= lr * update
    return params, state


def cosine_warmup_lr(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear warmup then cosine decay to zero."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    if total_steps <= warmup_steps:
        return base_lr
    prog = (step - warmup_steps) / (total_steps - warmup_steps)
    prog = min(max(prog, 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * prog))


# ---------------------------------------------------------------------------
# FLOPs accounting (multiply-add = 2 FLOPs, matching the runtime counter)

def arch_forward_flops(name: str, n: int, d: int) -> int:
    if name == "fc":
        return 2 * n * d * d
    if name == "silu_fc":
        return 2 * n * d * d + 4 * n * d
    if name == "swiglu":
        return 6 * n * d * d + 5 * n * d
    if name in ("gated_fc", "mlp_residual", "mlp_w2_plus_i"):
        return 4 * n * d * d + 5 * n * d
    if name == "mlp_w2_init_i":
        return 4 * n * d * d + 4 * n * d
    if name == "conv3x3":
        return 18 * n * d * d
    if name == "dwconv3x3":
        return 18 * n * d
    arch = get_arch(name)                               # mlp_r{r}_l{l}
    h = arch.ratio * d
    if arch.layers == 2:
        return 4 * n * d * h + 4 * n * h
    return 2 * n * d * h + 2 * n * h * h + 2 * n * h * d + 8 * n * h


def arch_wgrad_flops(name: str, n: int, d: int) -> int:
    """Cost of the pullback's weight-gradient expressions as actually executed."""
    if name == "fc":
        return 2 * n * d * d
    if name == "silu_fc":
        return 2 * n * d * d + 7 * n * d
    if name == "swiglu":
        return 8 * n * d * d + 9 * n * d
    if name == "gated_fc":
        return 4 * n * d * d + 9 * n * d
    if name in ("mlp_residual", "mlp_w2_init_i"):
        return 6 * n * d * d + 7 * n * d
    if name == "mlp_w2_plus_i":
        return 6 * n * d * d + 8 * n * d
    if name == "conv3x3":
        return 18 * n * d * d
    if name == "dwconv3x3":
        return 18 * n * d
    arch = get_arch(name)                               # mlp_r{r}_l{l}
    h = arch.ratio * d
    if arch.layers == 2:
        return 6 * n * d * h + 7 * n * h
    return 6 * n * d * h + 4 * n * h * h + 14 * n * h


def loss_grad_flops(kind: str, n: int, d: int) -> int:
    """Cost of one mini-batch's loss gradient on n rows (rmse adds its scalar norm)."""
    per_entry = {"dot": 1, "mse": 2, "rmse": 5, "mae": 3, "smooth_l1": 4}[kind]
    return per_entry * n * d + (2 if kind == "rmse" else 0)


def weight_count(name: str, d: int) -> int:
    return sum(int(np.prod(s)) for s in get_arch(name).weight_shapes(d))


def inner_head_flops(name: str, kind: str, n: int, d: int, epochs: int, parts: int,
                     dynamic_lr: bool, grid=None) -> dict:
    """Executed cost and the forward-equivalent convention cost of one inner head.

    Each mini-batch runs its forward and pullback on the rows `arch.context`
    names: the batch itself, or for conv heads (which need the (H, W) grid)
    its grid rows plus a one-row halo.
    """
    arch = get_arch(name)
    ranges = partition_batches(n, parts)
    ctx = sum(chi - clo for clo, chi in (arch.context(lo, hi, grid) for lo, hi in ranges))
    fwd, ctx_fwd = arch_forward_flops(name, n, d), arch_forward_flops(name, ctx, d)
    lg = sum(loss_grad_flops(kind, hi - lo, d) for lo, hi in ranges)
    if dynamic_lr:
        lg += n * d                                    # colscale by the token rates
    step = (1 if dynamic_lr else 2) * weight_count(name, d) * parts   # [scale+]sub per update
    executed = epochs * (ctx_fwd + arch_wgrad_flops(name, ctx, d) + lg + step) + fwd
    convention = epochs * (ctx_fwd + 2 * fwd + lg + step) + fwd
    return {"executed": executed, "convention": convention, "module_forward": fwd}


def ttt_layer_flops(n: int, dim: int, heads: int, head_archs, inner: InnerTrainConfig,
                    grid=None) -> dict:
    d = dim // heads
    proj = 3 * heads * 2 * n * dim * d
    if inner.dynamic_lr:
        proj += heads * (2 * n * dim + 4 * n)          # rate projection + sigmoid
    wo = 2 * n * dim * dim
    inner_exec = inner_conv = mod_fwd = 0
    for name in head_archs:
        f = inner_head_flops(name, inner.loss, n, d, inner.epochs, inner.parts,
                             inner.dynamic_lr, grid)
        inner_exec += f["executed"]
        inner_conv += f["convention"]
        mod_fwd += f["module_forward"]
    return {
        "outer": proj + wo,
        "inner_executed": inner_exec,
        "inner_convention": inner_conv,
        "module_forward": mod_fwd,
        "ratio": inner_conv / mod_fwd,
        "total_executed": proj + wo + inner_exec,
    }


def softmax_layer_flops(n: int, dim: int, heads: int) -> dict:
    d = dim // heads
    proj = 3 * heads * 2 * n * dim * d
    attn = heads * (2 * n * n * d + 4 * n * n + 2 * n * n * d)
    wo = 2 * n * dim * dim
    return {"outer": proj + wo + attn, "total_executed": proj + wo + attn}


def flops_estimate(cfg: ModelConfig) -> dict:
    """Analytic multiply-add counts for one forward pass of one image.

    `ttt_ratio` is the forward-equivalent inner/outer FLOPs ratio per TTT
    layer (backward counted as 2x forward); `total_executed` counts the ops the
    implementation actually runs and is what the runtime counter should match.
    """
    n, c = cfg.tokens, cfg.dim
    patch = 2 * n * (cfg.patch_size ** 2 * 3) * c + n * c
    layer = ttt_layer_flops(n, c, cfg.heads, cfg.head_archs, cfg.inner, cfg.grid)
    hid = int(cfg.mlp_ratio * c)
    mlp = 2 * n * c * hid + 4 * n * hid + 2 * n * hid * c + n * hid + n * c
    cpe = 18 * n * c
    ln = 8 * n * c
    residuals = 3 * n * c
    block = cpe + 2 * ln + layer["total_executed"] + mlp + residuals
    head = n * c + 2 * c * cfg.num_classes + cfg.num_classes
    total = patch + cfg.depth * block + head
    outer_only = total - cfg.depth * layer["inner_executed"]
    return {
        "total_executed": total,
        "outer_forward": outer_only,
        "inner_per_layer": layer["inner_executed"],
        "inner_convention_per_layer": layer["inner_convention"],
        "ttt_module_forward": layer["module_forward"],
        "ttt_ratio": layer["ratio"],
    }


# ---------------------------------------------------------------------------
# checkpoints: JSON name->offset index plus tensor container

def save_checkpoint(dirpath: str, params: dict[str, np.ndarray], meta: dict | None = None):
    os.makedirs(dirpath, exist_ok=True)
    index = {}
    with open(os.path.join(dirpath, "checkpoint.bin"), "wb") as fp:
        for name in sorted(params):
            index[name] = T.write_tensor(fp, params[name])
    doc = {"index": index}
    if meta:
        doc["meta"] = meta
    with open(os.path.join(dirpath, "checkpoint.json"), "w") as fp:
        json.dump(doc, fp, indent=1, sort_keys=True)


def load_checkpoint(dirpath: str) -> dict[str, np.ndarray]:
    with open(os.path.join(dirpath, "checkpoint.json")) as fp:
        doc = json.load(fp)
    out = {}
    with open(os.path.join(dirpath, "checkpoint.bin"), "rb") as fp:
        for name, offset in doc["index"].items():
            fp.seek(offset)
            out[name] = T.read_tensor(fp)
    return out
