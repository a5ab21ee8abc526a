"""Micro-scale vision model built on TTT blocks, plus optimizer and FLOPs accounting.

Assembly: patch embed -> depth x [CPE residual + TTT(LN x) + MLP(LN x)] ->
global average pooling -> linear head. Pre-norm, ratio-4 SiLU MLP, conditional
positional encoding as a shared depthwise-conv residual before each block.
Forward/backward run batched on [b, N, C] rows over one tape.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .autodiff import Node, Tape
from .inner import InnerArch, InnerTrainConfig, get_arch, inner_update_nodes
from .layer import TTTLayerParams, ttt_attention, ttt_attention_nodes


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
    return model.forward_nodes(Tape(record=False), images).value


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
    """AdamW moments of every parameter, each packed into one flat buffer in params order."""
    m: np.ndarray
    v: np.ndarray
    names: tuple[str, ...]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]):
        dtypes = sorted({str(p.dtype) for p in params.values()})
        if len(dtypes) != 1:
            raise TypeError(f"AdamW needs parameters of one dtype, got {dtypes}")
        size = sum(p.size for p in params.values())
        return cls(m=np.zeros(size, dtypes[0]), v=np.zeros(size, dtypes[0]),
                   names=tuple(params))


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: OptState, lr: float, betas=(0.9, 0.999), eps=1e-8,
               weight_decay: float = 0.0):
    """Decoupled-weight-decay Adam update, in place; returns (params, state).

    Each pass runs once over all parameters packed flat, and each parameter is
    written back in place, so the arrays the tapes and layer params share stay
    the same objects.
    """
    if tuple(params) != state.names:
        raise ad.ContractError("params do not match the names their OptState was built for")
    state.step += 1
    t = state.step
    b1, b2 = betas
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m, v = state.m, state.v
    g = np.concatenate([grads[name].ravel() for name in params], dtype=m.dtype,
                       casting="same_kind")
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    update = (m / c1) / (np.sqrt(v / c2) + eps)
    flat = np.concatenate([p.ravel() for p in params.values()])
    if weight_decay:
        update += weight_decay * flat
    flat -= lr * update
    lo = 0
    for p in params.values():
        p[...] = flat[lo:lo + p.size].reshape(p.shape)
        lo += p.size
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
# FLOPs, counted by running the code (multiply-add = 2 FLOPs)

def _pullbacks_apart(arch: InnerArch) -> InnerArch:
    """A copy of `arch` whose pullbacks tick a counter of their own.

    Counters nest independently, so an enclosing count skips the pullbacks.
    """
    counted = copy.copy(arch)

    def forward_pullback(ws, x, grid=None):
        out, pullback = arch.forward_pullback(ws, x, grid)

        def apart(dv):
            with T.count_flops():
                return pullback(dv)

        return out, apart

    counted.forward_pullback = forward_pullback
    return counted


def ttt_layer_flops(n: int, dim: int, heads: int, head_archs, inner: InnerTrainConfig,
                    grid=None) -> dict:
    """Counted FLOPs of one TTT layer forward on n tokens, and its inner-cost ratio.

    `total_executed` is what one `ttt_attention` runs. `ratio` is the
    forward-equivalent inner cost over one forward of the heads' modules: the
    inner loop and the query pass as executed, with each weight-gradient
    pullback counted as two module forwards (backward = 2x forward). Counts
    depend on shapes only; zero inputs keep the inner loop finite at any lr.
    """
    params = TTTLayerParams.create(np.random.default_rng(0), dim, heads, head_archs)
    with T.count_flops() as total:
        ttt_attention(np.zeros((n, dim)), params, inner, grid)
    tape = Tape(record=False)
    kv = tape.leaf(np.zeros((n, params.head_dim)))
    rate = tape.leaf(np.zeros(n)) if inner.dynamic_lr else None
    convention = module = 0
    for name, model in zip(params.head_archs, params.inner):
        arch = get_arch(name)
        ws = [tape.leaf(w) for w in model.weights]
        with T.count_flops() as fwd:
            arch.forward(ws, kv, grid)
        with T.count_flops() as loop:
            inner_update_nodes(_pullbacks_apart(arch), ws, kv, kv, inner, rate, grid)
        convention += loop.total + (2 * inner.epochs + 1) * fwd.total
        module += fwd.total
    return {"total_executed": total.total, "ratio": convention / module}


def flops_estimate(cfg: ModelConfig) -> dict:
    """Counted FLOPs of one image's forward pass, and the TTT layers' inner-cost ratio.

    `total_executed` is what `forward_classifier` runs on one image; `ttt_ratio`
    is `ttt_layer_flops(...)["ratio"]` at the model's shapes.
    """
    model = Model(cfg, np.random.default_rng(0))
    with T.count_flops() as total:
        forward_classifier(model, np.zeros((1, cfg.image_size, cfg.image_size, 3)))
    layer = ttt_layer_flops(cfg.tokens, cfg.dim, cfg.heads, cfg.head_archs, cfg.inner,
                            cfg.grid)
    return {"total_executed": total.total, "ttt_ratio": layer["ratio"]}


# ---------------------------------------------------------------------------
# checkpoints: JSON name->offset index plus tensor container

def save_checkpoint(dirpath: str, params: dict[str, np.ndarray], meta: dict | None = None):
    """Write both files under temporary names, then move each into place.

    A save that fails partway leaves the previous checkpoint as it was.
    """
    os.makedirs(dirpath, exist_ok=True)
    index = {}
    paths = [os.path.join(dirpath, name) for name in ("checkpoint.bin", "checkpoint.json")]
    tmps = [p + ".tmp" for p in paths]
    try:
        with open(tmps[0], "wb") as fp:
            for name in sorted(params):
                index[name] = T.write_tensor(fp, params[name])
        doc = {"index": index}
        if meta:
            doc["meta"] = meta
        with open(tmps[1], "w") as fp:
            json.dump(doc, fp, indent=1, sort_keys=True)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)


def load_checkpoint(dirpath: str) -> dict[str, np.ndarray]:
    with open(os.path.join(dirpath, "checkpoint.json")) as fp:
        doc = json.load(fp)
    out = {}
    with open(os.path.join(dirpath, "checkpoint.bin"), "rb") as fp:
        for name, offset in doc["index"].items():
            fp.seek(offset)
            out[name] = T.read_tensor(fp)
    return out
