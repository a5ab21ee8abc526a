"""Micro-scale vision model built on TTT blocks, plus optimizer and FLOPs accounting.

Assembly: patch embed -> depth x [CPE residual + TTT(LN x) + MLP(LN x)] ->
global average pooling -> linear head over the CIFAR_CLASSES classes. Pre-norm,
ratio-4 SiLU MLP, conditional positional encoding as a shared depthwise-conv
residual before each block. Forward/backward run batched on [b, N, C] rows, at
most STEP_ROWS rows per tape. FLOPs are counted per TTT layer by running it.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .autodiff import Node, Tape
from .data import CIFAR_CLASSES
from .inner import InnerTrainConfig, get_arch, inner_update_nodes
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
    inner: InnerTrainConfig = field(default_factory=InnerTrainConfig)
    head_archs: tuple[str, ...] = ()
    num_classes = CIFAR_CLASSES     # a constant, not a field

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise T.DimensionError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.image_size % self.patch_size != 0:
            raise T.DimensionError(f"patch_size {self.patch_size} does not divide "
                                   f"image_size {self.image_size}")
        if not self.head_archs:
            self.head_archs = default_head_archs(self.heads)

    @property
    def grid(self) -> tuple[int, int]:
        s = self.image_size // self.patch_size
        return (s, s)

    @property
    def tokens(self) -> int:
        s = self.image_size // self.patch_size
        return s * s


# Token rows one training-step tape holds at most; more chunks cost step time
STEP_ROWS = 2048


class Classifier:
    """A parameter store with a logits builder; arrays are updated in place.

    Subclasses set `params` and their TTT layers' `head_archs`, `tokens` per
    sample and `grid` (or None), and define `logits_nodes(tape, x)`.
    """

    def n_params(self) -> int:
        return sum(int(p.size) for p in self.params.values())

    def _leaves(self, tape: Tape) -> dict[str, Node]:
        return {name: tape.leaf(arr, name=name, param=True)
                for name, arr in self.params.items()}

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray):
        """Mean cross-entropy of a batch, its parameter gradients and its logits.

        Samples interact only through the loss, so a batch of more than
        STEP_ROWS token rows runs as chunks, each on a tape that backward
        spends before the next records. Each chunk's loss is divided by the
        whole batch, so every row's cotangent is the one-tape step's bit for
        bit; only the sums over chunks round differently.
        """
        n, size = len(x), max(1, STEP_ROWS // self.tokens)
        loss, grads, logits = 0.0, {}, []
        for lo in range(0, n, size):
            tape = Tape()
            out = self.logits_nodes(tape, x[lo:lo + size])
            nll = ad.cross_entropy(out, labels[lo:lo + size], total=n)
            for name, g in tape.backward(nll).items():
                grads[name] = grads[name] + g if name in grads else g
            loss += float(nll.value)
            logits.append(out.value)
        return loss, grads, np.concatenate(logits)


class Model(Classifier):
    """The micro vision classifier."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.head_archs, self.tokens, self.grid = cfg.head_archs, cfg.tokens, cfg.grid
        self.layers: list[TTTLayerParams] = []
        self.params: dict[str, np.ndarray] = {}
        c, p = cfg.dim, cfg.patch_size
        patch_in = p * p * 3

        def normal(shape, std=0.02):
            return (rng.standard_normal(shape) * std).astype(dtype)

        self.params["patch.w"] = normal((patch_in, c))
        self.params["patch.b"] = np.zeros(c, dtype=dtype)
        for i in range(cfg.depth):
            lay = TTTLayerParams.create(rng, c, cfg.heads, cfg.head_archs, dtype=dtype)
            self.layers.append(lay)
            self.params.update(lay.named_arrays(prefix=f"b{i}.ttt."))
            self.params[f"b{i}.cpe"] = normal((3, 3, c), std=1.0 / 3.0)
            hid = 4 * c
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

    def logits_nodes(self, tape: Tape, images: np.ndarray) -> Node:
        cfg = self.cfg
        leaves = self._leaves(tape)
        tok = unfold_patches(images.astype(self.dtype), cfg.patch_size)
        x = ad.linear(tape.leaf(tok), leaves["patch.w"], leaves["patch.b"])
        for i in range(cfg.depth):
            x = ttt_block_nodes(x, leaves, self.layers[i], cfg, prefix=f"b{i}.")
        pooled = ad.mean_tokens(x)
        return ad.linear(pooled, leaves["head.w"], leaves["head.b"])


def ttt_block_nodes(x: Node, leaves: dict[str, Node], layer: TTTLayerParams,
                    cfg: ModelConfig, prefix: str) -> Node:
    hp, wp = cfg.grid
    lead = x.value.shape[:-2]
    xg = ad.reshape(x, (*lead, hp, wp, cfg.dim))
    x = ad.add_dwconv3x3(x, xg, leaves[f"{prefix}cpe"])
    h = ad.layer_norm(x, leaves[f"{prefix}ln1.g"], leaves[f"{prefix}ln1.b"])
    x = ttt_attention_nodes(h, leaves, layer, cfg.inner, cfg.grid, prefix=f"{prefix}ttt.",
                            residual=x)
    h = ad.layer_norm(x, leaves[f"{prefix}ln2.g"], leaves[f"{prefix}ln2.b"])
    m = ad.linear_silu(h, leaves[f"{prefix}mlp.w1"], leaves[f"{prefix}mlp.b1"])
    return ad.add_linear(x, m, leaves[f"{prefix}mlp.w2"], leaves[f"{prefix}mlp.b2"])


def forward_classifier(model: Classifier, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs (images for `Model`), recording no tape."""
    return model.logits_nodes(Tape(record=False), x).value


# ---------------------------------------------------------------------------
# patchification

def unfold_patches(images: np.ndarray, p: int) -> np.ndarray:
    """[b, H, W, 3] -> [b, N, p*p*3] non-overlapping patch rows (raster order)."""
    b, h, w, c = images.shape
    if h % p or w % p:
        raise T.DimensionError(f"patch {p} does not divide image {h}x{w}")
    x = images.reshape(b, h // p, p, w // p, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x).reshape(b, (h // p) * (w // p), p * p * c)


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
               state: OptState, lr: float, weight_decay: float = 0.0):
    """Decoupled-weight-decay Adam update, in place; returns (params, state).

    Each pass runs once over all parameters packed flat, and each parameter is
    written back in place, so the arrays the tapes and layer params share stay
    the same objects.
    """
    if tuple(params) != state.names:
        raise ad.ContractError("params do not match the names their OptState was built for")
    state.step += 1
    t = state.step
    b1, b2 = 0.9, 0.999
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m, v = state.m, state.v
    g = np.concatenate([grads[name].ravel() for name in params], dtype=m.dtype,
                       casting="same_kind")
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    update = (m / c1) / (np.sqrt(v / c2) + 1e-8)
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

class _PullbacksApart(Tape):
    """A tape whose weight-gradient walks tick a FLOPs counter of their own;
    counters nest independently, so an enclosing count skips them."""

    def weight_grads(self, *args):
        with T.count_flops():
            return super().weight_grads(*args)


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
    tape = _PullbacksApart(record=False)
    kv = tape.leaf(np.zeros((n, params.head_dim)))
    rate = tape.leaf(np.zeros((n, 1))) if inner.dynamic_lr else None
    convention = module = 0
    for name, model in zip(params.head_archs, params.inner):
        arch = get_arch(name)
        ws = [tape.leaf(w) for w in model.weights]
        with T.count_flops() as fwd:
            arch.forward(ws, kv, grid)
        with T.count_flops() as loop:
            inner_update_nodes(arch, ws, kv, kv, inner, rate, grid)
        convention += loop.total + (2 * inner.epochs + 1) * fwd.total
        module += fwd.total
    return {"total_executed": total.total, "ratio": convention / module}


def flops_estimate(cfg: ModelConfig) -> dict:
    """The TTT layers' inner-cost ratio at the model's shapes:
    `ttt_layer_flops(...)["ratio"]` as `ttt_ratio`."""
    layer = ttt_layer_flops(cfg.tokens, cfg.dim, cfg.heads, cfg.head_archs, cfg.inner,
                            cfg.grid)
    return {"ttt_ratio": layer["ratio"]}


# ---------------------------------------------------------------------------
# checkpoints: JSON name->offset index plus tensor container

@contextmanager
def replacing(*paths: str):
    """Yield a temporary name per path and move each into place when the block finishes;
    a block that fails partway leaves every previous file as it was."""
    tmps = [p + ".tmp" for p in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)


def save_checkpoint(dirpath: str, params: dict[str, np.ndarray], meta: dict):
    """Write checkpoint.bin and checkpoint.json (the index and `meta`); a failed save
    keeps the previous pair."""
    os.makedirs(dirpath, exist_ok=True)
    index = {}
    with replacing(os.path.join(dirpath, "checkpoint.bin"),
                   os.path.join(dirpath, "checkpoint.json")) as (bin_tmp, json_tmp):
        with open(bin_tmp, "wb") as fp:
            for name in sorted(params):
                index[name] = T.write_tensor(fp, params[name])
        with open(json_tmp, "w") as fp:
            json.dump({"index": index, "meta": meta}, fp, indent=1, sort_keys=True)


def load_checkpoint(dirpath: str) -> dict[str, np.ndarray]:
    """The saved parameters; an index that is no mapping of names to non-negative integer
    offsets, or a record that is cut, raises ValueError."""
    with open(os.path.join(dirpath, "checkpoint.json")) as fp:
        doc = json.load(fp)
    index = doc.get("index") if isinstance(doc, dict) else None
    if not isinstance(index, dict) or not all(
            type(offset) is int and offset >= 0 for offset in index.values()):
        raise ValueError(f"{dirpath}: checkpoint.json holds no index of names to "
                         "non-negative integer offsets")
    out = {}
    with open(os.path.join(dirpath, "checkpoint.bin"), "rb") as fp:
        for name, offset in index.items():
            fp.seek(offset)
            out[name] = T.read_tensor(fp)
    return out
