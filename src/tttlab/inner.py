"""Inner models, inner losses, and the per-sequence training loop.

The inner model F_W maps R^d -> R^d; its weights are fitted to (K, V) token
pairs by a few explicit gradient steps. Every step is expressed in tape
primitives, with the weight gradient written analytically per architecture,
so outer-loop gradients flow through the unrolled updates in one reverse pass.

Loss convention: all five losses carry the 1/(B*sqrt(d)) scale, so an inner
learning rate of 1.0 is a meaningful default.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .autodiff import Node, Tape

LOSSES = ("dot", "mse", "rmse", "mae", "smooth_l1")

RMSE_EPS = 1e-12


class PartitionError(ValueError):
    """Requested more sequential mini-batches than tokens."""


class DivergenceError(FloatingPointError):
    """Inner weights left the finite range (the divergence sentinel)."""


def _norm(vhat: Node) -> float:
    b, d = vhat.value.shape[-2], vhat.value.shape[-1]
    return 1.0 / (b * math.sqrt(d))


def loss_value(kind: str, vhat: Node, v: Node) -> Node:
    """Per-sequence inner loss (scalar for [B,d] inputs, [..] batched)."""
    c = _norm(vhat)
    if kind == "dot":
        return ad.scale(ad.sum_last2(ad.mul(vhat, v)), -c)
    e = ad.sub(vhat, v)
    if kind == "mse":
        return ad.scale(ad.sum_last2(ad.mul(e, e)), 0.5 * c)
    if kind == "rmse":
        return ad.sqrt_(ad.clip_min(ad.scale(ad.sum_last2(ad.mul(e, e)), c), RMSE_EPS))
    if kind == "mae":
        return ad.scale(ad.sum_last2(ad.abs_(e)), c)
    if kind == "smooth_l1":
        return ad.scale(ad.sum_last2(ad.huber(e)), c)
    raise ValueError(f"unknown inner loss {kind!r}")


def loss_grad(kind: str, vhat: Node, v: Node) -> Node:
    """Analytic dL/dVhat as a tape expression (so d2L/dVhat dV flows outward)."""
    c = _norm(vhat)
    if kind == "dot":
        return ad.scale(v, -c)
    e = ad.sub(vhat, v)
    if kind == "mse":
        return ad.scale(e, c)
    if kind == "rmse":
        s = ad.clip_min(ad.scale(ad.sum_last2(ad.mul(e, e)), c), RMSE_EPS)
        return ad.matscale(ad.scale(e, c), ad.reciprocal(ad.sqrt_(s)))
    if kind == "mae":
        return ad.scale(ad.sign(e), c)
    if kind == "smooth_l1":
        return ad.scale(ad.huber_prime(e), c)
    raise ValueError(f"unknown inner loss {kind!r}")


def inner_loss(kind: str, vhat: np.ndarray, v: np.ndarray) -> float:
    if vhat.shape != v.shape:
        raise T.DimensionError(f"loss shapes differ: {vhat.shape} vs {v.shape}")
    t = Tape()
    return float(loss_value(kind, t.leaf(vhat), t.leaf(v)).value)


def inner_loss_grad(kind: str, vhat: np.ndarray, v: np.ndarray) -> np.ndarray:
    t = Tape()
    return loss_grad(kind, t.leaf(vhat), t.leaf(v)).value


def mixed_second_derivative(kind: str, vhat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entrywise d2L / (dV_ij dVhat_ij) in closed form (defined a.e. for mae/smooth_l1)."""
    b, d = vhat.shape[-2], vhat.shape[-1]
    c = 1.0 / (b * math.sqrt(d))
    if kind in ("dot", "mse"):
        return np.full_like(vhat, -c)
    e = vhat - v
    if kind == "rmse":
        s = max(c * float((e * e).sum()), RMSE_EPS)
        return -c / math.sqrt(s) + (c * c) * e * e / s ** 1.5
    if kind == "mae":
        return np.zeros_like(vhat)
    if kind == "smooth_l1":
        return np.where(np.abs(e) < 1.0, -c, 0.0)
    raise ValueError(f"unknown inner loss {kind!r}")


def partition_batches(n: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous index ranges in token order; earlier batches take the remainder."""
    if parts < 1 or parts > n:
        raise PartitionError(f"cannot split {n} tokens into {parts} mini-batches")
    base, extra = divmod(n, parts)
    ranges, lo = [], 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


# ---------------------------------------------------------------------------
# inner architectures

class InnerArch:
    """One F_W architecture: init, and a forward that returns its pullback.

    `forward_pullback` runs the forward once on token rows [.., B, d] and
    returns (out, pullback); `pullback(dvhat)` builds the analytic weight
    gradients as tape expressions from that forward's own nodes. Conv
    architectures additionally need the (H, W) grid the rows raster-scan.
    """

    name: str = ""
    requires_grid = False

    def weight_shapes(self, d: int) -> list[tuple]:
        raise NotImplementedError

    def init(self, rng: np.random.Generator, d: int, dtype=np.float64) -> list[np.ndarray]:
        ws = []
        for shape in self.weight_shapes(d):
            fan_in = int(np.prod(shape[:-1]))
            bound = 1.0 / math.sqrt(fan_in)
            ws.append(rng.uniform(-bound, bound, size=shape).astype(dtype))
        return ws

    def forward_pullback(self, ws: list[Node], x: Node,
                         grid=None) -> tuple[Node, Callable[[Node], list[Node]]]:
        raise NotImplementedError

    def forward(self, ws: list[Node], x: Node, grid=None) -> Node:
        return self.forward_pullback(ws, x, grid)[0]

    def context(self, lo: int, hi: int, grid=None) -> tuple[int, int]:
        """Token rows [clo, chi) whose inputs determine the outputs [lo, hi)."""
        return lo, hi


class FC(InnerArch):
    name = "fc"

    def weight_shapes(self, d):
        return [(d, d)]

    def forward_pullback(self, ws, x, grid=None):
        def pullback(dv):
            return [ad.matmul(ad.transpose(x), dv)]

        return ad.matmul(x, ws[0]), pullback


class SiLUFC(InnerArch):
    name = "silu_fc"

    def weight_shapes(self, d):
        return [(d, d)]

    def forward_pullback(self, ws, x, grid=None):
        z = ad.matmul(x, ws[0])

        def pullback(dv):
            return [ad.matmul(ad.transpose(x), ad.mul(dv, ad.silu_prime(z)))]

        return ad.silu(z), pullback


class MLP(InnerArch):
    """l-layer MLP with SiLU between layers and hidden width r*d."""

    def __init__(self, ratio: int = 1, layers: int = 2):
        if layers not in (2, 3):
            raise ValueError("MLP supports 2 or 3 linear layers")
        self.ratio = ratio
        self.layers = layers
        self.name = f"mlp_r{ratio}_l{layers}"

    def weight_shapes(self, d):
        h = self.ratio * d
        if self.layers == 2:
            return [(d, h), (h, d)]
        return [(d, h), (h, h), (h, d)]

    def forward_pullback(self, ws, x, grid=None):
        zs, hs = [], [x]                 # pre-activations, layer inputs
        for w in ws[:-1]:
            zs.append(ad.matmul(hs[-1], w))
            hs.append(ad.silu(zs[-1]))

        def pullback(dv):
            grads = [ad.matmul(ad.transpose(hs[-1]), dv)]
            da = dv
            for j in reversed(range(len(zs))):
                dh = ad.matmul(da, ad.transpose(ws[j + 1]))
                da = ad.mul(dh, ad.silu_prime(zs[j]))
                grads.insert(0, ad.matmul(ad.transpose(hs[j]), da))
            return grads

        return ad.matmul(hs[-1], ws[-1]), pullback


class MLPResidual(MLP):
    """Two-layer MLP with an input skip: SiLU(x W1) W2 + x."""

    def __init__(self):
        super().__init__(ratio=1, layers=2)
        self.name = "mlp_residual"

    def forward_pullback(self, ws, x, grid=None):
        out, pullback = super().forward_pullback(ws, x, grid)
        return ad.add(out, x), pullback


class MLPPlusIdentity(MLP):
    """Two-layer MLP with identity folded into the output layer: SiLU(x W1)(W2 + I)."""

    def __init__(self):
        super().__init__(ratio=1, layers=2)
        self.name = "mlp_w2_plus_i"

    def forward_pullback(self, ws, x, grid=None):
        z = ad.matmul(x, ws[0])
        h = ad.silu(z)

        def pullback(dv):
            dw2 = ad.matmul(ad.transpose(h), dv)
            dh = ad.add(ad.matmul(dv, ad.transpose(ws[1])), dv)
            return [ad.matmul(ad.transpose(x), ad.mul(dh, ad.silu_prime(z))), dw2]

        return ad.add(ad.matmul(h, ws[1]), h), pullback


class MLPIdentityInit(MLP):
    """Two-layer MLP whose output layer starts at the identity."""

    def __init__(self):
        super().__init__(ratio=1, layers=2)
        self.name = "mlp_w2_init_i"

    def init(self, rng, d, dtype=np.float64):
        ws = super().init(rng, d, dtype)
        ws[1] = np.eye(d, dtype=dtype)
        return ws


class SwiGLU(InnerArch):
    """(SiLU(x W1) * x W2) W3 with hidden width d."""

    name = "swiglu"

    def weight_shapes(self, d):
        return [(d, d), (d, d), (d, d)]

    def forward_pullback(self, ws, x, grid=None):
        a = ad.matmul(x, ws[0])
        b = ad.matmul(x, ws[1])
        sa = ad.silu(a)
        h = ad.mul(sa, b)

        def pullback(dv):
            dw3 = ad.matmul(ad.transpose(h), dv)
            dh = ad.matmul(dv, ad.transpose(ws[2]))
            xt = ad.transpose(x)
            dw2 = ad.matmul(xt, ad.mul(dh, sa))
            dw1 = ad.matmul(xt, ad.mul(ad.mul(dh, b), ad.silu_prime(a)))
            return [dw1, dw2, dw3]

        return ad.matmul(h, ws[2]), pullback


class GatedFC(InnerArch):
    """x Wa * SiLU(x Wb): the gated linear head (no output layer)."""

    name = "gated_fc"

    def weight_shapes(self, d):
        return [(d, d), (d, d)]

    def forward_pullback(self, ws, x, grid=None):
        za = ad.matmul(x, ws[0])
        zb = ad.matmul(x, ws[1])
        sb = ad.silu(zb)

        def pullback(dv):
            xt = ad.transpose(x)
            return [ad.matmul(xt, ad.mul(dv, sb)),
                    ad.matmul(xt, ad.mul(ad.mul(dv, za), ad.silu_prime(zb)))]

        return ad.mul(za, sb), pullback


def _to_grid(x: Node, grid) -> Node:
    hp, wp = grid
    lead = x.value.shape[:-2]
    return ad.reshape(x, (*lead, hp, wp, x.value.shape[-1]))


def _to_rows(x: Node) -> Node:
    *lead, hp, wp, d = x.value.shape
    return ad.reshape(x, (*lead, hp * wp, d))


class Conv3x3(InnerArch):
    """Full 3x3 convolution over the key grid (zero padding, no bias)."""

    name = "conv3x3"
    requires_grid = True
    depthwise = False

    def weight_shapes(self, d):
        return [(3, 3, d, d)]

    def init(self, rng, d, dtype=np.float64):
        bound = 1.0 / math.sqrt(9 * d)
        return [rng.uniform(-bound, bound, size=(3, 3, d, d)).astype(dtype)]

    def forward_pullback(self, ws, x, grid=None):
        if grid is None or grid[0] * grid[1] != x.value.shape[-2]:
            raise T.GridError(
                f"{self.name} needs a grid matching {x.value.shape[-2]} tokens, got {grid}")
        conv, wgrad = ((ad.dwconv3x3, ad.dwconv3x3_wgrad) if self.depthwise
                       else (ad.conv3x3, ad.conv3x3_wgrad))
        xg = _to_grid(x, grid)

        def pullback(dv):
            g = wgrad(xg, _to_grid(dv, grid))
            if x.value.ndim == 2:
                g = ad.reshape(g, g.value.shape[1:])
            return [g]

        return _to_rows(conv(xg, ws[0])), pullback

    def context(self, lo, hi, grid=None):
        # the grid rows of [lo, hi) plus the row above and below that a 3x3 tap
        # reads; clamping keeps the sub-grid's zero padding on the grid border
        if grid is None or hi > grid[0] * grid[1]:
            raise T.GridError(f"{self.name} needs an (H, W) grid covering {hi} tokens, "
                              f"got {grid}")
        hp, wp = grid
        return max(lo // wp - 1, 0) * wp, min(-(-hi // wp) + 1, hp) * wp


class DWConv3x3(Conv3x3):
    """Depthwise 3x3 convolution: one kernel per channel."""

    name = "dwconv3x3"
    depthwise = True

    def weight_shapes(self, d):
        return [(3, 3, d)]

    def init(self, rng, d, dtype=np.float64):
        bound = 1.0 / 3.0
        return [rng.uniform(-bound, bound, size=(3, 3, d)).astype(dtype)]


_FIXED_ARCHS = {a.name: a for a in (
    FC(), SiLUFC(), SwiGLU(), GatedFC(), Conv3x3(), DWConv3x3(),
    MLPResidual(), MLPPlusIdentity(), MLPIdentityInit(),
)}

_MLP_RE = re.compile(r"mlp_r(\d+)_l(\d+)$")


def get_arch(name: str) -> InnerArch:
    if name in _FIXED_ARCHS:
        return _FIXED_ARCHS[name]
    m = _MLP_RE.match(name)
    if m:
        return MLP(ratio=int(m.group(1)), layers=int(m.group(2)))
    raise ValueError(f"unknown inner architecture {name!r}")


#: the Table-4/Table-6 design space, used by the gradcheck matrix and ablations
ARCH_NAMES = (
    "fc", "silu_fc", "mlp_r1_l2", "mlp_r2_l2", "mlp_r1_l3", "swiglu",
    "gated_fc", "conv3x3", "dwconv3x3", "mlp_residual", "mlp_w2_plus_i",
    "mlp_w2_init_i",
)


# ---------------------------------------------------------------------------
# configs and the update loop

@dataclass
class InnerTrainConfig:
    loss: str = "dot"
    epochs: int = 1
    parts: int = 1          # 1 = full batch; p>1 = p sequential mini-batches
    lr: float = 1.0
    dynamic_lr: bool = False

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown inner loss {self.loss!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.parts < 1:
            raise ValueError("parts must be >= 1")


@dataclass
class InnerModel:
    kind: str
    d: int
    weights: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def create(cls, kind: str, d: int, rng: np.random.Generator, dtype=np.float64):
        return cls(kind=kind, d=d, weights=get_arch(kind).init(rng, d, dtype))


def inner_forward(model: InnerModel, x: np.ndarray) -> np.ndarray:
    """Apply F_W to [B, d] rows or an [H, W, d] grid."""
    arch = get_arch(model.kind)
    tape = Tape()
    ws = [tape.leaf(w) for w in model.weights]
    if x.ndim == 3:
        grid = x.shape[:2]
        out = arch.forward(ws, tape.leaf(x.reshape(-1, x.shape[-1])), grid)
        return out.value.reshape(x.shape)
    if arch.requires_grid:
        raise T.GridError(f"{model.kind} needs an [H, W, d] grid input")
    return arch.forward(ws, tape.leaf(x)).value


def inner_update_nodes(arch: InnerArch, ws: list[Node], k: Node, v: Node,
                       cfg: InnerTrainConfig, rate: Node | None = None,
                       grid=None) -> list[Node]:
    """Unrolled inner training on the tape; returns the adapted weight nodes.

    `rate` is the per-token learning rate [.., N] (already scaled by eta); when
    None, the fixed rate cfg.lr scales each step instead. Each mini-batch runs
    the forward once, on the rows its outputs depend on (`arch.context`), and
    its pullback on the same rows.
    """
    n = k.value.shape[-2]
    for epoch in range(cfg.epochs):
        for part, (lo, hi) in enumerate(partition_batches(n, cfg.parts)):
            clo, chi = arch.context(lo, hi, grid)
            sub = ((chi - clo) // grid[1], grid[1]) if arch.requires_grid else None
            vhat, pullback = arch.forward_pullback(ws, _rows(k, clo, chi), sub)
            dv = loss_grad(cfg.loss, _rows(vhat, lo - clo, hi - clo), _rows(v, lo, hi))
            if rate is not None:
                r = rate if (lo, hi) == (0, n) else _slice_rate(rate, lo, hi)
                dv = ad.colscale(dv, r)
            if (clo, chi) != (lo, hi):
                dv = ad.pad_rows(dv, chi - clo, lo - clo, hi - clo)
            grads = pullback(dv)
            if rate is None:
                grads = [ad.scale(g, cfg.lr) for g in grads]
            ws = [ad.sub(w, g) for w, g in zip(ws, grads)]
            if not all(np.isfinite(w.value).all() for w in ws):
                raise DivergenceError(
                    f"{arch.name} inner weights diverged at epoch {epoch + 1}/{cfg.epochs}, "
                    f"part {part + 1}/{cfg.parts} (loss={cfg.loss}, lr={cfg.lr})")
    return ws


def _rows(a: Node, lo: int, hi: int) -> Node:
    return a if (lo, hi) == (0, a.value.shape[-2]) else ad.rows(a, lo, hi)


def _slice_rate(rate: Node, lo: int, hi: int) -> Node:
    # rate is [.., N]; reuse the token-row slice via a dummy feature axis
    lead = rate.value.shape
    r = ad.reshape(rate, (*lead, 1))
    r = ad.rows(r, lo, hi)
    return ad.reshape(r, r.value.shape[:-1])


def dynamic_rate(x: Node, w_eta: Node, eta: float) -> Node:
    """Token-wise rate eta * sigmoid(x_i W_eta) -> [.., N]."""
    r = ad.scale(ad.sigmoid(ad.matmul(x, w_eta)), eta)
    return ad.reshape(r, r.value.shape[:-1])


def inner_update(model: InnerModel, k: np.ndarray, v: np.ndarray,
                 cfg: InnerTrainConfig, x: np.ndarray | None = None,
                 w_eta: np.ndarray | None = None) -> InnerModel:
    """One inner training run on a single (K, V) token set; returns F_{W*}.

    K, V are [N, d] rows; conv architectures take [H, W, d] grids (with V
    holding the per-token targets on the same grid). For the dynamic rate,
    `x` supplies the layer-input tokens and `w_eta` the rate projection.
    """
    arch = get_arch(model.kind)
    grid = None
    if k.ndim == 3:
        grid = k.shape[:2]
        k = k.reshape(-1, k.shape[-1])
        v = v.reshape(-1, v.shape[-1])
    elif arch.requires_grid:
        raise T.GridError(f"{model.kind} needs an [H, W, d] grid input")
    if k.shape[0] != v.shape[0]:
        raise T.DimensionError(f"K and V row counts differ: {k.shape} vs {v.shape}")
    tape = Tape()
    ws = [tape.leaf(w) for w in model.weights]
    rate = None
    if cfg.dynamic_lr:
        if x is None or w_eta is None:
            raise ValueError("dynamic_lr needs x and w_eta")
        xr = x.reshape(-1, x.shape[-1]) if x.ndim == 3 else x
        rate = dynamic_rate(tape.leaf(xr), tape.leaf(w_eta), cfg.lr)
    star = inner_update_nodes(arch, ws, tape.leaf(k), tape.leaf(v), cfg, rate, grid)
    out = []
    for w0, w in zip(model.weights, star):
        val = w.value
        if val.ndim == w0.ndim + 1 and val.shape[0] == 1:
            val = val.reshape(w0.shape)
        out.append(val)
    return InnerModel(kind=model.kind, d=model.d, weights=out)
