"""Inner models, inner losses, and the per-sequence training loop.

The inner model F_W maps R^d -> R^d; its weights are fitted to (K, V) token
pairs by a few explicit gradient steps. Every step is expressed in tape
primitives, so outer-loop gradients flow through the unrolled updates in one
reverse pass. An architecture states only its forward; the tape derives its
weight gradient from that forward's traced ops, one rule per op
(`Tape.weight_grads`), while the loss gradients stay analytic. The full 3x3
conv is im2col patches times a matmul, so it needs no rule of its own.

Each inner loss is one `InnerLoss` in `INNER_LOSSES`. All five carry the
1/(B*sqrt(d)) scale, so an inner learning rate of 1.0 is a meaningful default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .autodiff import Node, Tape

RMSE_EPS = 1e-12


class PartitionError(ValueError):
    """Requested more sequential mini-batches than tokens."""


class DivergenceError(FloatingPointError):
    """Inner weights left the finite range (the divergence sentinel)."""


def _norm(shape: tuple) -> float:
    """The 1/(B*sqrt(d)) loss scale of [.., B, d] rows."""
    return 1.0 / (shape[-2] * math.sqrt(shape[-1]))


class InnerLoss:
    """One inner loss L(Vhat, V): `value` of numpy [B, d] rows, `grad` dL/dVhat
    as a tape expression (so d2L/dVhat dV flows outward), and `mixed`, the
    entrywise d2L / (dV_ij dVhat_ij) in closed form (a.e. for mae/smooth_l1),
    printed as `mixed_form`. `kink` is (op, a) when `grad` applies tape op
    `op` to e = Vhat - V, which is not differentiable where |e| = a."""

    kink: tuple[str, float] | None = None

    def value(self, vhat: np.ndarray, v: np.ndarray) -> float:
        if vhat.shape != v.shape:
            raise T.DimensionError(f"loss shapes differ: {vhat.shape} vs {v.shape}")
        return float(self._value(vhat, v, _norm(vhat.shape)))


class Dot(InnerLoss):
    name, mixed_form = "dot", "-1/(B sqrt(d)) everywhere"

    def _value(self, vhat, v, c):
        return (vhat * v).sum() * -c
    def grad(self, vhat, v):
        return ad.scale(v, -_norm(vhat.value.shape))
    def mixed(self, vhat, v):
        return np.full_like(vhat, -_norm(vhat.shape))


class MSE(InnerLoss):
    name, mixed_form, mixed = "mse", Dot.mixed_form, Dot.mixed

    def _value(self, vhat, v, c):
        e = vhat - v
        return (e * e).sum() * (0.5 * c)
    def grad(self, vhat, v):
        return ad.scale(ad.sub(vhat, v), _norm(vhat.value.shape))


class RMSE(InnerLoss):
    name, mixed_form = "rmse", "-1/(B sqrt(d) sqrt(S)) + (Vhat-V)^2/(B^2 d S^(3/2))"

    def _value(self, vhat, v, c):
        e = vhat - v
        return np.sqrt(np.maximum((e * e).sum() * c, RMSE_EPS))
    def grad(self, vhat, v):
        c, e = _norm(vhat.value.shape), ad.sub(vhat, v)
        s = ad.clip_min(ad.scale(ad.sum_last2(ad.mul(e, e)), c), RMSE_EPS)
        r = ad.reciprocal(ad.sqrt_(s))
        return ad.mul(ad.scale(e, c), ad.reshape(r, (*r.value.shape, 1, 1)))
    def mixed(self, vhat, v):
        c, e = _norm(vhat.shape), vhat - v
        s = max(c * float((e * e).sum()), RMSE_EPS)
        return -c / math.sqrt(s) + (c * c) * e * e / s ** 1.5


class MAE(InnerLoss):
    name, mixed_form, kink = "mae", "0 almost everywhere", ("sign", 0.0)

    def _value(self, vhat, v, c):
        return np.abs(vhat - v).sum() * c
    def grad(self, vhat, v):
        return ad.scale(ad.sign(ad.sub(vhat, v)), _norm(vhat.value.shape))
    def mixed(self, vhat, v):
        return np.zeros_like(vhat)


class SmoothL1(InnerLoss):
    name, kink = "smooth_l1", ("huber_prime", 1.0)
    mixed_form = "-1/(B sqrt(d)) where |Vhat-V| < 1, else 0"

    def _value(self, vhat, v, c):
        # the huber kernel: e^2/2 inside |e| < 1, |e| - 1/2 outside
        e = vhat - v
        a = np.abs(e)
        return np.where(a < 1.0, 0.5 * e * e, a - 0.5).sum() * c
    def grad(self, vhat, v):
        return ad.scale(ad.huber_prime(ad.sub(vhat, v)), _norm(vhat.value.shape))
    def mixed(self, vhat, v):
        return np.where(np.abs(vhat - v) < 1.0, -_norm(vhat.shape), 0.0)


#: the inner losses by name, in gradcheck and loss-report order; nothing else states one
INNER_LOSSES: dict[str, InnerLoss] = {l.name: l for l in (
    Dot(), MSE(), RMSE(), MAE(), SmoothL1())}

LOSSES = tuple(INNER_LOSSES)


def inner_loss_grad(kind: str, vhat: np.ndarray, v: np.ndarray) -> np.ndarray:
    t = Tape(record=False)
    return INNER_LOSSES[kind].grad(t.leaf(vhat), t.leaf(v)).value


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
    """One F_W architecture: its weight shapes, init, forward and context.

    Each subclass defines `weight_shapes(d)` and `forward(ws, x, grid)`, which
    maps token rows [.., B, d] to [.., B, d]; conv architectures also need the
    (H, W) grid the rows raster-scan. An architecture states only its forward:
    the inner step traces it and `Tape.weight_grads` derives the weight
    gradients from the traced ops.
    """

    name: str = ""
    requires_grid = False

    def init(self, rng: np.random.Generator, d: int, dtype=np.float64) -> list[np.ndarray]:
        ws = []
        for shape in self.weight_shapes(d):
            fan_in = int(np.prod(shape[:-1]))
            bound = 1.0 / math.sqrt(fan_in)
            ws.append(rng.uniform(-bound, bound, size=shape).astype(dtype))
        return ws

    def context(self, lo: int, hi: int, grid=None) -> tuple[int, int]:
        """Token rows [clo, chi) whose inputs determine the outputs [lo, hi)."""
        return lo, hi


class FC(InnerArch):
    name = "fc"

    def weight_shapes(self, d):
        return [(d, d)]

    def forward(self, ws, x, grid=None):
        return ad.matmul(x, ws[0])


class SiLUFC(InnerArch):
    name = "silu_fc"

    def weight_shapes(self, d):
        return [(d, d)]

    def forward(self, ws, x, grid=None):
        return ad.silu(ad.matmul(x, ws[0]))


class MLP(InnerArch):
    """`layers` linear layers with SiLU between them and hidden width ratio*d."""

    def __init__(self, ratio: int = 1, layers: int = 2):
        self.ratio = ratio
        self.layers = layers
        self.name = f"mlp_r{ratio}_l{layers}"

    def weight_shapes(self, d):
        h = self.ratio * d
        return [(d, h), *[(h, h)] * (self.layers - 2), (h, d)]

    def forward(self, ws, x, grid=None):
        h = x
        for w in ws[:-1]:
            h = ad.silu(ad.matmul(h, w))
        return ad.matmul(h, ws[-1])


class MLPResidual(MLP):
    """Two-layer MLP with an input skip: SiLU(x W1) W2 + x."""

    def __init__(self):
        super().__init__()
        self.name = "mlp_residual"

    def forward(self, ws, x, grid=None):
        return ad.add(super().forward(ws, x, grid), x)


class MLPPlusIdentity(MLP):
    """Two-layer MLP with identity folded into the output layer: SiLU(x W1)(W2 + I)."""

    def __init__(self):
        super().__init__()
        self.name = "mlp_w2_plus_i"

    def forward(self, ws, x, grid=None):
        h = ad.silu(ad.matmul(x, ws[0]))
        return ad.add(ad.matmul(h, ws[1]), h)


class MLPIdentityInit(MLP):
    """Two-layer MLP whose output layer starts at the identity."""

    def __init__(self):
        super().__init__()
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

    def forward(self, ws, x, grid=None):
        a = ad.matmul(x, ws[0])
        b = ad.matmul(x, ws[1])
        return ad.matmul(ad.mul(ad.silu(a), b), ws[2])


class GatedFC(InnerArch):
    """x Wa * SiLU(x Wb): the gated linear head (no output layer)."""

    name = "gated_fc"

    def weight_shapes(self, d):
        return [(d, d), (d, d)]

    def forward(self, ws, x, grid=None):
        za = ad.matmul(x, ws[0])
        return ad.mul(za, ad.silu(ad.matmul(x, ws[1])))


class Conv3x3(InnerArch):
    """Full 3x3 convolution over the key grid (zero padding, no bias): im2col
    patches of the grid times the kernel folded to [9d, d]."""

    name = "conv3x3"
    requires_grid = True

    def weight_shapes(self, d):
        return [(3, 3, d, d)]

    def forward(self, ws, x, grid=None):
        d, w = x.value.shape[-1], ws[0]
        return ad.matmul(ad.patches(self.to_grid(x, grid)),
                         ad.reshape(w, (*w.value.shape[:-4], 9 * d, d)))

    def to_grid(self, x, grid):
        """Token rows [.., H*W, d] as the [.., H, W, d] grid they raster-scan."""
        *lead, n, d = x.value.shape
        if grid is None or grid[0] * grid[1] != n:
            raise T.GridError(f"{self.name} needs a grid matching {n} tokens, got {grid}")
        return ad.reshape(x, (*lead, *grid, d))

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

    def weight_shapes(self, d):
        return [(3, 3, d)]

    def forward(self, ws, x, grid=None):
        return ad.reshape(ad.dwconv3x3(self.to_grid(x, grid), ws[0]), x.value.shape)


#: the Table-4/Table-6 design space by name, in the order of the gradcheck
#: matrix and the ablations; nothing else builds an architecture
ARCHS: dict[str, InnerArch] = {a.name: a for a in (
    FC(), SiLUFC(), MLP(1, 2), MLP(2, 2), MLP(1, 3), SwiGLU(), GatedFC(), Conv3x3(),
    DWConv3x3(), MLPResidual(), MLPPlusIdentity(), MLPIdentityInit(),
)}

ARCH_NAMES = tuple(ARCHS)


def get_arch(name: str) -> InnerArch:
    if name not in ARCHS:
        raise ValueError(f"unknown inner architecture {name!r}; expected one of {ARCH_NAMES}")
    return ARCHS[name]


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


def inner_update_nodes(arch: InnerArch, ws: list[Node], k: Node, v: Node,
                       cfg: InnerTrainConfig, rate: Node | None = None,
                       grid=None) -> list[Node]:
    """Unrolled inner training on the tape; returns the adapted weight nodes.

    `rate` is the per-token learning rate, a [.., N, 1] column (already scaled
    by eta) that `ad.mul` broadcasts over each token's loss gradient before
    `ad.sub`; when None, each weight steps by one `ad.sub_scaled` at the fixed
    rate cfg.lr. Each mini-batch traces the forward once, on the rows its
    outputs depend on (`arch.context`), and `Tape.weight_grads` walks those
    traced ops back from the loss gradient on the same rows.
    """
    n, loss, tape = k.value.shape[-2], INNER_LOSSES[cfg.loss], k.tape
    for epoch in range(cfg.epochs):
        for part, (lo, hi) in enumerate(partition_batches(n, cfg.parts)):
            clo, chi = arch.context(lo, hi, grid)
            sub = ((chi - clo) // grid[1], grid[1]) if arch.requires_grid else None
            with tape.tracing() as ops:
                vhat = arch.forward(ws, _rows(k, clo, chi), sub)
            dv = loss.grad(_rows(vhat, lo - clo, hi - clo), _rows(v, lo, hi))
            if rate is not None:
                dv = ad.mul(dv, _rows(rate, lo, hi))
            if (clo, chi) != (lo, hi):
                dv = ad.pad_rows(dv, chi - clo, lo - clo, hi - clo)
            grads = tape.weight_grads(ops, ws, vhat, dv)
            if rate is None:
                ws = [ad.sub_scaled(w, g, cfg.lr) for w, g in zip(ws, grads)]
            else:
                ws = [ad.sub(w, g) for w, g in zip(ws, grads)]
            if not all(np.isfinite(w.value).all() for w in ws):
                raise DivergenceError(
                    f"{arch.name} inner weights diverged at epoch {epoch + 1}/{cfg.epochs}, "
                    f"part {part + 1}/{cfg.parts} (loss={cfg.loss}, lr={cfg.lr})")
    return ws


def _rows(a: Node, lo: int, hi: int) -> Node:
    return a if (lo, hi) == (0, a.value.shape[-2]) else ad.rows(a, lo, hi)


def dynamic_rate(x: Node, w_eta: Node, eta: float) -> Node:
    """Token-wise rate eta * sigmoid(x_i W_eta) as a [.., N, 1] column."""
    return ad.scale(ad.sigmoid(ad.matmul(x, w_eta)), eta)


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
    if k.shape[0] != v.shape[0]:
        raise T.DimensionError(f"K and V row counts differ: {k.shape} vs {v.shape}")
    tape = Tape(record=False)
    ws = [tape.leaf(w) for w in model.weights]
    rate = None
    if cfg.dynamic_lr:
        if x is None or w_eta is None:
            raise ValueError("dynamic_lr needs x and w_eta")
        xr = x.reshape(-1, x.shape[-1]) if x.ndim == 3 else x
        rate = dynamic_rate(tape.leaf(xr), tape.leaf(w_eta), cfg.lr)
    star = inner_update_nodes(arch, ws, tape.leaf(k), tape.leaf(v), cfg, rate, grid)
    return InnerModel(kind=model.kind, d=model.d, weights=[w.value for w in star])
