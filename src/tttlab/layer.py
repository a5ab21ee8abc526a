"""The test-time-training attention layer and its attention oracles.

Per head: project Q/K/V, fit the head's inner model to the (K, V) token
pairs with unrolled gradient steps, then apply the adapted model to Q.
Softmax attention (both the direct form and its two-layer-MLP view) and
kernel-normalized linear attention serve as exact baselines; linear
attention is computed in its O(N) accumulated form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .autodiff import Node, Tape
from .inner import (DivergenceError, InnerModel, InnerTrainConfig, dynamic_rate, get_arch,
                    inner_update_nodes)


class NormalizationError(FloatingPointError):
    """A linear-attention denominator fell below the safe threshold."""


@dataclass
class TTTLayerParams:
    """Per-head projections plus each head's inner model and architecture."""

    dim: int
    heads: int
    wq: list[np.ndarray] = field(default_factory=list)   # per head [C, d]
    wk: list[np.ndarray] = field(default_factory=list)
    wv: list[np.ndarray] = field(default_factory=list)
    w_o: np.ndarray | None = None                        # [C, C]
    inner: list[InnerModel] = field(default_factory=list)
    w_eta: list[np.ndarray] = field(default_factory=list)  # per head [C, 1]
    head_archs: tuple[str, ...] = ()
    normalize_qk: bool = False

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, heads: int,
               head_archs, dtype=np.float64, normalize_qk: bool = False):
        if dim % heads != 0:
            raise T.DimensionError(f"dim {dim} not divisible by heads {heads}")
        head_archs = tuple(head_archs)
        if len(head_archs) != heads:
            raise T.DimensionError(f"need {heads} head architectures, got {len(head_archs)}")
        d = dim // heads
        s = 1.0 / np.sqrt(dim)
        p = cls(dim=dim, heads=heads, head_archs=head_archs, normalize_qk=normalize_qk)
        for name in head_archs:
            p.wq.append(rng.uniform(-s, s, (dim, d)).astype(dtype))
            p.wk.append(rng.uniform(-s, s, (dim, d)).astype(dtype))
            p.wv.append(rng.uniform(-s, s, (dim, d)).astype(dtype))
            p.inner.append(InnerModel.create(name, d, rng, dtype))
            p.w_eta.append(np.zeros((dim, 1), dtype=dtype))
        p.w_o = rng.uniform(-s, s, (dim, dim)).astype(dtype)
        return p

    def named_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        out = {}
        for h in range(self.heads):
            out[f"{prefix}h{h}.wq"] = self.wq[h]
            out[f"{prefix}h{h}.wk"] = self.wk[h]
            out[f"{prefix}h{h}.wv"] = self.wv[h]
            for j, w in enumerate(self.inner[h].weights):
                out[f"{prefix}h{h}.w0.{j}"] = w
            out[f"{prefix}h{h}.weta"] = self.w_eta[h]
        out[f"{prefix}wo"] = self.w_o
        return out


def _l2_normalize_rows(q: Node) -> Node:
    n = ad.sqrt_(ad.clip_min(ad.sum_last(ad.mul(q, q)), 1e-12))
    return ad.colscale(q, ad.reciprocal(n))


def ttt_attention_nodes(x: Node, leaves: dict[str, Node], params: TTTLayerParams,
                        cfg: InnerTrainConfig, grid=None, prefix: str = "") -> Node:
    """Tape-level layer forward on [.., N, C] rows; leaves hold the parameter nodes."""
    outs = []
    for h in range(params.heads):
        arch = get_arch(params.head_archs[h])
        q = ad.matmul(x, leaves[f"{prefix}h{h}.wq"])
        k = ad.matmul(x, leaves[f"{prefix}h{h}.wk"])
        v = ad.matmul(x, leaves[f"{prefix}h{h}.wv"])
        if params.normalize_qk:
            q = _l2_normalize_rows(q)
            k = _l2_normalize_rows(k)
        rate = None
        if cfg.dynamic_lr:
            rate = dynamic_rate(x, leaves[f"{prefix}h{h}.weta"], cfg.lr)
        ws = [leaves[f"{prefix}h{h}.w0.{j}"] for j in range(len(params.inner[h].weights))]
        try:
            ws_star = inner_update_nodes(arch, ws, k, v, cfg, rate, grid)
        except DivergenceError as e:
            raise DivergenceError(f"{prefix}h{h}: {e}") from e
        outs.append(arch.forward(ws_star, q, grid))
    return ad.matmul(ad.concat_last(outs), leaves[f"{prefix}wo"])


def ttt_attention(x: np.ndarray, params: TTTLayerParams, cfg: InnerTrainConfig,
                  grid=None) -> np.ndarray:
    """TTT layer forward on one [N, C] token sequence (grid = (H, W) for conv heads)."""
    tape = Tape()
    leaves = {name: tape.leaf(arr, name=name, param=True)
              for name, arr in params.named_arrays().items()}
    return ttt_attention_nodes(tape.leaf(x), leaves, params, cfg, grid).value


_SOFTMAX_CHUNK = 256


def _softmax_head(q: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    # sigma(Q W1) W2; softmax attention is the W1 = K^T, W2 = V case.
    # Processed in query-row blocks so transient memory stays bounded at
    # chunk x N instead of N x N.
    n = q.shape[0]
    if n <= _SOFTMAX_CHUNK:
        return T.matmul(T.softmax_rows(T.matmul(q, w1)), w2)
    out = np.empty((n, w2.shape[1]), dtype=np.result_type(q, w1, w2))
    for lo in range(0, n, _SOFTMAX_CHUNK):
        hi = min(lo + _SOFTMAX_CHUNK, n)
        out[lo:hi] = T.matmul(T.softmax_rows(T.matmul(q[lo:hi], w1)), w2)
    return out


def softmax_attention(x: np.ndarray, params: TTTLayerParams) -> np.ndarray:
    """Multi-head softmax attention baseline (no 1/sqrt(d); absorbed into Q, K)."""
    outs = []
    for h in range(params.heads):
        q, k, v = x @ params.wq[h], x @ params.wk[h], x @ params.wv[h]
        outs.append(_softmax_head(q, T.transpose(k), v))
    return np.concatenate(outs, axis=-1) @ params.w_o


def attention_mlp_oracle(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Softmax attention as the two-layer MLP sigma(Q W1) W2 with W1=K^T, W2=V."""
    return _softmax_head(q, T.transpose(k), v)


def elu_plus_one(x: np.ndarray) -> np.ndarray:
    """Default nonnegative kernel map for linear attention."""
    return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def linear_attention(x: np.ndarray, params: TTTLayerParams, phi=elu_plus_one) -> np.ndarray:
    """Kernel-normalized linear attention in its O(N) accumulated form."""
    outs = []
    for h in range(params.heads):
        qf = phi(x @ params.wq[h])
        kf = phi(x @ params.wk[h])
        v = x @ params.wv[h]
        state = kf.T @ v            # [d, d] accumulator; never an N x N product
        zsum = kf.sum(axis=0)       # [d]
        den = qf @ zsum
        if np.any(np.abs(den) < 1e-9):
            raise NormalizationError("linear attention denominator below 1e-9")
        outs.append((qf @ state) / den[:, None])
    return np.concatenate(outs, axis=-1) @ params.w_o
