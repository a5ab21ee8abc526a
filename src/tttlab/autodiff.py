"""Reverse-mode differentiation over a recorded tape of primitives.

The tape is a flat list of nodes in construction (topological) order; one
backward pass visits each node exactly once, accumulating cotangents in a
fixed order so runs are bit-reproducible. Inner-training weight gradients
are themselves built on the tape as analytic expressions of these same
primitives, so a single reverse pass propagates outer-loop gradients through
unrolled inner updates; there are no nested tapes.

Whoever makes a tape owns it. The tape lists its nodes, and each node refers
to its tape only weakly, so a graph holds no reference cycle: reference
counting frees a tape, and every buffer only it holds, the moment its owner
drops it, whether backward spent it, a forward-only caller abandoned it or a
forward raised half way. `node.tape` is the tape while it lives; an op on a
node whose tape is gone raises `ContractError`. Backward spends the graph
(`Tape.release`): it cuts each node's link to the tape and drops its vjp and
inputs. Node values, ops and indices stay readable.

A vjp computes a cotangent only for an input that requires one; it returns
None for a data leaf or a constant.

A `Tape(record=False)` runs the same ops on the same values but records
nothing: its nodes keep no inputs and no vjp and are not listed, so each
intermediate is freed as soon as the next op no longer needs it. Helpers that
only want a forward value build on it.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from . import tensor as T


class ContractError(ValueError):
    """An autodiff op was called outside its contract (e.g. non-scalar root)."""


class OracleError(RuntimeError):
    """gradcheck was handed a non-deterministic function."""


class _SpentTape:
    """Stands in for the tape of a spent or dropped node: recording a new op on it raises."""

    def _refuse(self, *args, **kwargs):
        raise ContractError("this node's tape was spent by backward, released or "
                            "dropped by its owner; record the computation on a new Tape")

    leaf = push = _refuse


_SPENT = _SpentTape()


def _no_tape():
    """The tape reference of a released node: it resolves to nothing."""
    return None


class RowSlice:
    """Cotangent of rows [lo, hi) of an input; backward scatter-adds it in place."""

    __slots__ = ("g", "lo", "hi")

    def __init__(self, g, lo, hi):
        self.g, self.lo, self.hi = g, lo, hi


class Node:
    """One tape entry: a value plus the rule for pushing cotangents to inputs."""

    __slots__ = ("_tape", "idx", "value", "inputs", "vjp", "requires", "op")

    def __init__(self, tape_ref, idx, value, inputs, vjp, requires, op):
        self._tape = tape_ref
        self.idx = idx
        self.value = value
        self.inputs = inputs
        self.vjp = vjp
        self.requires = requires
        self.op = op

    @property
    def tape(self):
        """The tape this node is on, or a stand-in that refuses new ops once it is gone."""
        tape = self._tape()
        return _SPENT if tape is None else tape

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape}, id={self.idx})"


class Tape:
    """Records ops for one backward pass; `record=False` computes values only."""

    def __init__(self, record: bool = True):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}
        self.record = record
        self.spent = False
        self._ref = weakref.ref(self)

    def leaf(self, value: np.ndarray, name: str | None = None, param: bool = False) -> Node:
        if not self.record:
            return Node(self._ref, None, np.asarray(value), (), None, False, "leaf")
        node = Node(self._ref, len(self.nodes), np.asarray(value), (), None, param, "leaf")
        self.nodes.append(node)
        if param:
            if name is None:
                name = f"param{len(self.params)}"
            if name in self.params:
                raise ContractError(f"duplicate parameter name {name!r}")
            self.params[name] = node
        return node

    def push(self, value, inputs, vjp, op) -> Node:
        if not self.record:
            return Node(self._ref, None, value, (), None, False, op)
        requires = any(n.requires for n in inputs)
        node = Node(self._ref, len(self.nodes), value, tuple(inputs), vjp, requires, op)
        self.nodes.append(node)
        return node

    def release(self) -> None:
        """Spend the graph: cut every node's link to this tape, drop its vjp and inputs.

        The vjp closures hold the inputs' values, so dropping them frees those
        buffers even while the caller keeps the tape or a node. `nodes`,
        `params` and each node's value, op and idx stay readable; a new op on
        a node, or a backward, raises ContractError.
        """
        for node in self.nodes:
            node._tape = _no_tape
            node.vjp = None
            node.inputs = ()
        self.spent = True

    def backward(self, root: Node) -> dict[str, np.ndarray]:
        """Gradients of a scalar root w.r.t. every parameter leaf (zeros if untouched).

        Spends the tape, whether or not a vjp raises.
        """
        if not self.record:
            raise ContractError("a Tape(record=False) keeps no graph to differentiate; "
                                "record the computation on a Tape()")
        if self.spent:
            raise ContractError("tape already spent by backward or released; "
                                "record the computation on a new Tape")
        if root.tape is not self:
            raise ContractError("root belongs to a different tape")
        if root.value.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.value.shape}")
        grads: dict[int, np.ndarray] = {root.idx: np.ones_like(root.value)}
        owned: set[int] = set()      # indices whose buffer backward allocated itself
        try:
            for node in reversed(self.nodes[: root.idx + 1]):
                if node.vjp is None:
                    continue
                g = grads.pop(node.idx, None)
                if g is None:
                    continue
                for inp, cot in zip(node.inputs, node.vjp(g)):
                    if cot is not None and inp.requires:
                        _accumulate(grads, owned, inp, cot)
            out = {}
            for name, leaf in self.params.items():
                g = grads.get(leaf.idx)
                out[name] = np.zeros_like(leaf.value) if g is None else g
            return out
        finally:
            self.release()


def _accumulate(grads: dict, owned: set, inp: Node, cot) -> None:
    """Add one cotangent into inp's entry, in place only into buffers backward owns.

    A vjp's output may be aliased (add hands the same g to both inputs), so
    the first one is stored as is and never written to; the second sum
    allocates a buffer that later cotangents are added into. A RowSlice is
    scatter-added into one owned zeroed buffer. Sums run in visit order, so
    results equal the out-of-place `grads[i] + cot` chain.
    """
    i = inp.idx
    prev = grads.get(i)
    if type(cot) is RowSlice:
        if i not in owned:
            buf = np.zeros_like(inp.value)
            if prev is not None:
                buf += prev
            grads[i] = prev = buf
            owned.add(i)
        prev[..., cot.lo:cot.hi, :] += cot.g
    elif prev is None:
        grads[i] = cot
    elif i in owned and cot.shape == prev.shape and cot.dtype == prev.dtype:
        np.add(prev, cot, out=prev)
    else:
        acc = prev + cot
        grads[i] = acc
        if isinstance(acc, np.ndarray):
            owned.add(i)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a cotangent down to the shape of an operand that was broadcast up."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _checked(op: str, *cots) -> tuple:
    """Debug-check each cotangent a vjp computed; None marks an input that needs none."""
    if T._debug:
        for c in cots:
            if c is not None:
                T._check(c, op)
    return cots


def _coerce(a, like: Node) -> Node:
    if isinstance(a, Node):
        return a
    return like.tape.leaf(np.asarray(a, dtype=like.value.dtype))


# ---------------------------------------------------------------------------
# arithmetic

def add(a: Node, b) -> Node:
    b = _coerce(b, a)
    out = T.add(a.value, b.value)

    def vjp(g):
        return _checked("add vjp",
                        _unbroadcast(g, a.value.shape) if a.requires else None,
                        _unbroadcast(g, b.value.shape) if b.requires else None)

    return a.tape.push(out, (a, b), vjp, "add")


def sub(a: Node, b) -> Node:
    b = _coerce(b, a)
    out = T.sub(a.value, b.value)

    def vjp(g):
        return _checked("sub vjp",
                        _unbroadcast(g, a.value.shape) if a.requires else None,
                        _unbroadcast(-g, b.value.shape) if b.requires else None)

    return a.tape.push(out, (a, b), vjp, "sub")


def mul(a: Node, b) -> Node:
    b = _coerce(b, a)
    av, bv = a.value, b.value
    out = T.mul(av, bv)

    def vjp(g):
        return _checked("mul vjp",
                        _unbroadcast(g * bv, av.shape) if a.requires else None,
                        _unbroadcast(g * av, bv.shape) if b.requires else None)

    return a.tape.push(out, (a, b), vjp, "mul")


def scale(a: Node, c: float) -> Node:
    out = T.scale(a.value, c)

    def vjp(g):
        return (T._check(g * c, "scale vjp"),)

    return a.tape.push(out, (a,), vjp, "scale")


def _shared_weight_vjp(g: np.ndarray, x: Node, w: Node):
    """Cotangents of x @ w for a shared 2-D w, each one GEMM over x's folded rows."""
    g2 = T.fold_rows(g)
    dx = (g2 @ w.value.T).reshape(x.value.shape) if x.requires else None
    dw = T.fold_rows(x.value).T @ g2 if w.requires else None
    return dx, dw


def matmul(a: Node, b: Node) -> Node:
    """a @ b; a shared 2-D b folds a's leading axes into one GEMM, a stacked b broadcasts."""
    av, bv = a.value, b.value
    out = T.matmul(av, bv)

    def vjp(g):
        if bv.ndim == 2:
            return _checked("matmul vjp", *_shared_weight_vjp(g, a, b))
        return _checked(
            "matmul vjp",
            _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)
            if a.requires else None,
            _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)
            if b.requires else None)

    return a.tape.push(out, (a, b), vjp, "matmul")


def linear(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b for a shared [K, N] weight and [N] bias, as one tape op."""
    out = T.linear(x.value, w.value, b.value)

    def vjp(g):
        dx, dw = _shared_weight_vjp(g, x, w)
        db = T.fold_rows(g).sum(axis=0) if b.requires else None
        return _checked("linear vjp", dx, dw, db)

    return x.tape.push(out, (x, w, b), vjp, "linear")


# ---------------------------------------------------------------------------
# layout

def transpose(a: Node) -> Node:
    out = T.transpose(a.value)

    def vjp(g):
        return (T._check(np.swapaxes(g, -1, -2), "transpose vjp"),)

    return a.tape.push(out, (a,), vjp, "transpose")


def reshape(a: Node, shape) -> Node:
    src = a.value.shape
    out = T.reshape(a.value, shape)

    def vjp(g):
        return (T._check(g.reshape(src), "reshape vjp"),)

    return a.tape.push(out, (a,), vjp, "reshape")


def rows(a: Node, lo: int, hi: int) -> Node:
    """Slice token rows [lo, hi) along axis -2."""
    out = np.ascontiguousarray(a.value[..., lo:hi, :])

    def vjp(g):
        return (RowSlice(T._check(g, "rows vjp"), lo, hi),)

    return a.tape.push(out, (a,), vjp, "rows")


def pad_rows(a: Node, n: int, lo: int, hi: int) -> Node:
    """Embed token rows back at [lo, hi) of an n-token zero field (adjoint of rows)."""
    shape = a.value.shape[:-2] + (n, a.value.shape[-1])
    out = np.zeros(shape, dtype=a.value.dtype)
    out[..., lo:hi, :] = a.value

    def vjp(g):
        return (T._check(np.ascontiguousarray(g[..., lo:hi, :]), "pad_rows vjp"),)

    return a.tape.push(out, (a,), vjp, "pad_rows")


def concat_last(parts: list[Node]) -> Node:
    vals = [p.value for p in parts]
    out = np.concatenate(vals, axis=-1)
    widths = [v.shape[-1] for v in vals]
    offsets = np.cumsum(widths)[:-1]

    def vjp(g):
        return _checked("concat_last vjp",
                        *(np.ascontiguousarray(s) if p.requires else None
                          for p, s in zip(parts, np.split(g, offsets, axis=-1))))

    return parts[0].tape.push(out, tuple(parts), vjp, "concat_last")


# ---------------------------------------------------------------------------
# reductions

def sum_all(a: Node) -> Node:
    out = T._check(np.asarray(a.value.sum()), "sum_all")
    T._tick(a.value.size)

    def vjp(g):
        return (T._check(np.full(a.value.shape, g, dtype=a.value.dtype), "sum_all vjp"),)

    return a.tape.push(out, (a,), vjp, "sum_all")


def sum_last(a: Node) -> Node:
    """Sum over the last axis."""
    out = T._check(a.value.sum(axis=-1), "sum_last")
    T._tick(a.value.size)

    def vjp(g):
        return (T._check(np.broadcast_to(g[..., None], a.value.shape).astype(a.value.dtype),
                         "sum_last vjp"),)

    return a.tape.push(out, (a,), vjp, "sum_last")


def sum_last2(a: Node) -> Node:
    """Sum over the last two axes (per-sequence reduction of [.., B, d])."""
    out = T._check(a.value.sum(axis=(-2, -1)), "sum_last2")
    T._tick(a.value.size)

    def vjp(g):
        return (T._check(np.broadcast_to(g[..., None, None], a.value.shape)
                         .astype(a.value.dtype), "sum_last2 vjp"),)

    return a.tape.push(out, (a,), vjp, "sum_last2")


def matscale(m: Node, s: Node) -> Node:
    """Scale each [B, d] matrix of m by the matching scalar of s (shape m.shape[:-2])."""
    mv, sv = m.value, s.value
    if sv.shape != mv.shape[:-2]:
        raise ContractError(f"matscale rate shape {sv.shape} != {mv.shape[:-2]}")
    out = T._check(mv * sv[..., None, None], "matscale")
    T._tick(mv.size)

    def vjp(g):
        return _checked("matscale vjp",
                        g * sv[..., None, None] if m.requires else None,
                        (g * mv).sum(axis=(-2, -1)) if s.requires else None)

    return m.tape.push(out, (m, s), vjp, "matscale")


def mean_tokens(a: Node) -> Node:
    """Mean over the token axis (-2): global average pooling."""
    n = a.value.shape[-2]
    out = T._check(a.value.mean(axis=-2), "mean_tokens")
    T._tick(a.value.size)

    def vjp(g):
        return (T._check(np.broadcast_to(g[..., None, :] / n, a.value.shape)
                         .astype(a.value.dtype), "mean_tokens vjp"),)

    return a.tape.push(out, (a,), vjp, "mean_tokens")


# ---------------------------------------------------------------------------
# elementwise

def silu(a: Node) -> Node:
    x = a.value
    s = T._sigmoid(x)
    out = T._check(x * s, "silu")
    T._tick(4 * x.size)

    def vjp(g):
        # SiLU'(x) = s (1 + x (1 - s)) from the saved sigmoid, built in one buffer
        d = 1.0 - s
        d *= x
        d += 1.0
        d *= s
        d *= g
        return (T._check(d, "silu vjp"),)

    return a.tape.push(out, (a,), vjp, "silu")


def silu_prime(a: Node) -> Node:
    """SiLU'(x) as a forward value; differentiable once more (SiLU'')."""
    x = a.value
    s = T.sigmoid(x)
    out = T._check(s * (1.0 + x * (1.0 - s)), "silu_prime")
    T._tick(3 * x.size)

    def vjp(g):
        # SiLU''(x) = s(1-s) (2 + x(1-2s))
        return (T._check(g * (s * (1.0 - s) * (2.0 + x * (1.0 - 2.0 * s))),
                         "silu_prime vjp"),)

    return a.tape.push(out, (a,), vjp, "silu_prime")


def sigmoid(a: Node) -> Node:
    s = T.sigmoid(a.value)

    def vjp(g):
        d = g * s
        d *= 1.0 - s
        return (T._check(d, "sigmoid vjp"),)

    return a.tape.push(s, (a,), vjp, "sigmoid")


def sign(a: Node) -> Node:
    """Token-wise sign; blocks gradient flow (derivative zero a.e.)."""
    out = T.sign(a.value)

    def vjp(g):
        return (None,)

    return a.tape.push(out, (a,), vjp, "sign")


def abs_(a: Node) -> Node:
    out = T.abs_(a.value)

    def vjp(g):
        return (T._check(g * np.sign(a.value), "abs vjp"),)

    return a.tape.push(out, (a,), vjp, "abs")


def sqrt_(a: Node) -> Node:
    out = T.sqrt_(a.value)

    def vjp(g):
        return (T._check(g * (0.5 / out), "sqrt vjp"),)

    return a.tape.push(out, (a,), vjp, "sqrt")


def reciprocal(a: Node) -> Node:
    out = T._check(1.0 / a.value, "reciprocal")

    def vjp(g):
        return (T._check(-g * out * out, "reciprocal vjp"),)

    return a.tape.push(out, (a,), vjp, "reciprocal")


def clip_min(a: Node, c: float) -> Node:
    out = T._check(np.maximum(a.value, c), "clip_min")

    def vjp(g):
        return (T._check(g * (a.value > c), "clip_min vjp"),)

    return a.tape.push(out, (a,), vjp, "clip_min")


def huber(a: Node) -> Node:
    """Smooth-L1 kernel l(x) = x^2/2 inside |x|<1, |x| - 1/2 outside."""
    x = a.value
    inside = np.abs(x) < 1.0
    out = T._check(np.where(inside, 0.5 * x * x, np.abs(x) - 0.5), "huber")
    T._tick(3 * x.size)

    def vjp(g):
        return (T._check(g * np.where(inside, x, np.sign(x)), "huber vjp"),)

    return a.tape.push(out, (a,), vjp, "huber")


def huber_prime(a: Node) -> Node:
    """l'(x): identity inside the quadratic zone, sign outside."""
    x = a.value
    inside = np.abs(x) < 1.0
    out = T._check(np.where(inside, x, np.sign(x)), "huber_prime")
    T._tick(2 * x.size)

    def vjp(g):
        return (T._check(g * inside, "huber_prime vjp"),)

    return a.tape.push(out, (a,), vjp, "huber_prime")


def colscale(m: Node, s: Node) -> Node:
    """Scale each token row of m by the matching entry of rate vector s."""
    mv, sv = m.value, s.value
    if sv.shape != mv.shape[:-1]:
        raise ContractError(f"colscale rate shape {sv.shape} != row shape {mv.shape[:-1]}")
    out = T._check(mv * sv[..., None], "colscale")
    T._tick(mv.size)

    def vjp(g):
        return _checked("colscale vjp",
                        g * sv[..., None] if m.requires else None,
                        (g * mv).sum(axis=-1) if s.requires else None)

    return m.tape.push(out, (m, s), vjp, "colscale")


# ---------------------------------------------------------------------------
# composite primitives with dedicated backward rules

def layer_norm(x: Node, gamma: Node, beta: Node, eps: float = 1e-5) -> Node:
    xv = x.value
    # centre once; the centred rows give the variance and, scaled, xhat
    xhat = xv - xv.mean(axis=-1, keepdims=True)
    inv = np.square(xhat).sum(axis=-1, keepdims=True)
    inv /= xv.shape[-1]
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = xhat * gamma.value
    out += beta.value
    T._tick(8 * xv.size)

    def vjp(g):
        dx = t = None
        if x.requires:
            dxhat = g * gamma.value
            m1 = dxhat.mean(axis=-1, keepdims=True)
            t = dxhat * xhat
            m2 = t.mean(axis=-1, keepdims=True)
            dx = dxhat
            dx -= m1
            dx -= np.multiply(xhat, m2, out=t)
            dx *= inv
        dgamma = (_unbroadcast(np.multiply(g, xhat, out=t), gamma.value.shape)
                  if gamma.requires else None)
        dbeta = _unbroadcast(g, beta.value.shape) if beta.requires else None
        return _checked("layer_norm vjp", dx, dgamma, dbeta)

    return x.tape.push(T._check(out, "layer_norm"), (x, gamma, beta), vjp, "layer_norm")


def cross_entropy(logits: Node, labels: np.ndarray) -> Node:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    lv = logits.value
    shifted = lv - lv.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    n = lv.shape[0]
    nll = logz - shifted[np.arange(n), labels]
    out = T._check(np.asarray(nll.mean()), "cross_entropy")
    T._tick(5 * lv.size)

    def vjp(g):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (T._check(p * (g / n), "cross_entropy vjp"),)

    return logits.tape.push(out, (logits,), vjp, "cross_entropy")


def dwconv3x3(x: Node, k: Node) -> Node:
    """Depthwise 3x3 conv on [b,H,W,C]; kernel shared [3,3,C] or per-sample [b,3,3,C]."""
    xv, kv = x.value, k.value
    out = T.dwconv3x3(xv, kv)

    def vjp(g):
        dx = (T.dwconv3x3(g, T.flip_dw(kv), check="dwconv3x3 vjp")
              if x.requires else None)
        dk = (T.dwconv3x3_wgrad(xv, g, per_sample=(kv.ndim == 4), check="dwconv3x3 vjp")
              if k.requires else None)
        return dx, dk

    return x.tape.push(out, (x, k), vjp, "dwconv3x3")


def conv3x3(x: Node, k: Node) -> Node:
    """Full 3x3 conv on [b,H,W,C]; kernel [3,3,Ci,Co] or per-sample [b,3,3,Ci,Co]."""
    xv, kv = x.value, k.value
    out = T.conv3x3_full(xv, kv)

    def vjp(g):
        dx = (T.conv3x3_full(g, T.flip_full(kv), check="conv3x3 vjp")
              if x.requires else None)
        dk = (T.conv3x3_full_wgrad(xv, g, per_sample=(kv.ndim == 5), check="conv3x3 vjp")
              if k.requires else None)
        return dx, dk

    return x.tape.push(out, (x, k), vjp, "conv3x3")


def dwconv3x3_wgrad(x: Node, g_in: Node) -> Node:
    """Per-sample kernel gradient of a depthwise conv, as a differentiable forward op."""
    xv, gv = x.value, g_in.value
    out = T.dwconv3x3_wgrad(xv, gv, per_sample=True)

    def vjp(ct):
        dx = (T.dwconv3x3(gv, T.flip_dw(ct), check="dwconv3x3_wgrad vjp")
              if x.requires else None)
        dg = T.dwconv3x3(xv, ct, check="dwconv3x3_wgrad vjp") if g_in.requires else None
        return dx, dg

    return x.tape.push(out, (x, g_in), vjp, "dwconv3x3_wgrad")


def conv3x3_wgrad(x: Node, g_in: Node) -> Node:
    """Per-sample kernel gradient of a full conv, as a differentiable forward op."""
    xv, gv = x.value, g_in.value
    out = T.conv3x3_full_wgrad(xv, gv, per_sample=True)

    def vjp(ct):
        dx = (T.conv3x3_full(gv, T.flip_full(ct), check="conv3x3_wgrad vjp")
              if x.requires else None)
        dg = T.conv3x3_full(xv, ct, check="conv3x3_wgrad vjp") if g_in.requires else None
        return dx, dg

    return x.tape.push(out, (x, g_in), vjp, "conv3x3_wgrad")


# ---------------------------------------------------------------------------
# numeric validation

def gradcheck(f: Callable[[dict, Tape], Node], params: dict[str, np.ndarray],
              eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `f(p, tape)` builds its computation on `tape` from a fresh parameter
    dict and returns the scalar root node; gradcheck makes and holds every
    tape. The analytic pass records; each numeric evaluation runs on a
    `Tape(record=False)`, which gives the same values without a graph.
    params must be float64 for the stated tolerances to be meaningful.
    Error metric per entry: |analytic - numeric| / max(1, |numeric|).
    """
    def value(p):
        return f(p, Tape(record=False)).value

    tape = Tape()
    root = f(params, tape)
    if not np.isfinite(root.value).all():
        raise T.NonFiniteError(f"gradcheck root ({root.op}) is non-finite: {root.value}")
    if not np.allclose(root.value, value(params), rtol=0, atol=0):
        raise OracleError("gradcheck function is not deterministic")
    analytic = tape.backward(root)

    worst = 0.0
    for name, base in params.items():
        an = analytic[name]
        flat = base.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            pert = {k: (v if k != name else v.copy()) for k, v in params.items()}
            pflat = pert[name].reshape(-1)
            pflat[i] = orig + eps
            fp = float(value(pert))
            pflat[i] = orig - eps
            fm = float(value(pert))
            numeric = (fp - fm) / (2 * eps)
            err = abs(float(an.reshape(-1)[i]) - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
