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
forward raised half way. `node.tape` is the tape while it lives and is not
spent; on a node whose tape is spent or gone it raises `ContractError`, so no
op can be recorded there. Backward spends the graph (`Tape.release`): it
marks the tape spent and drops each node's vjp and inputs. Node values, ops
and indices stay readable.

Every tensor operand of an op is a node; a constant enters as a leaf. A vjp
computes a cotangent only for an input that requires one; it returns None for
a data leaf or a constant.

A `Tape(record=False)` runs the same ops on the same values but records
nothing: its nodes keep no inputs and no vjp and are not listed, so each
intermediate is freed as soon as the next op no longer needs it. Helpers that
only want a forward value build on it.

`Tape.tracing()` lists the ops pushed inside it with their inputs, on either
kind of tape, so a caller can walk back over one forward it ran.
`Tape.weight_grads` is that walk for an inner model: from one traced forward
it builds the weights' gradients as tape expressions, one rule per op.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Callable

import numpy as np

from . import tensor as T


class ContractError(ValueError):
    """An autodiff op was called outside its contract (e.g. non-scalar root)."""


class OracleError(RuntimeError):
    """gradcheck was handed a non-deterministic function."""


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
    def tape(self) -> "Tape":
        """The tape this node is on; ContractError once it is spent or dropped."""
        tape = self._tape()
        if tape is None or tape.spent:
            raise ContractError("this node's tape was spent by backward, released or "
                                "dropped by its owner; record the computation on a new Tape")
        return tape


class Tape:
    """Records ops for one backward pass; `record=False` computes values only."""

    def __init__(self, record: bool = True):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}
        self.record = record
        self.spent = False
        self.trace: list | None = None
        self._ref = weakref.ref(self)

    def leaf(self, value: np.ndarray, name: str | None = None, param: bool = False) -> Node:
        if param and name is None:
            raise ContractError("a parameter leaf needs a name")
        if not self.record:
            return Node(self._ref, None, np.asarray(value), (), None, False, "leaf")
        node = Node(self._ref, len(self.nodes), np.asarray(value), (), None, param, "leaf")
        self.nodes.append(node)
        if param:
            if name in self.params:
                raise ContractError(f"duplicate parameter name {name!r}")
            self.params[name] = node
        return node

    def push(self, value, inputs, vjp, op) -> Node:
        """Record one op under its name.

        In debug mode the value is checked for finiteness as `op`, and a
        recording tape wraps the vjp so that every cotangent it computes is
        checked as "`op` vjp". Debug mode is read here, when the op is
        recorded: an op recorded with it off keeps its own vjp and is never
        checked.
        """
        if T._debug:
            T._check(value, op)
            if self.record:
                vjp = _checked_vjp(vjp, f"{op} vjp")
        if not self.record:
            node = Node(self._ref, None, value, (), None, False, op)
        else:
            requires = any(n.requires for n in inputs)
            node = Node(self._ref, len(self.nodes), value, tuple(inputs), vjp, requires, op)
            self.nodes.append(node)
        if self.trace is not None:
            self.trace.append((node, inputs))
        return node

    @contextmanager
    def tracing(self):
        """Yield a list of (node, inputs) for each op pushed in the block; no nesting."""
        self.trace = ops = []
        try:
            yield ops
        finally:
            self.trace = None

    def weight_grads(self, ops: list, ws: list[Node], out: Node, dv: Node) -> list[Node]:
        """Cotangents of ws from the traced ops of one forward, one rule per op.

        Walks the ops (a `tracing()` list) in reverse from out's cotangent dv,
        and sends cotangents only to the nodes that depend on a weight. Each
        cotangent is built from this module's ops, so it is a tape expression
        that a later backward differentiates again. A node reached from several
        consumers sums its cotangents with `add`. The rules, one op each:
        matmul (`matmul_t`: a^T g for b, g b^T for a, on transposed views),
        same-shape mul and add, silu (`mul_silu_prime`), reshape, and
        dwconv3x3 over a data grid (`dwconv3x3_wgrad`).
        """
        dep = set(ws)
        for node, inputs in ops:
            if not dep.isdisjoint(inputs):
                dep.add(node)
        cot = {out: dv}

        def send(a, g):
            cot[a] = g if a not in cot else add(cot[a], g)

        for node, inputs in reversed(ops):
            g = cot.pop(node, None)
            if g is None:
                continue
            op, (a, b) = node.op, (*inputs, None)[:2]
            if op == "matmul":
                # the weight's cotangent first: it fixes the order of dv's consumers
                if b in dep:
                    send(b, matmul_t(a, g, 0))
                if a in dep:
                    send(a, matmul_t(g, b, 1))
            elif op in ("mul", "add") and a.value.shape == b.value.shape:
                for c, other in ((a, b), (b, a)):
                    if c in dep:
                        send(c, g if op == "add" else mul(g, other))
            elif op == "silu":
                send(a, mul_silu_prime(g, a))
            elif op == "reshape":
                # a shared weight's cotangent keeps the per-sample axes matmul gave it
                lead = g.value.shape[:g.value.ndim - node.value.ndim]
                send(a, reshape(g, (*lead, *a.value.shape)))
            elif op == "dwconv3x3" and a not in dep:
                gk = dwconv3x3_wgrad(a, g)   # per sample; an unbatched grid has one
                if a.value.ndim == 3:
                    gk = reshape(gk, gk.value.shape[1:])
                send(b, gk)
            else:
                raise ContractError(f"no weight-gradient rule for {op!r} with these "
                                    "operands on a weight's path")
        return [cot[w] for w in ws]

    def release(self) -> None:
        """Spend the graph: drop every node's vjp and inputs.

        The vjp closures hold the inputs' values, so dropping them frees those
        buffers even while the caller keeps the tape or a node. `nodes`,
        `params` and each node's value, op and idx stay readable; a new op on
        a node, or a backward, raises ContractError.
        """
        for node in self.nodes:
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


def _checked_vjp(vjp, op: str):
    """vjp with each cotangent it computes checked as `op` (None, for an input that
    needs none, is skipped; a RowSlice is checked through its rows)."""
    def checked(g):
        cots = vjp(g)
        for c in cots:
            if c is not None:
                T._check(c.g if type(c) is RowSlice else c, op)
        return cots

    return checked


# ---------------------------------------------------------------------------
# arithmetic

def add(a: Node, b: Node) -> Node:
    T._shape_compatible(a.value, b.value, "add")
    T._tick(max(np.size(a.value), np.size(b.value)))
    out = np.add(a.value, b.value)

    def vjp(g):
        return (_unbroadcast(g, a.value.shape) if a.requires else None,
                _unbroadcast(g, b.value.shape) if b.requires else None)

    return a.tape.push(out, (a, b), vjp, "add")


def sub(a: Node, b: Node) -> Node:
    T._shape_compatible(a.value, b.value, "sub")
    T._tick(max(np.size(a.value), np.size(b.value)))
    out = np.subtract(a.value, b.value)

    def vjp(g):
        return (_unbroadcast(g, a.value.shape) if a.requires else None,
                _unbroadcast(-g, b.value.shape) if b.requires else None)

    return a.tape.push(out, (a, b), vjp, "sub")


def mul(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    T._shape_compatible(av, bv, "mul")
    T._tick(max(np.size(av), np.size(bv)))
    out = np.multiply(av, bv)

    def vjp(g):
        return (_unbroadcast(g * bv, av.shape) if a.requires else None,
                _unbroadcast(g * av, bv.shape) if b.requires else None)

    return a.tape.push(out, (a, b), vjp, "mul")


def scale(a: Node, c: float) -> Node:
    T._tick(np.size(a.value))
    out = a.value * c

    def vjp(g):
        return (g * c,)

    return a.tape.push(out, (a,), vjp, "scale")


def sub_scaled(w: Node, g: Node, c: float) -> Node:
    """w - c g, the fixed-rate inner update, as one op: `sub(w, scale(g, c))` bit
    for bit, with the same FLOPs and cotangents."""
    T._shape_compatible(w.value, g.value, "sub_scaled")
    T._tick(np.size(g.value) + max(np.size(w.value), np.size(g.value)))
    out = np.subtract(w.value, g.value * c)

    def vjp(ct):
        return (_unbroadcast(ct, w.value.shape) if w.requires else None,
                _unbroadcast(-ct, g.value.shape) * c if g.requires else None)

    return w.tape.push(out, (w, g), vjp, "sub_scaled")


def _shared_weight_vjp(g: np.ndarray, xv: np.ndarray, wv: np.ndarray, dx: bool, dw: bool):
    """Cotangents of x @ w for a shared 2-D w, each one GEMM over x's folded rows;
    dx and dw say which ones are wanted."""
    g2 = T.fold_rows(g)
    return ((g2 @ wv.T).reshape(xv.shape) if dx else None,
            T.fold_rows(xv).T @ g2 if dw else None)


def _matmul_vjp(g: np.ndarray, av: np.ndarray, bv: np.ndarray, da: bool, db: bool):
    """Cotangents of av @ bv: a shared 2-D bv folds av's rows, a stacked one broadcasts."""
    if bv.ndim == 2:
        return _shared_weight_vjp(g, av, bv, da, db)
    return (_unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape) if da else None,
            _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape) if db else None)


def matmul(a: Node, b: Node) -> Node:
    """a @ b; a shared 2-D b folds a's leading axes into one GEMM, a stacked b broadcasts."""
    av, bv = a.value, b.value
    out = T.matmul(av, bv)
    return a.tape.push(out, (a, b), lambda g: _matmul_vjp(g, av, bv, a.requires, b.requires),
                       "matmul")


def matmul_t(a: Node, b: Node, side: int) -> Node:
    """a^T @ b (side 0) or a @ b^T (side 1), the transposed operand read through a
    view with its last two axes swapped: one GEMM and no transposed copy, with
    matmul's FLOPs. Its vjp is matmul's on the views, the transposed operand's
    cotangent swapped back."""
    views = [a.value, b.value]
    views[side] = np.swapaxes(views[side], -1, -2)
    av, bv = views
    out = T.matmul(av, bv)

    def vjp(g):
        cots = list(_matmul_vjp(g, av, bv, a.requires, b.requires))
        if cots[side] is not None:
            # contiguous, so the sums it joins in backward run in one layout
            cots[side] = np.ascontiguousarray(np.swapaxes(cots[side], -1, -2))
        return tuple(cots)

    return a.tape.push(out, (a, b), vjp, "matmul_t")


def _linear_vjp(g: np.ndarray, x: Node, w: Node, b: Node):
    """Cotangents of x @ w + b for a shared [K, N] weight and [N] bias."""
    dx, dw = _shared_weight_vjp(g, x.value, w.value, x.requires, w.requires)
    db = T.fold_rows(g).sum(axis=0) if b.requires else None
    return dx, dw, db


def linear(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b for a shared [K, N] weight and [N] bias, as one tape op."""
    out = T.linear(x.value, w.value, b.value)

    def vjp(g):
        return _linear_vjp(g, x, w, b)

    return x.tape.push(out, (x, w, b), vjp, "linear")


def linear_silu(x: Node, w: Node, b: Node) -> Node:
    """silu(x @ w + b) as one tape op: only the sigmoid of the pre-activation is
    kept, and the product is formed in the pre-activation's buffer."""
    out = T.linear(x.value, w.value, b.value)
    s = T.sigmoid(out)
    out *= s
    T._tick(4 * out.size)

    def vjp(g):
        # SiLU'(h) = s + silu(h) (1 - s), from the saved sigmoid and the output
        d = 1.0 - s
        d *= out
        d += s
        d *= g
        return _linear_vjp(d, x, w, b)

    return x.tape.push(out, (x, w, b), vjp, "linear_silu")


# residual adds: r + op(...) as one tape op, so a branch's output is no node of its own

def _add_residual(r: Node, out: np.ndarray, inputs: tuple, base_vjp, op: str) -> Node:
    """r added in place into out, the base op's fresh buffer: `add(r, base)` bit for bit,
    as IEEE addition commutes. The vjp hands g itself to r, as add does."""
    if out.shape != r.value.shape or out.dtype != r.value.dtype:
        raise T.DimensionError(f"{op}: residual {r.value.shape} {r.value.dtype} does not "
                               f"match the branch's {out.shape} {out.dtype}")
    out += r.value
    T._tick(out.size)
    return r.tape.push(out, (r, *inputs),
                       lambda g: (g if r.requires else None, *base_vjp(g)), op)


def add_matmul(r: Node, a: Node, w: Node) -> Node:
    """r + a @ w for a shared 2-D w."""
    if w.value.ndim != 2:
        raise T.DimensionError(f"add_matmul needs a shared 2-D weight, got {w.value.shape}")
    return _add_residual(r, T.matmul(a.value, w.value), (a, w),
                         lambda g: _shared_weight_vjp(g, a.value, w.value, a.requires,
                                                       w.requires), "add_matmul")


def add_linear(r: Node, x: Node, w: Node, b: Node) -> Node:
    """r + (x @ w + b) for a shared [K, N] weight and [N] bias."""
    return _add_residual(r, T.linear(x.value, w.value, b.value), (x, w, b),
                         lambda g: _linear_vjp(g, x, w, b), "add_linear")


# ---------------------------------------------------------------------------
# layout

def reshape(a: Node, shape) -> Node:
    src = a.value.shape
    out = np.ascontiguousarray(a.value).reshape(shape)

    def vjp(g):
        return (g.reshape(src),)

    return a.tape.push(out, (a,), vjp, "reshape")


def rows(a: Node, lo: int, hi: int) -> Node:
    """Slice token rows [lo, hi) along axis -2."""
    out = np.ascontiguousarray(a.value[..., lo:hi, :])

    def vjp(g):
        return (RowSlice(g, lo, hi),)

    return a.tape.push(out, (a,), vjp, "rows")


def pad_rows(a: Node, n: int, lo: int, hi: int) -> Node:
    """Embed token rows back at [lo, hi) of an n-token zero field (adjoint of rows)."""
    shape = a.value.shape[:-2] + (n, a.value.shape[-1])
    out = np.zeros(shape, dtype=a.value.dtype)
    out[..., lo:hi, :] = a.value

    def vjp(g):
        return (np.ascontiguousarray(g[..., lo:hi, :]),)

    return a.tape.push(out, (a,), vjp, "pad_rows")


def concat_last(parts: list[Node]) -> Node:
    vals = [p.value for p in parts]
    out = np.concatenate(vals, axis=-1)
    widths = [v.shape[-1] for v in vals]
    offsets = np.cumsum(widths)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(s) if p.requires else None
                     for p, s in zip(parts, np.split(g, offsets, axis=-1)))

    return parts[0].tape.push(out, tuple(parts), vjp, "concat_last")


def patches(x: Node) -> Node:
    """im2col of an [.., H, W, C] grid into [.., H*W, 9C] rows: a full 3x3 conv is
    patches followed by a matmul. A copy, so it counts no FLOPs."""
    shape = x.value.shape
    out = T.patches(x.value)

    def vjp(g):
        return (T.unpatch(g, shape) if x.requires else None,)

    return x.tape.push(out, (x,), vjp, "patches")


# ---------------------------------------------------------------------------
# reductions

def sum_all(a: Node) -> Node:
    out = np.asarray(a.value.sum())
    T._tick(a.value.size)

    def vjp(g):
        return (np.full(a.value.shape, g, dtype=a.value.dtype),)

    return a.tape.push(out, (a,), vjp, "sum_all")


def sum_last2(a: Node) -> Node:
    """Sum over the last two axes (per-sequence reduction of [.., B, d])."""
    out = a.value.sum(axis=(-2, -1))
    T._tick(a.value.size)

    def vjp(g):
        return (np.broadcast_to(g[..., None, None], a.value.shape).astype(a.value.dtype),)

    return a.tape.push(out, (a,), vjp, "sum_last2")


def mean_tokens(a: Node) -> Node:
    """Mean over the token axis (-2): global average pooling."""
    n = a.value.shape[-2]
    out = a.value.mean(axis=-2)
    T._tick(a.value.size)

    def vjp(g):
        return (np.broadcast_to(g[..., None, :] / n, a.value.shape).astype(a.value.dtype),)

    return a.tape.push(out, (a,), vjp, "mean_tokens")


# ---------------------------------------------------------------------------
# elementwise

def silu(a: Node) -> Node:
    x = a.value
    s = T.sigmoid(x)
    out = x * s
    T._tick(4 * x.size)

    def vjp(g):
        # SiLU'(x) = s (1 + x (1 - s)) from the saved sigmoid, built in one buffer
        d = 1.0 - s
        d *= x
        d += 1.0
        d *= s
        d *= g
        return (d,)

    return a.tape.push(out, (a,), vjp, "silu")


def mul_silu_prime(g: Node, z: Node) -> Node:
    """g * SiLU'(z) for same-shape g and z, the walker's silu rule, as one op,
    with SiLU''(z) in its vjp: the bits, FLOPs (6 + 1 per element) and
    cotangents of forming SiLU'(z) as a node and then multiplying by g. It
    keeps its own sigmoid of z and rebuilds SiLU'(z) from it in the vjp, so
    SiLU' holds no buffer on the tape."""
    gv, x = g.value, z.value
    if gv.shape != x.shape:
        raise T.DimensionError(f"mul_silu_prime: g {gv.shape} and z {x.shape} differ")
    s = T.sigmoid(x)

    def prime():
        # SiLU'(x) = s (1 + x (1 - s)), built in one buffer
        d = 1.0 - s
        d *= x
        d += 1.0
        d *= s
        return d

    out = prime()
    out *= gv
    T._tick(7 * x.size)

    def vjp(ct):
        dg = dz = None
        if g.requires:
            dg = prime()
            dg *= ct
        if z.requires:
            # SiLU''(x) = s(1-s) (2 + x(1-2s))
            dz = (ct * gv) * (s * (1.0 - s) * (2.0 + x * (1.0 - 2.0 * s)))
        return dg, dz

    return g.tape.push(out, (g, z), vjp, "mul_silu_prime")


def sigmoid(a: Node) -> Node:
    s = T.sigmoid(a.value)
    T._tick(3 * s.size)

    def vjp(g):
        d = g * s
        d *= 1.0 - s
        return (d,)

    return a.tape.push(s, (a,), vjp, "sigmoid")


def sign(a: Node) -> Node:
    """Token-wise sign; blocks gradient flow (derivative zero a.e.)."""
    T._tick(a.value.size)
    out = np.sign(a.value)

    def vjp(g):
        return (None,)

    return a.tape.push(out, (a,), vjp, "sign")


def sqrt_(a: Node) -> Node:
    T._tick(a.value.size)
    out = np.sqrt(a.value)

    def vjp(g):
        return (g * (0.5 / out),)

    return a.tape.push(out, (a,), vjp, "sqrt")


def reciprocal(a: Node) -> Node:
    T._tick(a.value.size)
    out = 1.0 / a.value

    def vjp(g):
        return (-g * out * out,)

    return a.tape.push(out, (a,), vjp, "reciprocal")


def clip_min(a: Node, c: float) -> Node:
    T._tick(a.value.size)
    out = np.maximum(a.value, c)

    def vjp(g):
        return (g * (a.value > c),)

    return a.tape.push(out, (a,), vjp, "clip_min")


def huber_prime(a: Node) -> Node:
    """l'(x): identity inside the quadratic zone, sign outside."""
    x = a.value
    inside = np.abs(x) < 1.0
    out = np.where(inside, x, np.sign(x))
    T._tick(2 * x.size)

    def vjp(g):
        return (g * inside,)

    return a.tape.push(out, (a,), vjp, "huber_prime")


# ---------------------------------------------------------------------------
# composite primitives with dedicated backward rules

def layer_norm(x: Node, gamma: Node, beta: Node) -> Node:
    xv = x.value
    # centre once; the centred rows give the variance and, scaled, xhat
    mu = xv.mean(axis=-1, keepdims=True)
    xhat = xv - mu
    inv = np.square(xhat).sum(axis=-1, keepdims=True)
    inv /= xv.shape[-1]
    inv += 1e-5                 # eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = xhat * gamma.value
    out += beta.value
    T._tick(8 * xv.size)

    def vjp(g):
        # xhat is rebuilt from the kept row statistics by the forward's own passes
        xhat = xv - mu
        xhat *= inv
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
        return dx, dgamma, dbeta

    return x.tape.push(out, (x, gamma, beta), vjp, "layer_norm")


def cross_entropy(logits: Node, labels: np.ndarray, total: int) -> Node:
    """Negative log-likelihood of integer labels under softmax(logits), summed over
    the rows and divided by `total`, the batch size: a chunk of a batch divides by
    the whole batch's size, so its rows get the whole batch's cotangents."""
    lv = logits.value
    shifted = lv - lv.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    n = lv.shape[0]
    nll = logz - shifted[np.arange(n), labels]
    out = np.asarray(nll.sum() / total)
    T._tick(5 * lv.size)

    def vjp(g):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (p * (g / total),)

    return logits.tape.push(out, (logits,), vjp, "cross_entropy")


def _dwconv3x3_vjp(g: np.ndarray, x: Node, k: Node):
    dx = T.dwconv3x3(g, T.flip_dw(k.value)) if x.requires else None
    dk = T.dwconv3x3_wgrad(x.value, g, per_sample=(k.value.ndim == 4)) if k.requires else None
    return dx, dk


def dwconv3x3(x: Node, k: Node) -> Node:
    """Depthwise 3x3 conv on [b,H,W,C]; kernel shared [3,3,C] or per-sample [b,3,3,C]."""
    out = T.dwconv3x3(x.value, k.value)
    return x.tape.push(out, (x, k), lambda g: _dwconv3x3_vjp(g, x, k), "dwconv3x3")


def add_dwconv3x3(r: Node, x: Node, k: Node) -> Node:
    """r + dwconv3x3(x, k) in r's shape; x is the [.., H, W, C] grid of r's rows."""
    out = T.dwconv3x3(x.value, k.value)
    if out.size != r.value.size:
        raise T.DimensionError(f"add_dwconv3x3: residual {r.value.shape} does not hold "
                               f"the grid's {out.shape}")
    return _add_residual(r, out.reshape(r.value.shape), (x, k),
                         lambda g: _dwconv3x3_vjp(g.reshape(out.shape), x, k), "add_dwconv3x3")


def dwconv3x3_wgrad(x: Node, g_in: Node) -> Node:
    """Per-sample kernel gradient of a depthwise conv, as a differentiable forward op."""
    xv, gv = x.value, g_in.value
    out = T.dwconv3x3_wgrad(xv, gv, per_sample=True)

    def vjp(ct):
        dx = T.dwconv3x3(gv, T.flip_dw(ct)) if x.requires else None
        dg = T.dwconv3x3(xv, ct) if g_in.requires else None
        return dx, dg

    return x.tape.push(out, (x, g_in), vjp, "dwconv3x3_wgrad")


# ---------------------------------------------------------------------------
# numeric validation

def gradcheck(f: Callable[[dict, Tape], Node], params: dict[str, np.ndarray]) -> float:
    """Max relative error between tape gradients and central differences.

    `f(p, tape)` builds its computation on `tape` from a fresh parameter
    dict and returns the scalar root node; gradcheck makes and holds every
    tape. The analytic pass records; each numeric evaluation runs on a
    `Tape(record=False)`, which gives the same values without a graph.
    params must be float64 for the stated tolerances to be meaningful.
    Error metric per entry: |analytic - numeric| / max(1, |numeric|).
    """
    eps = 1e-5                  # central-difference step

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
