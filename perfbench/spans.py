"""In-memory span tracer for the traced benchmark run.

For the duration of one traced step the tracer replaces library entry points
with timing wrappers: every public op of ``tttlab.autodiff`` (model, layer and
inner all call them as ``ad.<op>``), ``model.ttt_block_nodes``,
``model.ttt_attention_nodes``, ``harness.ttt_attention_nodes``,
``layer.inner_update_nodes`` and ``Tape.backward``. The benchmark opens its own
spans around its calls into the library. Every span records a name, a start,
an end, its parent, and the range of tape node indices created while it was
open. ``Tape.backward`` additionally times each node's ``vjp`` call, so the
backward time of a span is the sum over its node range.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from contextlib import nullcontext

import numpy as np

from tttlab import autodiff as ad
from tttlab import harness, layer, model
from tttlab.autodiff import Node, Tape

# Ops reported by name; every other tape op is folded into "other".
NAMED_OPS = ("matmul", "silu", "silu_prime", "mul", "add", "sub", "scale", "add_rowvec",
             "layer_norm", "dwconv3x3", "dwconv3x3_wgrad", "reshape", "cross_entropy")
OP_KEYS = NAMED_OPS + ("other",)
PARTS = ("patch_embed", "cpe", "ln", "ttt", "mlp", "head")

# Spans that only group other spans. Their self time is Python glue between
# ops (and tracing cost), so it is the part of a step the ops leave unexplained.
GROUP_SPANS = frozenset(("step", "fwd_bwd", "model.block", "layer.ttt", "inner.update",
                         "autodiff.backward"))


def public_ops() -> dict:
    """Every public tape op of tttlab.autodiff, by attribute name."""
    return {name: fn for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__
            and not name.startswith("_") and name not in ("backward", "gradcheck")}


def op_key(op: str) -> str:
    return op if op in NAMED_OPS else "other"


def _tape_of(args) -> Tape | None:
    for a in args:
        if isinstance(a, Tape):
            return a
        if isinstance(a, Node):
            return a.tape
        if isinstance(a, (list, tuple)) and a and isinstance(a[0], Node):
            return a[0].tape
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "lo", "hi", "flops")

    def __init__(self, name, start, parent, lo, flops):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.lo = lo
        self.hi = lo
        self.flops = flops

    @property
    def dur(self) -> float:
        return self.end - self.start


class _NoTrace:
    """Stand-in used by untraced steps: every span is a shared no-op context."""

    _null = nullcontext()

    def span(self, name, tape=None):
        return self._null


NO_TRACE = _NoTrace()


class Tracer:
    def __init__(self, keep_steps: int = 20):
        self.t0 = time.perf_counter()
        self.keep_steps = keep_steps
        self.kept: list[tuple[int, list[dict]]] = []
        self.counter = None         # a tensor.FlopCounter sampled at span edges
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._vjp_s: dict[int, float] = {}
        self._tape: Tape | None = None
        self._step = 0
        self._targets = [(ad, name, "op." + name.rstrip("_")) for name in public_ops()]
        self._targets += [(model, "ttt_block_nodes", "model.block"),
                          (model, "ttt_attention_nodes", "layer.ttt"),
                          (harness, "ttt_attention_nodes", "layer.ttt"),
                          (layer, "inner_update_nodes", "inner.update")]
        self._originals = [getattr(mod, name) for mod, name, _ in self._targets]
        self._wrappers = [self._wrap(fn, span) for fn, (_, _, span)
                          in zip(self._originals, self._targets)]
        self._backward = Tape.backward
        self._traced_backward = self._wrap_backward(Tape.backward)

    # -- span recording ----------------------------------------------------

    def _open(self, name: str, tape: Tape | None) -> Span:
        s = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None,
                 len(tape.nodes) if tape is not None else None,
                 self.counter.total if self.counter is not None else None)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        return s

    def _close(self, s: Span, tape: Tape | None) -> None:
        s.end = time.perf_counter()
        if tape is not None:
            s.hi = len(tape.nodes)
        if self.counter is not None:
            s.flops = self.counter.total - s.flops
        self._stack.pop()

    def span(self, name: str, tape: Tape | None = None):
        return _SpanContext(self, name, tape)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            tape = _tape_of(args)
            s = self._open(name, tape)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s, tape)
        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, backward):
        times = self._vjp_s

        def timed(vjp, idx):
            def run(g):
                t = time.perf_counter()
                out = vjp(g)
                times[idx] = time.perf_counter() - t
                return out
            return run

        def traced_backward(tape, root):
            for node in tape.nodes:
                if node.vjp is not None:
                    node.vjp = timed(node.vjp, node.idx)
            self._tape = tape
            s = self._open("autodiff.backward", tape)
            try:
                return backward(tape, root)
            finally:
                self._close(s, tape)
        return traced_backward

    # -- step lifecycle ----------------------------------------------------

    def begin_step(self, step: int) -> None:
        """Start recording one step and install the wrappers for its duration."""
        self.spans, self._stack, self._tape, self._step = [], [], None, step
        self._vjp_s.clear()
        for (mod, name, _), fn in zip(self._targets, self._wrappers):
            setattr(mod, name, fn)
        Tape.backward = self._traced_backward

    def end_step(self) -> dict:
        """Remove the wrappers and return this step's per-layer breakdown."""
        for (mod, name, _), fn in zip(self._targets, self._originals):
            setattr(mod, name, fn)
        Tape.backward = self._backward
        agg, bwd = aggregate(self.spans, self._vjp_s, self._tape)
        if len(self.kept) < self.keep_steps:
            self.kept.append((self._step, [self._span_doc(i, s, bwd[i])
                                           for i, s in enumerate(self.spans)]))
        return agg

    def tape_stats(self) -> dict:
        """Exact counts of the last traced step's tape: nodes, bytes and ops."""
        nodes = self._tape.nodes if self._tape is not None else []
        calls = Counter(op_key(n.op) for n in nodes if n.op != "leaf")
        out = {"autodiff.tape_nodes": len(nodes),
               "autodiff.tape_mb": sum(n.value.nbytes for n in nodes) / 1e6}
        out.update({f"autodiff.op.{k}.calls": calls.get(k, 0) for k in OP_KEYS})
        return out

    def _span_doc(self, i: int, s: Span, bwd_s: float) -> dict:
        doc = {"id": i, "name": s.name, "parent": s.parent,
               "start": s.start - self.t0, "end": s.end - self.t0}
        if s.lo is not None:
            doc["nodes"] = [s.lo, s.hi]
            doc["bwd_s"] = bwd_s
        if s.flops is not None:
            doc["flops"] = s.flops
        return doc

    def trace_doc(self) -> list[dict]:
        return [{"step": step, "spans": spans} for step, spans in self.kept]


class _SpanContext:
    __slots__ = ("tracer", "name", "tape", "span")

    def __init__(self, tracer, name, tape):
        self.tracer, self.name, self.tape = tracer, name, tape

    def __enter__(self):
        self.span = self.tracer._open(self.name, self.tape)
        return self.span

    def __exit__(self, *exc):
        self.tracer._close(self.span, self.tape)
        return False


# ---------------------------------------------------------------------------
# per-step breakdown

def aggregate(spans: list[Span], vjp_s: dict[int, float], tape: Tape | None):
    """Per-layer times of one traced step in ms, and each span's backward time in s."""
    n_nodes = len(tape.nodes) if tape is not None else 0
    cum = np.zeros(n_nodes + 1)
    for idx, dt in vjp_s.items():
        cum[idx + 1] = dt
    cum = np.cumsum(cum)

    def bwd_of(s: Span) -> float:
        if s.lo is None or s.lo >= n_nodes:
            return 0.0
        return float(cum[min(s.hi, n_nodes)] - cum[s.lo])

    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s.parent].append(i)
    self_s = [s.dur - sum(spans[j].dur for j in children[i]) for i, s in enumerate(spans)]
    bwd = [bwd_of(s) for s in spans]

    out = defaultdict(float)
    for k in OP_KEYS:
        out[f"autodiff.op.{k}.fwd_ms"] = 0.0
        out[f"autodiff.op.{k}.bwd_ms"] = 0.0
    for i, s in enumerate(spans):
        if s.name.startswith("op."):
            out[f"autodiff.op.{op_key(s.name[3:])}.fwd_ms"] += 1e3 * self_s[i]
    for idx, dt in vjp_s.items():
        out[f"autodiff.op.{op_key(tape.nodes[idx].op)}.bwd_ms"] += 1e3 * dt

    for i, s in enumerate(spans):
        if s.name in ("layer.ttt", "inner.update"):
            out[f"{s.name}.fwd_ms"] += 1e3 * s.dur
            out[f"{s.name}.bwd_ms"] += 1e3 * bwd[i]
        if s.name == "inner.update":
            out["inner.update_nodes"] += s.hi - s.lo
        elif s.name == "autodiff.backward":
            out["autodiff.backward_ms"] += 1e3 * s.dur
        elif s.name in ("fwd_bwd", "data.augment", "model.adamw"):
            out[s.name + "_ms"] += 1e3 * s.dur
    out["forward_ms"] = out.pop("fwd_bwd_ms", 0.0) - out["autodiff.backward_ms"]

    roots = [i for i in children[None] if spans[i].name == "step"]
    fwd_bwd = [i for r in roots for i in children[r] if spans[i].name == "fwd_bwd"]
    if fwd_bwd:
        out.update(_block_parts(spans, children, fwd_bwd[0], bwd))

    step = sum(spans[i].dur for i in roots)
    explained = sum(self_s[i] for i, s in enumerate(spans)
                    if s.name not in GROUP_SPANS) + sum(vjp_s.values())
    out["step_ms"] = 1e3 * step
    out["trace.unexplained_share"] = (step - explained) / step if step > 0 else 0.0
    return dict(out), bwd


def _block_parts(spans, children, root, bwd) -> dict:
    """Classifier block parts from the op spans, by parent span and op order.

    Direct children of the forward are the patch embedding (before the first
    block) or the head (after it). Inside a block the ops before the first
    LayerNorm are the CPE, the TTT span and the residual add after it are the
    TTT part, and everything after the second LayerNorm is the MLP.
    """
    blocks = [i for i in children[root] if spans[i].name == "model.block"]
    if not blocks:
        return {}
    out = {f"model.part.{p}.{k}": 0.0 for p in PARTS for k in ("fwd_ms", "bwd_ms")}

    def add(part, i):
        out[f"model.part.{part}.fwd_ms"] += 1e3 * spans[i].dur
        out[f"model.part.{part}.bwd_ms"] += 1e3 * bwd[i]

    first = spans[blocks[0]].start
    for i in children[root]:
        if spans[i].name.startswith("op."):
            add("patch_embed" if spans[i].start < first else "head", i)
    for b in blocks:
        phase = "cpe"
        for i in children[b]:
            if spans[i].name == "op.layer_norm":
                add("ln", i)
                phase = "ttt" if phase == "cpe" else "mlp"
            else:
                add(phase, i)
    return out
