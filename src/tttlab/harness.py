"""Run harness: training, ablation grids, scaling benchmarks, and check reports.

Every run is driven by a serializable RunConfig and an explicit seed; outputs
are CSV files plus a JSON manifest per run. Ablation cells execute in a
process pool (one RNG stream per cell) and a single writer emits the table.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import time
import tracemalloc
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from . import allocator
from . import autodiff as ad
from . import data as D
from . import model as M
from .autodiff import Tape, gradcheck
from .inner import (ARCH_NAMES, INNER_LOSSES, LOSSES, DivergenceError, InnerTrainConfig,
                    get_arch, inner_loss_grad)
from .layer import TTTLayerParams, softmax_attention, ttt_attention_nodes
from .model import (Model, ModelConfig, OptState, adamw_step, cosine_warmup_lr,
                    save_checkpoint, ttt_layer_flops)
from .tensor import count_flops

TRAIN_CSV_COLUMNS = ("epoch", "train_loss", "val_acc", "wall_s")
ABLATE_CSV_COLUMNS = ("config", "params", "flops", "throughput", "metric", "status")
BENCH_CSV_COLUMNS = ("layer", "N", "mean_ms", "p50_ms", "peak_bytes", "flops")

TASKS = ("recall", "cifar")
# RunConfig fields that count something and must be at least 1
POSITIVE_FIELDS = ("threads", "epochs", "batch_size", "train_size", "val_size",
                   "patch_size", "dim", "heads", "depth", "recall_seq", "recall_width",
                   "recall_keys", "inner_epochs", "inner_parts")
# JSON value checks by RunConfig field annotation; bool is not accepted as a number,
# nor NaN or an infinity as a float
_TYPE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                        or (isinstance(v, float) and math.isfinite(v))),
    "list[str]": lambda v: isinstance(v, list) and all(isinstance(a, str) for a in v),
}


@dataclass
class RunConfig:
    command: str = "train"
    task: str = "recall"            # "recall" | "cifar"
    seed: int = 0
    out_dir: str = "runs/out"
    threads: int = 1
    # outer training
    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.05
    warmup_epochs: int = 2
    train_size: int = 2000
    val_size: int = 500
    data_path: str = ""
    early_stop_acc: float = 0.0   # stop after epoch >= 5 once val acc exceeds this
    # model (cifar: 32-pixel images, 10 classes)
    patch_size: int = 4
    dim: int = 64
    heads: int = 4
    depth: int = 4
    head_archs: list[str] = field(default_factory=list)
    # recall task shape
    recall_seq: int = 17
    recall_width: int = 8
    recall_keys: int = 32
    # inner training
    inner_loss: str = "dot"
    inner_epochs: int = 1
    inner_parts: int = 1
    inner_lr: float = 1.0
    inner_dynamic: bool = False

    def inner_config(self) -> InnerTrainConfig:
        return InnerTrainConfig(loss=self.inner_loss, epochs=self.inner_epochs,
                                parts=self.inner_parts, lr=self.inner_lr,
                                dynamic_lr=self.inner_dynamic)

    def model_config(self) -> ModelConfig:
        return ModelConfig(patch_size=self.patch_size, dim=self.dim, heads=self.heads,
                           depth=self.depth, inner=self.inner_config(),
                           head_archs=tuple(self.head_archs) if self.head_archs else ())

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown RunConfig fields: {sorted(unknown)}")
        return cls(**doc).validate()

    def validate(self) -> "RunConfig":
        """Raise ValueError naming the first field no run could use; returns self."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not _TYPE_CHECKS[f.type](value):
                raise ValueError(f"RunConfig.{f.name} must be {f.type}, got {value!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.inner_loss not in LOSSES:
            raise ValueError(f"unknown inner_loss {self.inner_loss!r}; expected one of {LOSSES}")
        for name in POSITIVE_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(f"RunConfig.{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"RunConfig.seed must be at least 0, got {self.seed}")
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} is not divisible by heads {self.heads}")
        unknown = [a for a in self.head_archs if a not in ARCH_NAMES]
        if unknown:
            raise ValueError(f"unknown head_archs {unknown}; expected names from {ARCH_NAMES}")
        if self.head_archs and len(self.head_archs) != self.heads:
            raise ValueError(f"{len(self.head_archs)} head_archs for {self.heads} heads")
        if self.task == "recall":
            # at least one key/value pair, each with a key of its own, then the query
            if not 2 <= self.recall_seq <= self.recall_keys + 1:
                raise ValueError(f"recall_seq {self.recall_seq} must be in [2, recall_keys "
                                 f"+ 1 = {self.recall_keys + 1}]")
            tokens = self.recall_seq
        else:
            tokens = self.model_config().tokens     # refuses a patch that does not divide
        if self.inner_parts > tokens:
            raise ValueError(f"inner_parts {self.inner_parts} exceeds the {tokens} tokens "
                             f"of a {self.task} sample")
        if self.task == "recall":
            grid_heads = [a for a in self.head_archs if get_arch(a).requires_grid]
            if grid_heads:
                raise ValueError(f"head_archs {grid_heads} need an image grid, which a "
                                 "recall sequence does not have")
            if self.data_path:
                raise ValueError(f"data_path {self.data_path!r} is read only by the cifar "
                                 "task; recall builds its data")
            return self
        missing = self.data_path and D.missing_cifar10(self.data_path)
        if missing:
            raise ValueError(f"data_path {self.data_path!r} holds no CIFAR-10 (no {missing})")
        return self


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_fingerprint() -> dict:
    """Platform, Python, numpy, CPU count, the BLAS build with its thread settings,
    and the allocator policy (the mallopt values applied, or "default")."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    fp = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
    }
    fp.update({var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS})
    fp["allocator"] = allocator.POLICY
    return fp


def _write_manifest(rc: RunConfig, outputs: list[str], status: str, extra=None):
    os.makedirs(rc.out_dir, exist_ok=True)
    doc = {"config": asdict(rc), "fingerprint": machine_fingerprint(),
           "outputs": outputs, "status": status}
    if extra:
        doc.update(extra)
    path = os.path.join(rc.out_dir, "manifest.json")
    with M.replacing(path) as (tmp,):
        with open(tmp, "w") as fp:
            json.dump(doc, fp, indent=1, sort_keys=True)
    return path


def _write_table(rc: RunConfig, name: str, columns: tuple, rows: list[dict],
                 extra=None) -> dict:
    """Write rows as out_dir/name, replacing the previous table only once every row is
    written, then the manifest that lists it."""
    os.makedirs(rc.out_dir, exist_ok=True)
    path = os.path.join(rc.out_dir, name)
    with M.replacing(path) as (tmp,):
        with open(tmp, "w", newline="") as fp:
            writer = csv.DictWriter(fp, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
    return {"csv": path, "rows": rows, "manifest": _write_manifest(rc, [path], "ok", extra)}


# ---------------------------------------------------------------------------
# recall model: embed -> pre-norm TTT residual -> readout at the query token

class RecallModel(M.Classifier):
    def __init__(self, rc: RunConfig, n_classes: int, rng: np.random.Generator,
                 dtype=np.float32):
        din = 2 * rc.recall_width
        dim, heads = rc.dim, rc.heads
        self.head_archs = tuple(rc.head_archs) if rc.head_archs else ("gated_fc",) * heads
        self.tokens, self.grid = rc.recall_seq, None
        self.inner_cfg = rc.inner_config()
        self.layer = TTTLayerParams.create(rng, dim, heads, self.head_archs, dtype=dtype)
        self.params = {"embed.w": (rng.standard_normal((din, dim)) * 0.05).astype(dtype),
                       "embed.b": np.zeros(dim, dtype=dtype),
                       "ln.g": np.ones(dim, dtype=dtype),
                       "ln.b": np.zeros(dim, dtype=dtype),
                       "head.w": (rng.standard_normal((dim, n_classes)) * 0.05).astype(dtype),
                       "head.b": np.zeros(n_classes, dtype=dtype)}
        self.params.update(self.layer.named_arrays(prefix="ttt."))

    def logits_nodes(self, tape: Tape, tokens: np.ndarray):
        leaves = self._leaves(tape)
        x = ad.linear(tape.leaf(tokens), leaves["embed.w"], leaves["embed.b"])
        h = ad.layer_norm(x, leaves["ln.g"], leaves["ln.b"])
        x = ttt_attention_nodes(h, leaves, self.layer, self.inner_cfg, None, prefix="ttt.",
                                residual=x)
        n = tokens.shape[-2]
        q = ad.reshape(ad.rows(x, n - 1, n), (tokens.shape[0], x.value.shape[-1]))
        return ad.linear(q, leaves["head.w"], leaves["head.b"])


# ---------------------------------------------------------------------------
# the task: the one place that tells cifar from recall

@dataclass
class Task:
    model: M.Classifier
    train_labels: np.ndarray
    batch: Callable[[np.ndarray, int], np.ndarray]   # (train rows, epoch) -> model inputs
    val_x: np.ndarray
    val_y: np.ndarray
    meta: dict                                       # checkpoint meta


def _setup(rc: RunConfig) -> Task:
    """The task's seeded model, training inputs, validation split and checkpoint meta."""
    if rc.task == "recall":
        data = D.synth_recall_task(rc.seed, rc.train_size + rc.val_size, rc.recall_seq,
                                   rc.recall_width, n_keys=rc.recall_keys)
        n = rc.train_size
        model = RecallModel(rc, data.n_classes, np.random.default_rng(rc.seed + 1))
        return Task(model, data.labels[:n], lambda idx, epoch: data.tokens[idx],
                    data.tokens[n:], data.labels[n:], {"task": "recall"})
    path = D.find_cifar10(rc.data_path or None)
    if path:
        train, test = D.load_cifar10(path, "train"), D.load_cifar10(path, "test")
    else:
        # sized so that a seed's validation images do not depend on train_size
        train, test = D.synthetic_cifar(rc.seed, max(rc.train_size, 5000),
                                        max(rc.val_size, 1000))

    def normalize(x):
        return ((x - D.CIFAR_MEAN) / D.CIFAR_STD).astype(np.float32)

    def batch(idx, epoch):
        return normalize(np.stack([D.augment(train.images[i], seed=(rc.seed, int(i), epoch))
                                   for i in idx]))

    return Task(Model(rc.model_config(), np.random.default_rng(rc.seed)),
                train.labels[:rc.train_size], batch, normalize(test.images[:rc.val_size]),
                test.labels[:rc.val_size], {"task": "cifar", "synthetic": path is None})


# ---------------------------------------------------------------------------
# training

def _accuracy(model: M.Classifier, x: np.ndarray, y: np.ndarray, batch_size: int) -> float:
    """Validation accuracy; a non-finite logit raises DivergenceError."""
    if not len(y):
        return 0.0
    logits = [M.forward_classifier(model, x[lo:lo + batch_size])
              for lo in range(0, len(y), batch_size)]
    if not all(np.isfinite(z).all() for z in logits):
        raise DivergenceError("validation logits non-finite")
    pred = np.concatenate([z.argmax(axis=-1) for z in logits])
    return float((pred == y).mean())


def _train(rc: RunConfig) -> tuple[Task, dict]:
    """Train the task's model with AdamW + warmup/cosine, writing train.csv and the
    checkpoint; returns (task, report)."""
    os.makedirs(rc.out_dir, exist_ok=True)
    task = _setup(rc)
    model, labels = task.model, task.train_labels
    n_train = len(labels)
    state = OptState.for_params(model.params)
    steps_per_epoch = max(1, (n_train + rc.batch_size - 1) // rc.batch_size)
    total_steps = rc.epochs * steps_per_epoch
    warmup_steps = rc.warmup_epochs * steps_per_epoch
    rng = np.random.default_rng(rc.seed)
    rows, diverged, acc = [], False, 0.0
    csv_path = os.path.join(rc.out_dir, "train.csv")
    with open(csv_path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(TRAIN_CSV_COLUMNS)
        t0 = time.perf_counter()
        for epoch in range(rc.epochs):
            order = rng.permutation(n_train)
            losses = []
            try:
                # overflow/invalid are legitimate here: the divergence sentinel
                # inspects and reports them instead of letting NaNs propagate
                with np.errstate(over="ignore", invalid="ignore"):
                    for lo in range(0, n_train, rc.batch_size):
                        idx = order[lo:lo + rc.batch_size]
                        loss, grads, _ = model.loss_and_grads(task.batch(idx, epoch),
                                                              labels[idx])
                        if not np.isfinite(loss):
                            raise DivergenceError(f"outer loss non-finite at epoch {epoch}")
                        lr = cosine_warmup_lr(state.step, total_steps, warmup_steps, rc.lr)
                        adamw_step(model.params, grads, state, lr,
                                   weight_decay=rc.weight_decay)
                        losses.append(loss)
                    acc = _accuracy(model, task.val_x, task.val_y, rc.batch_size)
            except DivergenceError:
                diverged = True
                writer.writerow([epoch, "nan", "nan", f"{time.perf_counter() - t0:.3f}"])
                break
            row = (epoch, float(np.mean(losses)), acc, time.perf_counter() - t0)
            rows.append(row)
            writer.writerow([row[0], f"{row[1]:.6f}", f"{row[2]:.4f}", f"{row[3]:.3f}"])
            fp.flush()
            if rc.early_stop_acc and acc > rc.early_stop_acc and epoch + 1 >= 5:
                break
    ckpt = os.path.join(rc.out_dir, "checkpoint")
    save_checkpoint(ckpt, model.params, meta=task.meta)
    return task, {"csv": csv_path, "checkpoint": ckpt, "rows": rows, "diverged": diverged,
                  "final_acc": acc, "synthetic_data": task.meta.get("synthetic", False)}


def cmd_train(rc: RunConfig) -> dict:
    _, report = _train(rc)
    report["manifest"] = _write_manifest(
        rc, [report["csv"], report["checkpoint"]],
        "diverged" if report["diverged"] else "ok", extra={"final_acc": report["final_acc"]})
    return report


# ---------------------------------------------------------------------------
# ablate command

DEFAULT_GRID = {
    "inner_loss": ["dot", "mse", "mae"],
    "inner_lr": [0.1, 1.0, 10.0],
    "inner_epochs": [1, 4],
    "seeds": [0, 1, 2],
}


def ablate_cell(args: tuple) -> dict:
    """One grid cell: a desk-scale train of the configured task, then its trained model's
    layer FLOPs and forward throughput. The job is the cell's name and validated config."""
    name, rc = args
    task, report = _train(rc)
    model = task.model
    layer_fl = ttt_layer_flops(model.tokens, rc.dim, rc.heads, model.head_archs,
                               rc.inner_config(), model.grid)
    status = "*" if report["diverged"] else ""
    throughput = _cell_throughput(model, task.val_x[:rc.batch_size])
    if throughput is None:
        throughput, status = "nan", "*"
    return {"config": name, "params": model.n_params(), "flops": layer_fl["total_executed"],
            "throughput": throughput, "metric": round(report["final_acc"], 4),
            "status": status}


def _cell_throughput(model: M.Classifier, x: np.ndarray) -> float | None:
    """Tokens/s of the model's forward on one batch: one warm-up run, then the
    median of 3 timed runs (None if it diverges)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            M.forward_classifier(model, x)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                M.forward_classifier(model, x)
                times.append(time.perf_counter() - t0)
    except DivergenceError:
        return None
    return round(len(x) * model.tokens / float(np.median(times)), 1)


def ablation_cells(rc: RunConfig, grid: dict | None = None) -> list[tuple[str, RunConfig]]:
    """(name, validated config) of every cell of the grid's cross product; the `seeds`
    axis holds offsets from rc.seed ([0] when absent). A grid that is no object of
    non-empty list-valued axes, an axis that is no RunConfig field, or any cell no
    run could use raises ValueError."""
    if grid is not None and not isinstance(grid, dict):
        raise ValueError(f"an ablation grid maps axis names to value lists, got {grid!r}")
    grid = dict(grid or DEFAULT_GRID)
    offsets = grid.pop("seeds", [0])
    for axis, values in (*grid.items(), ("seeds", offsets)):
        if not isinstance(values, list):
            raise ValueError(f"ablation axis {axis!r} must be a list of values, got {values!r}")
        if not values:
            raise ValueError(f"ablation axis {axis!r} has no values")
    bad = [o for o in offsets if not _TYPE_CHECKS["int"](o)]
    if bad:
        raise ValueError(f"ablation axis 'seeds' holds integer offsets from seed, got {bad}")
    combos = [{}]
    for axis in sorted(grid):
        combos = [{**c, axis: v} for c in combos for v in grid[axis]]
    cells = []
    for combo in combos:
        name = ",".join(f"{k.removeprefix('inner_')}={v}" for k, v in combo.items())
        for seed in (rc.seed + offset for offset in offsets):
            cell = RunConfig.from_dict({**asdict(rc), **combo, "seed": seed})
            cell.out_dir = os.path.join(cell.out_dir, "cells",
                                        name.replace("=", "_") + f"_s{seed}")
            cells.append((f"{name},seed={seed}", cell))
    return cells


def _run_jobs(fn: Callable, jobs: list, threads: int) -> list:
    """fn of each job, in job order; on a pool of `threads` processes when threads > 1."""
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def cmd_ablate(rc: RunConfig, grid: dict | None = None) -> dict:
    """Train every cell of the grid's cross product; every cell's config is validated
    before the first one runs."""
    rows = _run_jobs(ablate_cell, ablation_cells(rc, grid), rc.threads)
    return _write_table(rc, "ablate.csv", ABLATE_CSV_COLUMNS, rows, {"cells": len(rows)})


# ---------------------------------------------------------------------------
# bench command

def bench_layer_once(kind: str, n: int, dim: int, heads: int,
                     inner: InnerTrainConfig, rng: np.random.Generator):
    params = TTTLayerParams.create(rng, dim, heads, ("gated_fc",) * heads,
                                   dtype=np.float32)
    x = rng.standard_normal((n, dim)).astype(np.float32)
    if kind == "ttt":
        def run():
            tape = Tape()
            leaves = {k: tape.leaf(v) for k, v in params.named_arrays().items()}
            out = ttt_attention_nodes(tape.leaf(x), leaves, params, inner, None)
            tape.release()
            return tape, out
        return run
    if kind == "softmax":
        def run():
            return None, softmax_attention(x, params)
        return run
    raise ValueError(kind)


def cmd_bench(rc: RunConfig, lengths=(256, 512, 1024, 2048, 4096, 8192),
              reps: int = 9, warmup: int = 3) -> dict:
    rows = []
    inner = rc.inner_config()
    for kind in ("ttt", "softmax"):
        for n in lengths:
            run = bench_layer_once(kind, n, rc.dim, rc.heads, inner,
                                   np.random.default_rng(rc.seed))
            for _ in range(warmup):
                run()
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                run()
                times.append((time.perf_counter() - t0) * 1e3)
            tracemalloc.start()
            with count_flops() as fl:
                run()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            rows.append({"layer": kind, "N": n,
                         "mean_ms": round(float(np.mean(times)), 3),
                         "p50_ms": round(float(np.median(times)), 3),
                         "peak_bytes": peak, "flops": fl.total})
    return _write_table(rc, "bench.csv", BENCH_CSV_COLUMNS, rows)


def loglog_slope(ns, ts) -> float:
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])


# ---------------------------------------------------------------------------
# gradcheck command

# the registry's kinks: op -> the |input| at which it is not differentiable
_KINKS = dict(loss.kink for loss in INNER_LOSSES.values() if loss.kink)


def _kink_distance(tape: Tape) -> float:
    """Distance of every kink op's input from its non-differentiable set.

    Central differences are only meaningful at points where the piecewise
    losses are locally smooth; cells are resampled until clear of the kinks.
    """
    dist = np.inf
    for node in tape.nodes:
        if node.op in _KINKS:
            gap = np.abs(np.abs(node.inputs[0].value) - _KINKS[node.op])
            dist = min(dist, float(gap.min()))
    return dist


def gradcheck_cell(args: tuple) -> dict:
    """One cell of the matrix: a one-head float64 layer of width 6 on a 3x3 token grid."""
    arch_name, loss, dynamic, parts = args
    dim, grid = 6, (3, 3)
    arch = get_arch(arch_name)
    base_seed = zlib.crc32(f"{arch_name}|{loss}|{dynamic}|{parts}".encode())
    cfg = InnerTrainConfig(loss=loss, epochs=1, parts=parts, lr=1.0,
                           dynamic_lr=dynamic)
    for attempt in range(50):
        rng = np.random.default_rng((base_seed + attempt) % 2 ** 31)
        params = TTTLayerParams.create(rng, dim, 1, (arch_name,))
        x = rng.standard_normal((grid[0] * grid[1], dim))

        def f(p, tape):
            leaves = {k: tape.leaf(v, name=k, param=True) for k, v in p.items()}
            out = ttt_attention_nodes(tape.leaf(x), leaves, params, cfg,
                                      grid if arch.requires_grid else None)
            return ad.sum_all(ad.mul(out, out))

        p = {k: np.asarray(v) for k, v in params.named_arrays().items()}
        tape = Tape()
        root = f(p, tape)
        if _kink_distance(tape) > 1e-3:
            break
    err = gradcheck(f, p)
    wv = tape.backward(root)["h0.wv"]
    wv_zero = bool(np.all(wv == 0.0))
    return {"arch": arch_name, "loss": loss,
            "lr_mode": "dynamic" if dynamic else "fixed",
            "partition": f"minibatch{parts}" if parts > 1 else "full",
            "max_rel_err": err, "wv_grad_zero": wv_zero}


def cmd_gradcheck(rc: RunConfig | None = None, archs=ARCH_NAMES, losses=LOSSES,
                  tol: float = 1e-4) -> dict:
    rc = rc or RunConfig(command="gradcheck")
    jobs = [(a, l, dyn, parts) for a in archs for l in losses
            for dyn in (False, True) for parts in (1, 2)]
    cells = _run_jobs(gradcheck_cell, jobs, rc.threads)
    failures = []
    for cell in cells:
        ok = cell["max_rel_err"] < tol
        flag = "  [dWv==0 through inner step]" if cell["wv_grad_zero"] else ""
        print(f"{cell['arch']:>14s} {cell['loss']:>9s} {cell['lr_mode']:>7s} "
              f"{cell['partition']:>10s}  err={cell['max_rel_err']:.3e} "
              f"{'PASS' if ok else 'FAIL'}{flag}")
        if not ok:
            failures.append(cell)
    return {"cells": cells, "failures": failures, "tol": tol}


# ---------------------------------------------------------------------------
# loss derivative report

def _generic_point(rng):
    """Random [4, 6] (Vhat, V) kept away from every loss's kink set."""
    while True:
        vhat = rng.standard_normal((4, 6))
        v = rng.standard_normal((4, 6))
        e = np.abs(vhat - v)
        if all(np.abs(e - at).min() > 1e-3 for at in _KINKS.values()):
            return vhat, v


def mixed_derivative_fd(kind: str, vhat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central differences of dL/dVhat_ij with respect to V_ij, entrywise."""
    eps, out = 1e-6, np.zeros_like(vhat)
    for ij in np.ndindex(v.shape):
        vp, vm = v.copy(), v.copy()
        vp[ij] += eps
        vm[ij] -= eps
        gp = inner_loss_grad(kind, vhat, vp)[ij]
        gm = inner_loss_grad(kind, vhat, vm)[ij]
        out[ij] = (gp - gm) / (2 * eps)
    return out


def cmd_lossreport(seed: int = 0, tol: float = 1e-6) -> dict:
    rng = np.random.default_rng(seed)
    rows, failures = [], []
    for kind, loss in INNER_LOSSES.items():
        vhat, v = _generic_point(rng)
        analytic = loss.mixed(vhat, v)
        numeric = mixed_derivative_fd(kind, vhat, v)
        diff = float(np.abs(analytic - numeric).max())
        ok = diff < tol
        rows.append({"loss": kind, "closed_form": loss.mixed_form,
                     "max_abs_diff": diff, "ok": ok})
        print(f"{kind:>10s}  {loss.mixed_form:<50s} |analytic-numeric| = "
              f"{diff:.2e}  {'OK' if ok else 'MISMATCH'}")
        if not ok:
            failures.append(kind)
    return {"rows": rows, "failures": failures, "tol": tol}
