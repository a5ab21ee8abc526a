"""Run harness: training, ablation grids, scaling benchmarks, and check reports.

Every run is driven by a serializable RunConfig and an explicit seed; outputs
are CSV files plus a JSON manifest per run. Ablation cells execute in a
process pool (one RNG stream per cell) and a single writer emits the table.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import time
import tracemalloc
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import allocator
from . import autodiff as ad
from . import data as D
from . import model as M
from .autodiff import Tape, gradcheck
from .inner import (ARCH_NAMES, LOSSES, DivergenceError, InnerTrainConfig,
                    get_arch, inner_loss_grad, mixed_second_derivative)
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
                   "image_size", "patch_size", "dim", "heads", "depth", "num_classes",
                   "recall_seq", "recall_width", "recall_keys", "inner_epochs",
                   "inner_parts")
# JSON value checks by RunConfig field annotation; bool is not accepted as a number
_TYPE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
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
    augment: bool = True
    early_stop_acc: float = 0.0   # stop after epoch >= 5 once val acc exceeds this
    # model
    image_size: int = 32
    patch_size: int = 4
    dim: int = 64
    heads: int = 4
    depth: int = 4
    mlp_ratio: float = 4.0
    num_classes: int = 10
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
        return ModelConfig(image_size=self.image_size, patch_size=self.patch_size,
                           dim=self.dim, heads=self.heads, depth=self.depth,
                           mlp_ratio=self.mlp_ratio, num_classes=self.num_classes,
                           inner=self.inner_config(),
                           head_archs=tuple(self.head_archs) if self.head_archs else ())

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        doc = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
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
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} is not divisible by heads {self.heads}")
        unknown = [a for a in self.head_archs if a not in ARCH_NAMES]
        if unknown:
            raise ValueError(f"unknown head_archs {unknown}; expected names from {ARCH_NAMES}")
        if self.head_archs and len(self.head_archs) != self.heads:
            raise ValueError(f"{len(self.head_archs)} head_archs for {self.heads} heads")
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
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# recall model: embed -> pre-norm TTT residual -> readout at the query token

class RecallModel:
    def __init__(self, rc: RunConfig, n_classes: int, rng: np.random.Generator,
                 dtype=np.float32):
        din = 2 * rc.recall_width
        dim, heads = rc.dim, rc.heads
        archs = tuple(rc.head_archs) if rc.head_archs else ("gated_fc",) * heads
        self.inner_cfg = rc.inner_config()
        self.layer = TTTLayerParams.create(rng, dim, heads, archs, dtype=dtype)
        self.params = {"embed.w": (rng.standard_normal((din, dim)) * 0.05).astype(dtype),
                       "embed.b": np.zeros(dim, dtype=dtype),
                       "ln.g": np.ones(dim, dtype=dtype),
                       "ln.b": np.zeros(dim, dtype=dtype),
                       "head.w": (rng.standard_normal((dim, n_classes)) * 0.05).astype(dtype),
                       "head.b": np.zeros(n_classes, dtype=dtype)}
        self.params.update(self.layer.named_arrays(prefix="ttt."))

    def logits_nodes(self, tape: Tape, tokens: np.ndarray):
        leaves = {k: tape.leaf(v, name=k, param=True) for k, v in self.params.items()}
        x = ad.linear(tape.leaf(tokens), leaves["embed.w"], leaves["embed.b"])
        h = ad.layer_norm(x, leaves["ln.g"], leaves["ln.b"])
        x = ad.add(x, ttt_attention_nodes(h, leaves, self.layer, self.inner_cfg,
                                          None, prefix="ttt."))
        n = tokens.shape[-2]
        q = ad.reshape(ad.rows(x, n - 1, n), (tokens.shape[0], x.value.shape[-1]))
        return ad.linear(q, leaves["head.w"], leaves["head.b"])

    def loss_and_grads(self, tokens, labels):
        tape = Tape()
        logits = self.logits_nodes(tape, tokens)
        loss = ad.cross_entropy(logits, labels)
        grads = tape.backward(loss)
        return float(loss.value), grads, logits.value

    def predict(self, tokens) -> np.ndarray:
        return self.logits_nodes(Tape(record=False), tokens).value.argmax(axis=-1)


# ---------------------------------------------------------------------------
# shared training loop

def _accuracy(pred, labels) -> float:
    return float((pred == labels).mean()) if len(labels) else 0.0


def _fit(rc: RunConfig, step_fn, eval_fn, n_train: int, params: dict,
         csv_path: str, target_acc: float | None = None):
    """Epoch loop with AdamW + warmup/cosine; returns (rows, diverged, final_acc)."""
    state = OptState.for_params(params)
    steps_per_epoch = max(1, (n_train + rc.batch_size - 1) // rc.batch_size)
    total_steps = rc.epochs * steps_per_epoch
    warmup_steps = rc.warmup_epochs * steps_per_epoch
    rng = np.random.default_rng(rc.seed)
    rows, diverged, acc = [], False, 0.0
    step = 0
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
                        loss, grads = step_fn(idx, epoch)
                        if not np.isfinite(loss):
                            raise DivergenceError(f"outer loss non-finite at epoch {epoch}")
                        lr = cosine_warmup_lr(step, total_steps, warmup_steps, rc.lr)
                        adamw_step(params, grads, state, lr, weight_decay=rc.weight_decay)
                        losses.append(loss)
                        step += 1
                acc = eval_fn()
            except DivergenceError:
                diverged = True
                writer.writerow([epoch, "nan", "nan", f"{time.perf_counter() - t0:.3f}"])
                break
            row = (epoch, float(np.mean(losses)), acc, time.perf_counter() - t0)
            rows.append(row)
            writer.writerow([row[0], f"{row[1]:.6f}", f"{row[2]:.4f}", f"{row[3]:.3f}"])
            fp.flush()
            if target_acc is not None and acc > target_acc and epoch + 1 >= 5:
                break
    return rows, diverged, acc


# ---------------------------------------------------------------------------
# train command

def cmd_train(rc: RunConfig) -> dict:
    os.makedirs(rc.out_dir, exist_ok=True)
    if rc.task == "cifar":
        report = _train_cifar(rc)
    elif rc.task == "recall":
        report = _train_recall(rc)
    else:
        raise ValueError(f"unknown task {rc.task!r}")
    outputs = [report["csv"], report["checkpoint"]]
    report["manifest"] = _write_manifest(
        rc, outputs, "diverged" if report["diverged"] else "ok",
        extra={"final_acc": report["final_acc"]})
    return report


def _load_cifar_splits(rc: RunConfig):
    path = D.find_cifar10(rc.data_path or None)
    synthetic = path is None
    if synthetic:
        path = os.path.join(rc.out_dir, "synthetic-cifar-bin")
        if not os.path.exists(os.path.join(path, "data_batch_1.bin")):
            D.write_synthetic_cifar(path, seed=rc.seed,
                                    n_train=max(rc.train_size, 5000),
                                    n_test=max(rc.val_size, 1000))
    train = D.load_cifar10(path, "train")
    test = D.load_cifar10(path, "test")
    return train, test, synthetic


def _train_cifar(rc: RunConfig) -> dict:
    train, test, synthetic = _load_cifar_splits(rc)
    xs = train.images[:rc.train_size]
    ys = train.labels[:rc.train_size]
    xv = test.images[:rc.val_size]
    yv = test.labels[:rc.val_size]
    model = Model(rc.model_config(), np.random.default_rng(rc.seed))
    norm_v = ((xv - D.CIFAR_MEAN) / D.CIFAR_STD).astype(np.float32)

    def step_fn(idx, epoch):
        if rc.augment:
            batch = np.stack([D.augment(xs[i], seed=(rc.seed, int(i), epoch))
                              for i in idx])
        else:
            batch = xs[idx]
        batch = ((batch - D.CIFAR_MEAN) / D.CIFAR_STD).astype(np.float32)
        loss, grads, _ = model.loss_and_grads(batch, ys[idx])
        return loss, grads

    def eval_fn():
        preds = []
        for lo in range(0, len(yv), rc.batch_size):
            logits = M.forward_classifier(model, norm_v[lo:lo + rc.batch_size])
            preds.append(logits.argmax(axis=-1))
        return _accuracy(np.concatenate(preds) if preds else np.array([]), yv)

    csv_path = os.path.join(rc.out_dir, "train.csv")
    rows, diverged, acc = _fit(rc, step_fn, eval_fn, len(ys), model.params, csv_path,
                               target_acc=rc.early_stop_acc or None)
    ckpt = os.path.join(rc.out_dir, "checkpoint")
    save_checkpoint(ckpt, model.params, meta={"task": "cifar", "synthetic": synthetic})
    return {"csv": csv_path, "checkpoint": ckpt, "rows": rows, "diverged": diverged,
            "final_acc": acc, "synthetic_data": synthetic}


def _train_recall(rc: RunConfig) -> dict:
    task = D.synth_recall_task(rc.seed, rc.train_size + rc.val_size, rc.recall_seq,
                               rc.recall_width, n_keys=rc.recall_keys)
    xs, ys = task.tokens[:rc.train_size], task.labels[:rc.train_size]
    xv, yv = task.tokens[rc.train_size:], task.labels[rc.train_size:]
    model = RecallModel(rc, task.n_classes, np.random.default_rng(rc.seed + 1))

    def step_fn(idx, epoch):
        loss, grads, _ = model.loss_and_grads(xs[idx], ys[idx])
        return loss, grads

    def eval_fn():
        preds = [model.predict(xv[lo:lo + rc.batch_size])
                 for lo in range(0, len(yv), rc.batch_size)]
        return _accuracy(np.concatenate(preds) if preds else np.array([]), yv)

    csv_path = os.path.join(rc.out_dir, "train.csv")
    rows, diverged, acc = _fit(rc, step_fn, eval_fn, len(ys), model.params, csv_path)
    ckpt = os.path.join(rc.out_dir, "checkpoint")
    save_checkpoint(ckpt, model.params, meta={"task": "recall"})
    return {"csv": csv_path, "checkpoint": ckpt, "rows": rows, "diverged": diverged,
            "final_acc": acc}


# ---------------------------------------------------------------------------
# ablate command

DEFAULT_GRID = {
    "inner_loss": ["dot", "mse", "mae"],
    "inner_lr": [0.1, 1.0, 10.0],
    "inner_epochs": [1, 4],
    "seeds": [0, 1, 2],
}


def _cell_name(overrides: dict) -> str:
    return ",".join(f"{k.removeprefix('inner_')}={v}" for k, v in overrides.items())


def ablate_cell(args: tuple) -> dict:
    """One grid cell: a desk-scale train (recall task by default, cifar opt-in)."""
    rc_doc, overrides, seed = args
    rc = RunConfig(**rc_doc)
    for key, value in overrides.items():
        setattr(rc, key, value)
    rc.seed = seed
    rc.out_dir = os.path.join(rc.out_dir, "cells",
                              _cell_name(overrides).replace("=", "_") + f"_s{seed}")
    os.makedirs(rc.out_dir, exist_ok=True)
    mc = rc.model_config()
    n_tok, grid = (mc.tokens, mc.grid) if rc.task == "cifar" else (rc.recall_seq, None)
    archs = (tuple(rc.head_archs) if rc.head_archs else
             (mc.head_archs if rc.task == "cifar" else ("gated_fc",) * rc.heads))
    layer_fl = ttt_layer_flops(n_tok, rc.dim, rc.heads, archs, rc.inner_config(), grid)
    try:
        if rc.task == "cifar":
            report = _train_cifar(rc)
        else:
            report = _train_recall(rc)
        status = "*" if report["diverged"] else ""
        metric = report["final_acc"]
    except DivergenceError:
        status, metric = "*", float("nan")
    throughput, n_params = _cell_throughput(rc)
    if throughput is None:
        throughput, status = "nan", "*"
    return {"config": _cell_name(overrides) + f",seed={seed}",
            "params": n_params, "flops": layer_fl["total_executed"],
            "throughput": throughput,
            "metric": round(metric, 4) if np.isfinite(metric) else "nan",
            "status": status}


def _cell_throughput(rc: RunConfig):
    """Tokens/s of a fresh model's forward on one batch: one warm-up run, then
    the median of 3 timed runs (None if it diverges)."""
    if rc.task == "cifar":
        model = Model(rc.model_config(), np.random.default_rng(0))
        batch = np.random.default_rng(rc.seed + 7).random(
            (min(rc.batch_size, 16), rc.image_size, rc.image_size, 3)).astype(np.float32)
        n_params = model.n_params()
        tokens = batch.shape[0] * rc.model_config().tokens

        def run():
            M.forward_classifier(model, batch)
    else:
        model = RecallModel(rc, 10, np.random.default_rng(0))
        task = D.synth_recall_task(rc.seed + 7, rc.batch_size, rc.recall_seq,
                                   rc.recall_width)
        n_params = sum(int(p.size) for p in model.params.values())
        tokens = task.tokens.shape[0] * task.tokens.shape[1]

        def run():
            model.predict(task.tokens)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            run()
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                run()
                times.append(time.perf_counter() - t0)
        return round(tokens / float(np.median(times)), 1), n_params
    except DivergenceError:
        return None, n_params


def cmd_ablate(rc: RunConfig, grid: dict | None = None) -> dict:
    grid = dict(grid or DEFAULT_GRID)
    seeds = grid.pop("seeds", [rc.seed])
    axes = sorted(grid)
    combos = [{}]
    for axis in axes:
        combos = [{**c, axis: v} for c in combos for v in grid[axis]]
    jobs = [(asdict(rc), combo, seed) for combo in combos for seed in seeds]
    rows = []
    if rc.threads > 1:
        with ProcessPoolExecutor(max_workers=rc.threads) as pool:
            for row in pool.map(ablate_cell, jobs):
                rows.append(row)
    else:
        rows = [ablate_cell(job) for job in jobs]
    os.makedirs(rc.out_dir, exist_ok=True)
    csv_path = os.path.join(rc.out_dir, "ablate.csv")
    with open(csv_path, "w", newline="") as fp:
        writer = csv.DictWriter(fp, fieldnames=ABLATE_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    manifest = _write_manifest(rc, [csv_path], "ok", extra={"cells": len(rows)})
    return {"csv": csv_path, "rows": rows, "manifest": manifest}


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
    os.makedirs(rc.out_dir, exist_ok=True)
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
    csv_path = os.path.join(rc.out_dir, "bench.csv")
    with open(csv_path, "w", newline="") as fp:
        writer = csv.DictWriter(fp, fieldnames=BENCH_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    manifest = _write_manifest(rc, [csv_path], "ok")
    return {"csv": csv_path, "rows": rows, "manifest": manifest}


def loglog_slope(ns, ts) -> float:
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])


# ---------------------------------------------------------------------------
# gradcheck command

def _kink_distance(tape: Tape) -> float:
    """Distance of every sign/huber input from its non-differentiable set.

    Central differences are only meaningful at points where the piecewise
    losses are locally smooth; cells are resampled until clear of the kinks.
    """
    dist = np.inf
    for node in tape.nodes:
        if node.op == "sign":
            dist = min(dist, float(np.abs(node.inputs[0].value).min()))
        elif node.op in ("huber", "huber_prime"):
            gap = np.abs(np.abs(node.inputs[0].value) - 1.0)
            dist = min(dist, float(gap.min()))
    return dist


def gradcheck_cell(args: tuple) -> dict:
    arch_name, loss, dynamic, parts, dim, grid_side = args
    arch = get_arch(arch_name)
    n = grid_side * grid_side
    grid = (grid_side, grid_side)
    base_seed = zlib.crc32(f"{arch_name}|{loss}|{dynamic}|{parts}".encode())
    cfg = InnerTrainConfig(loss=loss, epochs=1, parts=parts, lr=1.0,
                           dynamic_lr=dynamic)
    for attempt in range(50):
        rng = np.random.default_rng((base_seed + attempt) % 2 ** 31)
        params = TTTLayerParams.create(rng, dim, 1, (arch_name,))
        x = rng.standard_normal((n, dim))

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
                  tol: float = 1e-4, dim: int = 6, grid_side: int = 3) -> dict:
    rc = rc or RunConfig(command="gradcheck")
    jobs = [(a, l, dyn, parts, dim, grid_side)
            for a in archs for l in losses
            for dyn in (False, True) for parts in (1, 2)]
    if rc.threads > 1:
        with ProcessPoolExecutor(max_workers=rc.threads) as pool:
            cells = list(pool.map(gradcheck_cell, jobs))
    else:
        cells = [gradcheck_cell(job) for job in jobs]
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

_MIXED_FORMS = {
    "dot": "-1/(B sqrt(d)) everywhere",
    "mse": "-1/(B sqrt(d)) everywhere",
    "rmse": "-1/(B sqrt(d) sqrt(S)) + (Vhat-V)^2/(B^2 d S^(3/2))",
    "mae": "0 almost everywhere",
    "smooth_l1": "-1/(B sqrt(d)) where |Vhat-V| < 1, else 0",
}


def _generic_point(rng, b, d):
    """Random (Vhat, V) kept away from the mae/smooth_l1 kink sets."""
    while True:
        vhat = rng.standard_normal((b, d))
        v = rng.standard_normal((b, d))
        e = np.abs(vhat - v)
        if e.min() > 1e-3 and np.abs(e - 1.0).min() > 1e-3:
            return vhat, v


def mixed_derivative_fd(kind: str, vhat: np.ndarray, v: np.ndarray,
                        eps: float = 1e-6) -> np.ndarray:
    """Central differences of dL/dVhat_ij with respect to V_ij, entrywise."""
    out = np.zeros_like(vhat)
    it = np.nditer(v, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        vp, vm = v.copy(), v.copy()
        vp[ij] += eps
        vm[ij] -= eps
        gp = inner_loss_grad(kind, vhat, vp)[ij]
        gm = inner_loss_grad(kind, vhat, vm)[ij]
        out[ij] = (gp - gm) / (2 * eps)
    return out


def cmd_lossreport(seed: int = 0, b: int = 4, d: int = 6, tol: float = 1e-5) -> dict:
    rng = np.random.default_rng(seed)
    rows, failures = [], []
    for kind in LOSSES:
        vhat, v = _generic_point(rng, b, d)
        analytic = mixed_second_derivative(kind, vhat, v)
        numeric = mixed_derivative_fd(kind, vhat, v)
        diff = float(np.abs(analytic - numeric).max())
        ok = diff < tol
        rows.append({"loss": kind, "closed_form": _MIXED_FORMS[kind],
                     "max_abs_diff": diff, "ok": ok})
        print(f"{kind:>10s}  {_MIXED_FORMS[kind]:<50s} |analytic-numeric| = "
              f"{diff:.2e}  {'OK' if ok else 'MISMATCH'}")
        if not ok:
            failures.append(kind)
    return {"rows": rows, "failures": failures, "tol": tol}
