"""The benchmark's three workloads.

Each workload is built from a seed and a size ("full" for the benchmark,
"tiny" for the self-test). The runner in run.py drives it in a closed loop:
``train_step`` then ``check_step`` (outside the timed region), later
``eval_batch`` then ``check_eval``. Only public functions of tttlab are used;
the library sees nothing but the generated inputs.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from tttlab import autodiff as ad
from tttlab import data as D
from tttlab import harness as H
from tttlab import layer as L
from tttlab import model as M
from tttlab.autodiff import Tape
from tttlab.inner import InnerTrainConfig

REL_TOL_F64 = 1e-3


@dataclass
class StepOut:
    loss: float
    grads: dict[str, np.ndarray]
    out: np.ndarray | None = None   # the layer output, for workloads checked against float64


def nonfinite(loss: float, grads: dict[str, np.ndarray]) -> str | None:
    """Name the first non-finite value among a step's loss and gradients."""
    if not np.isfinite(loss):
        return f"loss is {loss}"
    for name, g in grads.items():
        if not np.isfinite(g).all():
            return f"gradient {name} is not finite"
    return None


def check_logits(logits: np.ndarray, shape: tuple) -> str | None:
    if logits.shape != shape:
        return f"logits shape {logits.shape} != {shape}"
    if not np.isfinite(logits).all():
        return "logits are not finite"
    return None


def check_roundtrip(saved: dict[str, np.ndarray], loaded: dict[str, np.ndarray]) -> str | None:
    """Bit-identical comparison of saved and reloaded parameters."""
    if sorted(saved) != sorted(loaded):
        return "checkpoint parameter names differ"
    for name, a in saved.items():
        b = loaded[name]
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return f"checkpoint tensor {name} differs after the round trip"
    return None


class _Batches:
    """Epoch permutations of a training set, as the harness's training loop draws them."""

    def __init__(self, seed: int, n: int, batch: int):
        self.rng = np.random.default_rng(seed)
        self.n, self.batch = n, batch
        self.per_epoch = n // batch
        self.epoch, self.order = -1, None

    def at(self, step: int) -> tuple[int, np.ndarray]:
        epoch, k = divmod(step, self.per_epoch)
        while self.epoch < epoch:
            self.order = self.rng.permutation(self.n)
            self.epoch += 1
        return epoch, self.order[k * self.batch:(k + 1) * self.batch]


class CifarTrain:
    """The micro classifier at criterion 9's config, trained on synthetic CIFAR-format data."""

    SIZES = {"full": dict(dim=64, heads=4, depth=4, patch=4, batch=64, n_train=1280,
                          n_test=256, warmup=20),
             "tiny": dict(dim=16, heads=2, depth=1, patch=8, batch=8, n_train=40,
                          n_test=16, warmup=1)}
    report_names = (("train_img_per_s", "img/s"), ("eval_img_per_s", "img/s"))
    is_model = True
    lr, weight_decay, epochs, warmup_epochs = 1e-3, 0.05, 20, 2

    def __init__(self, seed: int, size: str, workdir: str):
        z = self.SIZES[size]
        self.seed, self.workdir, self.batch = seed, workdir, z["batch"]
        path = os.path.join(workdir, "cifar-bin")
        D.write_synthetic_cifar(path, seed=seed, n_train=z["n_train"], n_test=z["n_test"])
        t = time.perf_counter()
        train = D.load_cifar10(path, "train")
        test = D.load_cifar10(path, "test")
        self.setup_ms = {"data.load_ms": 1e3 * (time.perf_counter() - t)}
        self.xs, self.ys = train.images, train.labels
        self.xv = ((test.images - D.CIFAR_MEAN) / D.CIFAR_STD).astype(np.float32)
        cfg = M.ModelConfig(dim=z["dim"], heads=z["heads"], depth=z["depth"],
                            patch_size=z["patch"], inner=InnerTrainConfig(loss="dot"))
        self.model = M.Model(cfg, np.random.default_rng(seed))
        self.opt = M.OptState.for_params(self.model.params)
        self.batches = _Batches(seed, len(self.ys), self.batch)
        self.total_steps = self.epochs * self.batches.per_epoch
        self.warmup_steps = self.warmup_epochs * self.batches.per_epoch
        self.step = self.eval_i = 0
        self.train_items = self.eval_items = self.batch
        self.warmup = z["warmup"]

    def train_step(self, tr) -> StepOut:
        epoch, idx = self.batches.at(self.step)
        with tr.span("data.augment"):
            batch = np.stack([D.augment(self.xs[i], seed=(self.seed, int(i), epoch))
                              for i in idx])
        with tr.span("data.normalize"):
            batch = ((batch - D.CIFAR_MEAN) / D.CIFAR_STD).astype(np.float32)
        with tr.span("fwd_bwd"):
            loss, grads, _ = self.model.loss_and_grads(batch, self.ys[idx])
        lr = M.cosine_warmup_lr(self.step, self.total_steps, self.warmup_steps, self.lr)
        with tr.span("model.adamw"):
            M.adamw_step(self.model.params, grads, self.opt, lr,
                         weight_decay=self.weight_decay)
        self.step += 1
        return StepOut(loss, grads)

    def check_step(self, out: StepOut) -> str | None:
        return nonfinite(out.loss, out.grads)

    def eval_batch(self) -> np.ndarray:
        lo = self.eval_i % (len(self.xv) // self.batch) * self.batch
        self.eval_i += 1
        return M.forward_classifier(self.model, self.xv[lo:lo + self.batch])

    def check_eval(self, logits: np.ndarray) -> str | None:
        return check_logits(logits, (self.batch, self.model.cfg.num_classes))

    def checkpoint_roundtrip(self, corrupt: bool = False) -> tuple[dict, str | None]:
        """Save and reload the parameters; `corrupt` flips a byte of the saved tensors."""
        path = os.path.join(self.workdir, "checkpoint")
        t = time.perf_counter()
        M.save_checkpoint(path, self.model.params, meta={"task": "cifar", "step": self.step})
        save_s = time.perf_counter() - t
        bin_path = os.path.join(path, "checkpoint.bin")
        if corrupt:
            with open(bin_path, "r+b") as fp:
                fp.seek(-1, os.SEEK_END)
                last = fp.read(1)[0]
                fp.seek(-1, os.SEEK_END)
                fp.write(bytes([last ^ 0xFF]))
        t = time.perf_counter()
        loaded = M.load_checkpoint(path)
        load_s = time.perf_counter() - t
        size = os.path.getsize(bin_path) + os.path.getsize(os.path.join(path, "checkpoint.json"))
        timing = {"model.ckpt_save_ms": 1e3 * save_s, "model.ckpt_load_ms": 1e3 * load_s,
                  "model.ckpt_bytes": size}
        return timing, check_roundtrip(self.model.params, loaded)


class RecallTrain:
    """harness.RecallModel at criterion 10's config: many tiny ops per step."""

    SIZES = {"full": dict(batch=64, n_train=1280, n_eval=256, warmup=200),
             "tiny": dict(batch=8, n_train=32, n_eval=16, warmup=2)}
    report_names = (("recall_tok_per_s", "tok/s"), ("recall_eval_tok_per_s", "tok/s"))
    is_model = True
    seq, width, keys = 9, 8, 16

    def __init__(self, seed: int, size: str, workdir: str):
        z = self.SIZES[size]
        self.batch = z["batch"]
        t = time.perf_counter()
        task = D.synth_recall_task(seed, z["n_train"] + z["n_eval"], self.seq, self.width,
                                   n_keys=self.keys)
        self.setup_ms = {"data.recall_gen_ms": 1e3 * (time.perf_counter() - t)}
        n = z["n_train"]
        self.xs, self.ys = task.tokens[:n], task.labels[:n]
        self.xv = task.tokens[n:]
        self.n_classes = task.n_classes
        self.rc = H.RunConfig(task="recall", seed=seed, epochs=18, batch_size=self.batch,
                              lr=5e-3, weight_decay=0.01, warmup_epochs=2, dim=32, heads=2,
                              recall_seq=self.seq, recall_width=self.width,
                              recall_keys=self.keys, inner_loss="mse", inner_lr=1.0)
        self.model = H.RecallModel(self.rc, task.n_classes, np.random.default_rng(seed + 1))
        self.opt = M.OptState.for_params(self.model.params)
        self.batches = _Batches(seed, n, self.batch)
        self.total_steps = self.rc.epochs * self.batches.per_epoch
        self.warmup_steps = self.rc.warmup_epochs * self.batches.per_epoch
        self.step = self.eval_i = 0
        self.train_items = self.eval_items = self.batch * self.seq
        self.warmup = z["warmup"]

    def train_step(self, tr) -> StepOut:
        _, idx = self.batches.at(self.step)
        with tr.span("fwd_bwd"):
            loss, grads, _ = self.model.loss_and_grads(self.xs[idx], self.ys[idx])
        lr = M.cosine_warmup_lr(self.step, self.total_steps, self.warmup_steps, self.rc.lr)
        with tr.span("model.adamw"):
            M.adamw_step(self.model.params, grads, self.opt, lr,
                         weight_decay=self.rc.weight_decay)
        self.step += 1
        return StepOut(loss, grads)

    def check_step(self, out: StepOut) -> str | None:
        return nonfinite(out.loss, out.grads)

    def eval_batch(self) -> np.ndarray:
        lo = self.eval_i % (len(self.xv) // self.batch) * self.batch
        self.eval_i += 1
        return self.model.logits_nodes(Tape(), self.xv[lo:lo + self.batch]).value

    def check_eval(self, logits: np.ndarray) -> str | None:
        return check_logits(logits, (self.batch, self.n_classes))


def _as_float64(p: L.TTTLayerParams) -> L.TTTLayerParams:
    def f64(ws):
        return [w.astype(np.float64) for w in ws]
    return dataclasses.replace(
        p, wq=f64(p.wq), wk=f64(p.wk), wv=f64(p.wv), w_eta=f64(p.w_eta),
        w_o=p.w_o.astype(np.float64),
        inner=[dataclasses.replace(m, weights=f64(m.weights)) for m in p.inner])


class LongSeq:
    """One fp32 TTT layer on a 64x64 token grid: the linear-in-N, BLAS-bound regime."""

    SIZES = {"full": dict(side=64, dim=128, heads=4, parts=4, warmup=10),
             "tiny": dict(side=8, dim=16, heads=2, parts=2, warmup=1)}
    report_names = (("layer_tok_per_s", "tok/s"), ("layer_fwd_tok_per_s", "tok/s"))
    is_model = False

    def __init__(self, seed: int, size: str, workdir: str):
        z = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.grid = (z["side"], z["side"])
        n = z["side"] * z["side"]
        self.params = L.TTTLayerParams.create(rng, z["dim"], z["heads"],
                                              M.default_head_archs(z["heads"]),
                                              dtype=np.float32)
        self.x = rng.standard_normal((n, z["dim"])).astype(np.float32)
        self.cfg = InnerTrainConfig(loss="mse", parts=z["parts"])
        self.setup_ms = {}
        self.train_items = self.eval_items = n
        self.warmup = z["warmup"]
        self._ref = None

    def train_step(self, tr) -> StepOut:
        with tr.span("fwd_bwd"):
            tape = Tape()
            leaves = {k: tape.leaf(v, name=k, param=True)
                      for k, v in self.params.named_arrays().items()}
            with tr.span("layer.ttt", tape):
                out = L.ttt_attention_nodes(tape.leaf(self.x), leaves, self.params,
                                            self.cfg, self.grid)
            root = ad.sum_all(ad.mul(out, out))
            grads = tape.backward(root)
        return StepOut(float(root.value), grads, out.value)

    def reference(self) -> np.ndarray:
        """The layer output evaluated in float64 from the same parameters and input."""
        if self._ref is None:
            self._ref = L.ttt_attention(self.x.astype(np.float64), _as_float64(self.params),
                                        self.cfg, self.grid)
        return self._ref

    def check_output(self, out: np.ndarray) -> str | None:
        ref = self.reference()
        err = float(np.abs(out - ref).max() / np.abs(ref).max())
        if not err <= REL_TOL_F64:
            return f"layer output differs from float64 by {err:.2e} relative"
        return None

    def check_step(self, out: StepOut) -> str | None:
        return nonfinite(out.loss, out.grads) or self.check_output(out.out)

    def eval_batch(self) -> np.ndarray:
        return L.ttt_attention(self.x, self.params, self.cfg, self.grid)

    def check_eval(self, out: np.ndarray) -> str | None:
        return self.check_output(out)

    def baselines(self, reps: int = 3) -> dict:
        """Forward ms of the exact softmax and linear attention baselines at the same N."""
        out = {}
        for key, fn in (("layer.softmax_fwd_ms", L.softmax_attention),
                        ("layer.linear_fwd_ms", L.linear_attention)):
            times = []
            for _ in range(reps):
                t = time.perf_counter()
                fn(self.x, self.params)
                times.append(time.perf_counter() - t)
            out[key] = 1e3 * float(np.median(times))
        return out


WORKLOADS = {"cifar_train": CifarTrain, "recall_train": RecallTrain, "long_seq": LongSeq}
