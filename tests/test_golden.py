"""Golden digests: what the library computes, pinned bit for bit.

`GOLDEN.json`, next to this file, holds SHA-256 digests keyed by the machine
fingerprint (numpy, BLAS build, CPU), because another BLAS or CPU may round
differently. They cover:

- perfbench's three workloads at full size, seed 11: for each of two train
  steps the loss, every gradient, the params after AdamW (the layer output for
  `long_seq`), the op names pushed on the tape and the `count_flops` total;
  for one eval batch the output, the op names and the FLOPs;
- a tiny fixed-seed cifar and recall `cmd_train`: `train.csv` without its
  `wall_s` column, `checkpoint.bin` and `checkpoint.json`;
- a sample of the inner-architecture matrix: every architecture x inner loss
  x parts {1, 3} x fixed/dynamic rate, as a two-head layer on a [3, 9, 8]
  float64 input, hashing the layer output and every outer gradient.

On another fingerprint the test skips and names what differs. A change that
means to move numbers rewrites the file (only this machine's entry is kept,
since the other entries would be stale), and its CHANGES.md entry names the
digests that moved and why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager

import numpy as np
import pytest

from tttlab import autodiff as ad
from tttlab import data as D
from tttlab import harness as H
from tttlab import layer as L
from tttlab import tensor as T
from tttlab.autodiff import Tape
from tttlab.inner import ARCH_NAMES, LOSSES, InnerTrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "GOLDEN.json")
SEED = 11


@contextmanager
def perfbench_on_path():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        yield
    finally:
        sys.path.pop(0)


def fingerprint() -> dict:
    with perfbench_on_path():
        from run import cpu_model
    fp = H.machine_fingerprint()
    return {"numpy": fp["numpy"], "blas": f"{fp['blas']} {fp['blas_version']}",
            "cpu": cpu_model()}


def fingerprint_key(fp: dict) -> str:
    return " | ".join(f"{k} {fp[k]}" for k in sorted(fp))


def digest(*items) -> str:
    """One digest over arrays, dicts of arrays (by sorted name) and strings."""
    h = hashlib.sha256()

    def put(x):
        if isinstance(x, dict):
            for name in sorted(x):
                h.update(name.encode())
                put(x[name])
        elif isinstance(x, (str, bytes)):
            h.update(x.encode() if isinstance(x, str) else x)
        else:
            a = np.ascontiguousarray(x)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())

    for x in items:
        put(x)
    return h.hexdigest()[:16]


@contextmanager
def observed():
    """Log the op name of every node pushed on any tape, and count FLOPs."""
    ops, push = [], Tape.push

    def logged(tape, value, inputs, vjp, op):
        ops.append(op)
        return push(tape, value, inputs, vjp, op)

    Tape.push = logged
    try:
        with T.count_flops() as counter:
            yield ops, counter
    finally:
        Tape.push = push


def workload_digests(workdir: str) -> dict:
    with perfbench_on_path():
        from spans import NO_TRACE
        from workloads import WORKLOADS
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(SEED, "full", os.path.join(workdir, name))
        for i in (1, 2):
            with observed() as (ops, counter):
                step = wl.train_step(NO_TRACE)
            pre = f"{name}.step{i}"
            out[f"{pre}.loss"] = digest(np.float64(step.loss))
            out[f"{pre}.grads"] = digest(step.grads)
            out[f"{pre}.after"] = digest(wl.model.params if wl.is_model else step.out)
            out[f"{pre}.ops"] = digest("\n".join(ops))
            out[f"{pre}.flops"] = counter.total
        with observed() as (ops, counter):
            val = wl.eval_batch()
        out[f"{name}.eval.out"] = digest(val)
        out[f"{name}.eval.ops"] = digest("\n".join(ops))
        out[f"{name}.eval.flops"] = counter.total
    return out


def train_digests(workdir: str) -> dict:
    data = os.path.join(workdir, "cifar-bin")
    D.write_synthetic_cifar(data, seed=SEED, n_train=40, n_test=20)
    small = dict(seed=SEED, epochs=2, batch_size=8, train_size=24, val_size=16,
                 warmup_epochs=1, dim=16, heads=2, depth=1)
    runs = {"cifar": dict(task="cifar", patch_size=8, data_path=data),
            "recall": dict(task="recall", recall_seq=9, recall_keys=16)}
    out = {}
    for task, kw in runs.items():
        rc = H.RunConfig(out_dir=os.path.join(workdir, task), **small, **kw).validate()
        report = H.cmd_train(rc)
        with open(report["csv"], newline="") as fp:
            rows = [",".join(row[:3]) for row in csv.reader(fp)]
        out[f"train.{task}.csv"] = digest("\n".join(rows))
        for name in ("checkpoint.bin", "checkpoint.json"):
            with open(os.path.join(report["checkpoint"], name), "rb") as fp:
                out[f"train.{task}.{name}"] = digest(fp.read())
    return out


def matrix_digests() -> dict:
    x = np.random.default_rng(SEED).standard_normal((3, 9, 8))
    out = {}
    for arch in ARCH_NAMES:
        parts = []
        for loss in LOSSES:
            for n_parts in (1, 3):
                for dynamic in (False, True):
                    rng = np.random.default_rng(SEED)
                    p = L.TTTLayerParams.create(rng, 8, 2, (arch, arch))
                    p.w_eta = [rng.uniform(-1, 1, (8, 1)) for _ in range(2)]
                    cfg = InnerTrainConfig(loss=loss, parts=n_parts, dynamic_lr=dynamic)
                    tape = Tape()
                    leaves = {k: tape.leaf(v, name=k, param=True)
                              for k, v in p.named_arrays().items()}
                    y = L.ttt_attention_nodes(tape.leaf(x), leaves, p, cfg, (3, 3))
                    grads = tape.backward(ad.sum_all(ad.mul(y, y)))
                    parts.append(digest(y.value, grads))
        out[f"matrix.{arch}"] = digest("".join(parts))
    return out


def compute() -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        return {**workload_digests(workdir), **train_digests(workdir), **matrix_digests()}


def test_digests_match_golden():
    with open(GOLDEN) as fp:
        golden = json.load(fp)
    fp_now = fingerprint()
    entry = golden.get(fingerprint_key(fp_now))
    if entry is None:
        diffs = sorted({f"{k}: {fp_now[k]!r} here, {e['fingerprint'].get(k)!r} recorded"
                        for e in golden.values() for k in fp_now
                        if e["fingerprint"].get(k) != fp_now[k]})
        pytest.skip("no golden digests for this machine; " + "; ".join(diffs))
    got = compute()
    want = entry["digests"]
    moved = [k for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]
    assert not moved, "digests moved: " + ", ".join(
        f"{k} {want.get(k)} -> {got.get(k)}" for k in moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    fp = fingerprint()
    doc = {fingerprint_key(fp): {"fingerprint": fp, "digests": compute()}}
    with open(GOLDEN, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(doc[fingerprint_key(fp)]['digests'])} digests to {GOLDEN}")
