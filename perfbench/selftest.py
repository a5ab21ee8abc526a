"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at tiny sizes and checks that every
metric declared in BENCHMARK.json is emitted with its declared unit and a
finite value, that the layers each workload exercises report non-zero
numbers, that injected faults (a NaN gradient fed to the step checker, a
flipped checkpoint byte) raise the failed count, and that the benchmark
exits non-zero without a result where the library sources are missing.
Prints one line per check and exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import run

SECONDS = 0.3

# Per-layer metrics each workload must report as non-zero at tiny sizes.
EVERY_WORKLOAD = (
    "autodiff.backward_ms", "autodiff.tape_nodes", "autodiff.tape_mb",
    "autodiff.op.matmul.calls", "autodiff.op.matmul.fwd_ms", "autodiff.op.matmul.bwd_ms",
    "layer.ttt.fwd_ms", "layer.ttt.bwd_ms", "inner.update.fwd_ms", "inner.update.bwd_ms",
    "inner.update_nodes", "inner.update_flops", "tensor.fwd_flops", "tensor.fwd_gflop_per_s",
    "trace.unexplained_share",
)
NONZERO = {
    "cifar_train": EVERY_WORKLOAD + (
        "data.augment_ms", "data.load_ms", "model.forward_ms", "model.eval_forward_ms",
        "model.adamw_ms", "model.ckpt_save_ms", "model.ckpt_load_ms", "model.ckpt_bytes",
        "autodiff.op.dwconv3x3.calls", "autodiff.op.dwconv3x3.fwd_ms",
        "autodiff.op.dwconv3x3.bwd_ms", "autodiff.op.cross_entropy.calls",
        "autodiff.op.layer_norm.calls",
    ) + tuple(f"model.part.{p}.{k}" for p in ("patch_embed", "cpe", "ln", "ttt", "mlp", "head")
              for k in ("fwd_ms", "bwd_ms")),
    "recall_train": EVERY_WORKLOAD + (
        "data.recall_gen_ms", "model.forward_ms", "model.eval_forward_ms", "model.adamw_ms",
        "autodiff.op.cross_entropy.calls", "autodiff.op.layer_norm.calls",
    ),
    "long_seq": EVERY_WORKLOAD + (
        "layer.softmax_fwd_ms", "layer.linear_fwd_ms", "autodiff.op.dwconv3x3_wgrad.calls",
        "autodiff.op.dwconv3x3_wgrad.bwd_ms",
    ),
}


class SelfTest:
    def __init__(self, spec: dict, workdir: str):
        self.spec, self.workdir, self.failures = spec, workdir, 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        self.failures += not ok

    def run(self, name: str, trace: bool, fault: str | None = None) -> tuple[dict, dict]:
        raw = run.run_workload(name, seed=7, seconds=SECONDS, trace=trace,
                               workdir=os.path.join(self.workdir, name), size="tiny",
                               fault=fault)
        if trace:
            line = run.result_line(self.spec, raw["layer"], "per_layer", raw["checks"])
        else:
            line = run.result_line(self.spec, run.end_to_end(raw, 0.0), "end_to_end",
                                   raw["checks"])
        return raw, json.loads(line)

    def check_metrics(self, name: str, trace: bool) -> None:
        key = "per_layer" if trace else "end_to_end"
        raw, res = self.run(name, trace)
        declared = [(m["name"], m["unit"]) for m in self.spec[key]]
        emitted = [(k, v["unit"]) for k, v in res["metrics"].items()]
        self.expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                    f"{name} {key}: result keys")
        self.expect(emitted == declared, f"{name} {key}: every metric with its declared unit")
        bad = [k for k, v in res["metrics"].items()
               if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
        self.expect(not bad, f"{name} {key}: finite values {bad or ''}")
        self.expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                    f"{name} {key}: correct, {res['failed']} of {res['attempted']} failed")
        if trace:
            stray = sorted(set(raw["layer"]) - {n for n, _ in declared})
            self.expect(not stray, f"{name}: no undeclared per-layer values {stray or ''}")
            zero = [k for k in NONZERO[name] if not res["metrics"][k]["value"] > 0]
            self.expect(not zero, f"{name}: exercised layers are non-zero {zero or ''}")
        else:
            zero = [k for k, v in res["metrics"].items() if not v["value"] > 0]
            self.expect(not zero, f"{name}: end-to-end metrics are non-zero {zero or ''}")

    def check_fault(self, name: str, fault: str, at_least: int) -> None:
        _, res = self.run(name, trace=False, fault=fault)
        self.expect(not res["correct"] and res["failed"] >= at_least,
                    f"{name} with {fault}: {res['failed']} of {res['attempted']} failed")

    def check_bare_directory(self) -> None:
        """Only BENCHMARK.json and the benchmark's files: the run must fail without a result."""
        bare = os.path.join(self.workdir, "bare")
        os.makedirs(bare)
        shutil.copy(run.SPEC_PATH, bare)
        for path in self.spec["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, os.path.join(bare, "perfbench", "run.py"),
                               "--workload", self.spec["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        self.expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
                    f"no library sources: exit code {proc.returncode}, no result printed")


def main() -> int:
    run.pin_blas_threads()
    run.import_library()
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    test = SelfTest(run.load_spec(), workdir)
    try:
        for w in test.spec["workloads"]:
            for trace in (False, True):
                test.check_metrics(w["name"], trace)
            test.check_fault(w["name"], "nan_grad", at_least=1)
        test.check_fault("cifar_train", "ckpt_flip", at_least=run.CKPT_REPS)
        test.check_bare_directory()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {test.failures} failed")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
