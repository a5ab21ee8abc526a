"""tttlab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload cifar_train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py

Workloads, metrics and units are declared in BENCHMARK.json at the repository
root. A run sets up SETUP_REPS times (data generation, model build, one step)
and reports the median plus one warm-up phase as ``setup_s``. For
``--seconds`` it then alternates windows of training steps (TRAIN_SHARE of
each CYCLE_S) and eval batches (forward only), and checks every output outside
the timed region. Then it round-trips a checkpoint where the workload has one
and takes one more step under the FLOP counter for the exact counts.

With ``--trace 1`` every other training step runs under the span tracer
(spans.py): the untraced steps give the baseline for the tracing overhead, the
traced ones the per-layer metrics, and the spans of the first traced steps
are written to ``.perfbench/trace-<workload>-s<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the throughputs under per-workload names (``train_img_per_s``,
``recall_tok_per_s``, ``layer_tok_per_s``, ...), the error rate, the machine
fingerprint and the exact counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 3
TRAIN_SHARE = 0.8
CKPT_REPS = 3
CYCLE_S = 2.5
MAX_BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin BLAS to at most MAX_BLAS_THREADS threads; must run before numpy is imported."""
    n = max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = str(n)
    return n


def import_library():
    """Import tttlab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tttlab", "__init__.py")):
        raise SystemExit(f"perfbench: no tttlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import tttlab
    if os.path.dirname(os.path.dirname(os.path.abspath(tttlab.__file__))) != SRC:
        raise SystemExit(f"perfbench: tttlab was imported from {tttlab.__file__}, not {SRC}")


def load_spec() -> dict:
    with open(SPEC_PATH) as fp:
        return json.load(fp)


# ---------------------------------------------------------------------------
# fingerprint

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int, blas_threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_threads": blas_threads, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "seed": seed}


# ---------------------------------------------------------------------------
# the run

class Checks:
    """Operations attempted and failed; an operation fails if it raises or a check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, failure: str | None, where: str) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{where}: {failure}")

    def error(self, where: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.record(traceback.format_exc(limit=1).strip().splitlines()[-1], where)


def median(xs) -> float:
    return float(statistics.median(xs))


def inject_nan(out):
    """A copy of a step's output whose first gradient holds a NaN."""
    import dataclasses
    import numpy as np
    grads = dict(out.grads)
    name = next(iter(grads))
    grads[name] = grads[name].copy()
    grads[name].flat[0] = np.nan
    return dataclasses.replace(out, grads=grads)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 size: str = "full", fault: str | None = None) -> dict:
    """Run one workload in this process; returns the raw measurements.

    `fault` is for the self-test: "nan_grad" feeds the step checker a gradient
    holding a NaN, "ckpt_flip" flips a byte of every saved checkpoint.
    """
    from tttlab import tensor as T
    from spans import NO_TRACE, Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    setup_s, setup_ms = [], []
    for r in range(SETUP_REPS):
        t = time.perf_counter()
        wl = cls(seed, size, os.path.join(workdir, f"setup{r}"))
        wl.train_step(NO_TRACE)
        wl.eval_batch()
        setup_s.append(time.perf_counter() - t)
        setup_ms.append(wl.setup_ms)
    # Warm-up until the process's memory reaches its steady state, once.
    t = time.perf_counter()
    for _ in range(wl.warmup):
        wl.train_step(NO_TRACE)
    warmup_s = time.perf_counter() - t

    checks = Checks()
    tracer = Tracer() if trace else None
    plain_s, traced_s, aggs, eval_s = [], [], [], []

    def train_one(i: int) -> None:
        traced = tracer is not None and i % 2 == 1
        tr = tracer if traced else NO_TRACE
        out = agg = None
        if traced:
            tracer.begin_step(i)
        try:
            t = time.perf_counter()
            with tr.span("step"):
                out = wl.train_step(tr)
            dt = time.perf_counter() - t
        except Exception:
            checks.error(f"train step {i}")
        finally:
            if traced:
                agg = tracer.end_step()
        if out is None:
            return
        if traced:
            traced_s.append(dt)
            aggs.append(agg)
        else:
            plain_s.append(dt)
        if fault == "nan_grad" and i == 0:
            out = inject_nan(out)
        checks.record(wl.check_step(out), f"train step {i}")

    def eval_one(j: int) -> None:
        try:
            t = time.perf_counter()
            val = wl.eval_batch()
            eval_s.append(time.perf_counter() - t)
            checks.record(wl.check_eval(val), f"eval batch {j}")
        except Exception:
            checks.error(f"eval batch {j}")

    # Training and eval windows alternate over the whole run, so that both
    # sample the same stretch of machine time.
    i = j = 0
    end = time.perf_counter() + seconds
    while i == 0 or time.perf_counter() < end:
        window = min(end, time.perf_counter() + TRAIN_SHARE * CYCLE_S)
        while True:
            train_one(i)
            i += 1
            if time.perf_counter() >= window:
                break
        window = min(end, time.perf_counter() + (1.0 - TRAIN_SHARE) * CYCLE_S)
        while True:
            eval_one(j)
            j += 1
            if time.perf_counter() >= window:
                break

    layer = {}
    if hasattr(wl, "checkpoint_roundtrip"):
        ckpt = []
        for k in range(CKPT_REPS):
            try:
                timing, failure = wl.checkpoint_roundtrip(corrupt=fault == "ckpt_flip")
                ckpt.append(timing)
                checks.record(failure, f"checkpoint round trip {k}")
            except Exception:
                checks.error(f"checkpoint round trip {k}")
        if ckpt:
            layer.update({key: median(c[key] for c in ckpt) for key in ckpt[0]})

    # One more step under the FLOP counter gives the exact counts.
    probe = Tracer(keep_steps=0)
    with T.count_flops() as counter:
        probe.counter = counter
        probe.begin_step(-1)
        try:
            with probe.span("step"):
                out = wl.train_step(probe)
        finally:
            probe_agg = probe.end_step()
    checks.record(wl.check_step(out), "counted step")
    counts = probe.tape_stats()
    roots = [s for s in probe.spans if s.parent is None]
    counts["tensor.fwd_flops"] = (sum(s.flops for s in roots) - sum(
        s.flops for s in probe.spans if s.name == "autodiff.backward"))
    counts["inner.update_flops"] = sum(s.flops for s in probe.spans if s.name == "inner.update")
    counts["inner.update_nodes"] = int(probe_agg.get("inner.update_nodes", 0))

    if trace:
        med = {key: median(a.get(key, 0.0) for a in aggs) for key in aggs[0]} if aggs else {}
        fwd_ms = med.pop("forward_ms", 0.0)
        med.pop("step_ms", None)
        layer.update(med)
        if wl.is_model:
            layer["model.forward_ms"] = fwd_ms
            layer["model.eval_forward_ms"] = 1e3 * median(eval_s)
        for key in setup_ms[0]:
            layer[key] = median(m[key] for m in setup_ms)
        if hasattr(wl, "baselines"):
            layer.update(wl.baselines())
        layer["tensor.fwd_gflop_per_s"] = (counts["tensor.fwd_flops"] / fwd_ms / 1e6
                                           if fwd_ms > 0 else 0.0)
        if plain_s and traced_s:
            base = median(plain_s)
            layer["trace.overhead_ms"] = 1e3 * (median(traced_s) - base)
            layer["trace.overhead_share"] = (median(traced_s) - base) / base
        layer.update(counts)

    return {"setup_s": setup_s, "warmup_s": warmup_s, "plain_s": plain_s,
            "traced_s": traced_s, "eval_s": eval_s, "names": wl.report_names,
            "train_items": wl.train_items,
            "eval_items": wl.eval_items, "checks": checks, "counts": counts, "layer": layer,
            "tracer": tracer}


def end_to_end(raw: dict, import_s: float) -> dict:
    """Medians over the run: the machine drifts, and a median of many steps resists it."""
    import numpy as np
    steps = raw["plain_s"]
    return {
        "setup_s": import_s + median(raw["setup_s"]) + raw["warmup_s"],
        "train_items_per_s": raw["train_items"] / median(steps),
        "eval_items_per_s": raw["eval_items"] / median(raw["eval_s"]),
        "step_ms_p50": 1e3 * median(steps),
        "step_ms_p90": 1e3 * float(np.percentile(steps, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tail_percentile(steps: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it, and its value."""
    import numpy as np
    if len(steps) < 11:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / len(steps)))
    return p, 1e3 * float(np.percentile(steps, p))


def report(e2e: dict, raw: dict) -> list[str]:
    """Human-readable lines: the end-to-end numbers under per-workload names."""
    checks = raw["checks"]
    (train_name, train_unit), (eval_name, eval_unit) = raw["names"]
    n = len(raw["plain_s"])
    lines = [
        f"{train_name:<22} {e2e['train_items_per_s']:14.3f} {train_unit:<6} ({n} untraced steps)",
        f"{eval_name:<22} {e2e['eval_items_per_s']:14.3f} {eval_unit:<6} "
        f"({len(raw['eval_s'])} batches)",
        f"{'setup_s':<22} {e2e['setup_s']:14.4f} s      (median of {SETUP_REPS} set-ups, "
        f"then {raw['warmup_s']:.2f} s of warm-up steps)",
        f"{'step_ms_p50':<22} {e2e['step_ms_p50']:14.3f} ms     ({n} samples)",
        f"{'step_ms_p90':<22} {e2e['step_ms_p90']:14.3f} ms     "
        f"({n} samples, {n - math.ceil(0.9 * n)} beyond)",
    ]
    tail = tail_percentile(raw["plain_s"])
    if tail:
        lines.append(f"{'step_ms_p' + str(tail[0]):<22} {tail[1]:14.3f} ms     "
                     f"(highest percentile with >= 10 of {n} samples beyond)")
    lines += [
        f"{'peak_rss_mb':<22} {e2e['peak_rss_mb']:14.1f} MB",
        f"{'error_rate':<22} {checks.failed / checks.attempted:14.4f}        "
        f"({checks.failed} failed of {checks.attempted} attempted)",
    ]
    lines += [f"check failed: {note}" for note in checks.notes]
    lines.append("counts " + json.dumps(raw["counts"], sort_keys=True))
    return lines


def result_line(spec: dict, values: dict, key: str, checks: Checks) -> str:
    """The result object; a per-layer metric of a layer this workload does not run is 0."""
    metrics = {m["name"]: {"value": values[m["name"]] if key == "end_to_end"
                           else values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[key]}
    return json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                       "failed": checks.failed, "metrics": metrics})


def write_trace(name: str, seed: int, fp: dict, tracer) -> str:
    path = os.path.join(OUT_DIR, f"trace-{name}-s{seed}.json")
    with open(path, "w") as out:
        json.dump({"workload": name, "seed": seed, "fingerprint": fp,
                   "steps": tracer.trace_doc()}, out)
    return path


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        for name in names:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            print(f"== {name}", flush=True)
            subprocess.run(cmd, check=True)
        return 0

    threads = pin_blas_threads()
    import_library()
    import_s = time.perf_counter() - T_START

    fp = fingerprint(args.seed, threads)
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = end_to_end(raw, import_s)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for line in report(e2e, raw):
        print(line)
    if args.trace:
        layer = raw["layer"]
        print(f"tracing overhead {layer.get('trace.overhead_ms', 0.0):.3f} ms per step "
              f"({100 * layer.get('trace.overhead_share', 0.0):.1f}%), unexplained share "
              f"{100 * layer.get('trace.unexplained_share', 0.0):.1f}% of traced step time")
        print("trace written to " + os.path.relpath(
            write_trace(args.workload, args.seed, fp, raw["tracer"]), ROOT))
        print(result_line(spec, layer, "per_layer", raw["checks"]))
    else:
        print(result_line(spec, e2e, "end_to_end", raw["checks"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
