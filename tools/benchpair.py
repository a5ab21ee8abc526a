"""Paired benchmark runs of a change against its parent revision.

    python3 tools/benchpair.py --workload cifar_train --pairs 10 --parent HEAD~1 --change HEAD
    python3 tools/benchpair.py --table BENCH_cifar_train.json

Exports both revisions with `git archive` into sibling directories of one
temporary directory, so neither side runs from the repository checkout. Each
pair runs both copies' own `perfbench/run.py --workload W --seed S --trace 0`
on the same seed, one after the other, for the benchmark's own `run_seconds`:
odd pairs run the parent first, even pairs the change. Pair i uses seed
100 + i, clear of the seeds used while developing (1 and the golden test's
11). Each run's last stdout line is its JSON result.

Writes `BENCH_<workload>.json` at the repository root: perfbench's machine
fingerprint (numpy, BLAS name and version, the BLAS thread count it pinned,
CPU and CPU count), both revisions with the tree hash of their `src/`, the
seeds, every pair's end-to-end metrics and `failed` counts and, per metric,
each side's median and quartiles and the number of pairs the change wins
(ties count for neither side). Prints the pair table; `--table` prints it
again from a written file.

`--change` defaults to the working tree: its tracked files, staged new files
included, as `git stash create` records them, or HEAD when nothing differs.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def revision(rev: str | None) -> dict:
    """A side's commit and the tree hash of its src/; None is the working tree."""
    if rev is None:
        rev = git("stash", "create") or "HEAD"
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    return {"rev": sha, "src_tree": git("rev-parse", f"{sha}:src")}


def export(sha: str, dest: str) -> None:
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def parse_run(stdout: str) -> dict:
    """The end-to-end values, failed count and fingerprint of one run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    fp = next(json.loads(line[len("fingerprint "):]) for line in lines
              if line.startswith("fingerprint "))
    fp.pop("seed", None)
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"],
            "fingerprint": fp}


def run_side(copy: str, workload: str, seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchpair: {copy} seed {seed} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return parse_run(proc.stdout)


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default percentile)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for m in spec:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        doc = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for side in SIDES:
            vals = [p[side]["metrics"][name] for p in pairs]
            doc[side] = {"median": quantile(vals, 0.5), "q1": quantile(vals, 0.25),
                         "q3": quantile(vals, 0.75)}
        doc["change_wins"] = sum(
            sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0
            for p in pairs)
        out[name] = doc
    return out


def table(doc: dict) -> str:
    """The pair table: one row per pair, then medians, parent IQR and wins per metric."""
    names = list(doc["summary"])
    pairs = doc["pairs"]
    seeds = [p["seed"] for p in pairs]
    lines = [f"{doc['workload']}: {len(pairs)} pairs of {doc['seconds']:g} s runs, seeds "
             f"{seeds[0]}-{seeds[-1]}, parent {doc['parent']['rev'][:7]} -> change "
             f"{doc['change']['rev'][:7]}, parent / change per pair",
             f"{'pair':<5}{'seed':<6}{'first':<8}{'failed':<8}"
             + "".join(f"{n:>24}" for n in names)]
    for i, p in enumerate(pairs, 1):
        failed = f"{p['parent']['failed']}/{p['change']['failed']}"
        cells = "".join(f"{p['parent']['metrics'][n]:>11.4g} / {p['change']['metrics'][n]:<10.4g}"
                        for n in names)
        lines.append(f"{i:<5}{p['seed']:<6}{p['first']:<8}{failed:<8}{cells}")
    lines.append(f"{'metric':<20}{'parent median':>15}{'change median':>15}"
                 f"{'parent IQR':>13}{'change IQR':>13}{'change':>9}{'wins':>6}")
    for n, s in doc["summary"].items():
        pa, ch = s["parent"], s["change"]
        rel = (ch["median"] - pa["median"]) / pa["median"] if pa["median"] else 0.0
        lines.append(f"{n:<20}{pa['median']:>15.4g}{ch['median']:>15.4g}"
                     f"{pa['q3'] - pa['q1']:>13.3g}{ch['q3'] - ch['q1']:>13.3g}"
                     f"{rel:>+9.1%}{s['change_wins']:>3}/{len(pairs)}")
    return "\n".join(lines)


def run_pairs(workload: str, parent: dict, change: dict, n_pairs: int, workdir: str) -> dict:
    copies = {side: os.path.join(workdir, side) for side in SIDES}
    export(parent["rev"], copies["parent"])
    export(change["rev"], copies["change"])
    with open(os.path.join(copies["change"], "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    pairs, fingerprint = [], None
    for i in range(1, n_pairs + 1):
        seed = 100 + i
        order = SIDES if i % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            res = run_side(copies[side], workload, seed)
            fp = res.pop("fingerprint")
            if fingerprint is None:
                fingerprint = fp
            elif fp != fingerprint:
                raise SystemExit(f"benchpair: the machine fingerprint changed between runs: "
                                 f"{fingerprint} then {fp}")
            pair[side] = res
            print(f"pair {i} seed {seed} {side}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in res["metrics"].items())
                  + f" failed={res['failed']}", flush=True)
        pairs.append(pair)
    return {"workload": workload, "seconds": spec["run_seconds"], "fingerprint": fingerprint,
            "parent": parent, "change": change, "seeds": [p["seed"] for p in pairs],
            "pairs": pairs, "summary": summarize(pairs, spec["end_to_end"])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--change", help="a revision; the working tree if omitted")
    ap.add_argument("--table", metavar="BENCH_JSON", help="print a written file's table")
    args = ap.parse_args(argv)
    if args.table:
        with open(args.table) as fp:
            print(table(json.load(fp)))
        return 0
    if not args.workload or args.pairs < 1:
        ap.error("--workload and --pairs >= 1 are required unless --table is given")
    parent, change = revision(args.parent), revision(args.change)
    workdir = tempfile.mkdtemp(prefix="benchpair-")
    try:
        doc = run_pairs(args.workload, parent, change, args.pairs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fp:
        json.dump(doc, fp, indent=1)
        fp.write("\n")
    print(table(doc))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
