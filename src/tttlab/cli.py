"""Command-line entry points: train, ablate, bench, gradcheck, lossreport."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (RunConfig, cmd_ablate, cmd_bench, cmd_gradcheck,
                      cmd_lossreport, cmd_train)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file of RunConfig fields")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--threads", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tttlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model, emit per-epoch CSV + checkpoint")
    _add_common(p)
    p.add_argument("--task", choices=["recall", "cifar"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--train-size", dest="train_size", type=int)
    p.add_argument("--val-size", dest="val_size", type=int)
    p.add_argument("--data", dest="data_path")
    p.add_argument("--inner-loss", dest="inner_loss")
    p.add_argument("--inner-lr", dest="inner_lr", type=float)
    p.add_argument("--inner-epochs", dest="inner_epochs", type=int)
    p.add_argument("--inner-parts", dest="inner_parts", type=int)

    p = sub.add_parser("ablate", help="cross-product grid of desk-scale trains")
    _add_common(p)
    p.add_argument("--grid", help="JSON file or inline JSON of grid axes")

    p = sub.add_parser("bench", help="wall-time/memory scaling of ttt vs softmax")
    _add_common(p)
    p.add_argument("--lengths", default="256,512,1024,2048,4096,8192")
    p.add_argument("--reps", type=int, default=9)
    p.add_argument("--warmup", type=int, default=3)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full matrix")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("lossreport", help="mixed second derivatives vs finite differences")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-5)
    return parser


def _runconfig(args) -> RunConfig:
    doc = {}
    if getattr(args, "config", None):
        with open(args.config) as fp:
            doc = json.load(fp)
    if args.command == "gradcheck":
        doc.setdefault("threads", min(8, os.cpu_count() or 1))
    rc = RunConfig.from_dict(doc)
    rc.command = args.command
    for name in ("seed", "out_dir", "threads", "task", "epochs", "batch_size",
                 "train_size", "val_size", "data_path", "inner_loss", "inner_lr",
                 "inner_epochs", "inner_parts"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(rc, name, value)
    return rc.validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rc = _runconfig(args)
    if args.command == "train":
        report = cmd_train(rc)
        print(f"final_acc={report['final_acc']:.4f} csv={report['csv']} "
              f"checkpoint={report['checkpoint']}")
        return 3 if report["diverged"] else 0
    if args.command == "ablate":
        grid = None
        if args.grid:
            try:
                grid = json.loads(args.grid)
            except json.JSONDecodeError:
                with open(args.grid) as fp:
                    grid = json.load(fp)
        report = cmd_ablate(rc, grid)
        print(f"wrote {len(report['rows'])} cells to {report['csv']}")
        return 0
    if args.command == "bench":
        lengths = tuple(int(n) for n in args.lengths.split(","))
        report = cmd_bench(rc, lengths=lengths, reps=args.reps, warmup=args.warmup)
        print(f"wrote {len(report['rows'])} rows to {report['csv']}")
        return 0
    if args.command == "gradcheck":
        report = cmd_gradcheck(rc, tol=args.tol)
        if report["failures"]:
            print(f"{len(report['failures'])} cells FAILED at tol {args.tol}")
            return 1
        print(f"all {len(report['cells'])} cells passed at tol {args.tol}")
        return 0
    if args.command == "lossreport":
        report = cmd_lossreport(seed=rc.seed, tol=args.tol)
        if report["failures"]:
            print(f"mismatches: {report['failures']}")
            return 1
        return 0
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
