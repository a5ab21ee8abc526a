"""Command-line entry points: train, ablate, bench, gradcheck, lossreport."""

from __future__ import annotations

import argparse
import json
import os

from .harness import (RunConfig, ablation_cells, cmd_ablate, cmd_bench, cmd_gradcheck,
                      cmd_lossreport, cmd_train)


_COMMON = {"--seed": {"type": int}, "--out": {"dest": "out_dir"}, "--threads": {"type": int}}


def _add_common(p: argparse.ArgumentParser, *flags: str):
    """--config, then those of --seed, --out and --threads that the subcommand reads."""
    p.add_argument("--config", help="JSON file of RunConfig fields")
    for flag in flags:
        p.add_argument(flag, **_COMMON[flag])


def _lengths(arg: str) -> tuple[int, ...]:
    try:
        lengths = tuple(int(n) for n in arg.split(","))
    except ValueError:
        lengths = ()
    if not lengths or min(lengths) < 1:
        raise argparse.ArgumentTypeError(f"{arg!r} is not a comma-separated list of "
                                         "positive integers")
    return lengths


def _at_least(lo: int):
    def count(arg: str) -> int:
        try:
            n = int(arg)
        except ValueError:
            n = lo - 1
        if n < lo:
            raise argparse.ArgumentTypeError(f"{arg!r} is not an integer of at least {lo}")
        return n
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tttlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model, emit per-epoch CSV + checkpoint")
    _add_common(p, "--seed", "--out")
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
    _add_common(p, "--seed", "--out", "--threads")
    p.add_argument("--grid", help="JSON file or inline JSON of grid axes")

    p = sub.add_parser("bench", help="wall-time/memory scaling of ttt vs softmax")
    _add_common(p, "--seed", "--out")
    p.add_argument("--lengths", type=_lengths, default="256,512,1024,2048,4096,8192")
    p.add_argument("--reps", type=_at_least(1), default=9)
    p.add_argument("--warmup", type=_at_least(0), default=3)

    # gradcheck and lossreport read one setting each, so they take no --config
    p = sub.add_parser("gradcheck", help="finite-difference check of the full matrix")
    p.add_argument("--threads", type=_at_least(1), default=min(8, os.cpu_count() or 1))

    p = sub.add_parser("lossreport", help="mixed second derivatives vs finite differences")
    p.add_argument("--seed", type=_at_least(0), default=0)
    return parser


def _runconfig(args) -> RunConfig:
    doc = {}
    if args.config:
        with open(args.config) as fp:
            doc = json.load(fp)
        if not isinstance(doc, dict):
            raise ValueError(f"--config {args.config} holds no JSON object of RunConfig fields")
    # every parsed argument named after a RunConfig field overrides the file, `command`
    # too, before the merged fields are validated
    doc.update({name: value for name, value in vars(args).items()
                if name in RunConfig.__dataclass_fields__ and value is not None})
    return RunConfig.from_dict(doc)


def _ablation_grid(arg: str | None) -> dict | None:
    """The --grid axes, inline JSON or a JSON file; None keeps the default grid."""
    if not arg:
        return None
    try:
        return json.loads(arg)
    except json.JSONDecodeError:
        with open(arg) as fp:
            return json.load(fp)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gradcheck":
        report = cmd_gradcheck(RunConfig(command="gradcheck", threads=args.threads))
        if report["failures"]:
            print(f"{len(report['failures'])} cells FAILED at tol {report['tol']}")
            return 1
        print(f"all {len(report['cells'])} cells passed at tol {report['tol']}")
        return 0
    if args.command == "lossreport":
        report = cmd_lossreport(seed=args.seed)
        if report["failures"]:
            print(f"mismatches at tol {report['tol']}: {report['failures']}")
            return 1
        print(f"all {len(report['rows'])} losses matched at tol {report['tol']}")
        return 0
    try:
        rc = _runconfig(args)
    except ValueError as e:
        parser.error(str(e))
    if args.command == "train":
        report = cmd_train(rc)
        print(f"final_acc={report['final_acc']:.4f} csv={report['csv']} "
              f"checkpoint={report['checkpoint']}")
        return 3 if report["diverged"] else 0
    if args.command == "ablate":
        try:
            grid = _ablation_grid(args.grid)
            ablation_cells(rc, grid)        # a bad grid is refused before any cell runs
        except (OSError, ValueError) as e:
            parser.error(str(e))
        report = cmd_ablate(rc, grid)
        print(f"wrote {len(report['rows'])} cells to {report['csv']}")
        return 0
    report = cmd_bench(rc, lengths=args.lengths, reps=args.reps, warmup=args.warmup)
    print(f"wrote {len(report['rows'])} rows to {report['csv']}")
    return 0
