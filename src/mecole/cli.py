"""Command-line entry point.

Subcommands: train, ablate, sparse-eval, gen-sbm, eval.
Exit codes: 0 success, 1 config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .config import ExperimentConfig, apply_overrides, parse_config_file
from .errors import ConfigError, DataError, NumericError
from .graphs import generate_sbm, load_labels, read_lines
from .metrics import clustering_accuracy, nmi
from .training import run_ablation_grid, run_training, sbm_config, \
    sparse_eval, write_grid_csv, write_report

logger = logging.getLogger("mecole")


def _setup_logging():
    level = os.environ.get("MECOLE_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _common_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a single config value (repeatable)")


def _build_config(args):
    values = parse_config_file(args.config) if args.config else {}
    apply_overrides(values, args.set)
    if args.seed is not None:
        values["seed"] = args.seed
    if args.out is not None:
        values["out_dir"] = args.out
    return ExperimentConfig(**values)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="mecole",
        description="Unsupervised node clustering with counterfactual "
                    "contrastive pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("train", "ablate"):
        p = sub.add_parser(name)
        _common_flags(p)

    p = sub.add_parser("sparse-eval")
    _common_flags(p)
    p.add_argument("--fraction", type=float, default=0.3,
                   help="top-degree fraction of nodes to remove")

    p = sub.add_parser("gen-sbm")
    _common_flags(p)

    p = sub.add_parser("eval")
    p.add_argument("--assignments", required=True,
                   help="assignment CSV exported by a training run")
    p.add_argument("--labels", required=True, help="ground-truth label file")
    return parser


def _cmd_train(args):
    cfg = _build_config(args)
    report = run_training(cfg)
    write_report(cfg.out_dir, report)
    print(report.to_json())
    return 0


def _cmd_ablate(args):
    cfg = _build_config(args)
    reports = run_ablation_grid(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_grid_csv(os.path.join(cfg.out_dir, "ablation.csv"), reports)
    for r in reports:
        write_report(cfg.out_dir, r, name=f"metrics_{r.variant}")
        print(f"{r.variant}: accuracy={r.accuracy} error={r.error or '-'}")
    return 0


def _cmd_sparse(args):
    cfg = _build_config(args)
    report = sparse_eval(cfg, args.fraction)
    write_report(cfg.out_dir, report, name="metrics_sparse")
    print(report.to_json())
    return 0


def _cmd_gen_sbm(args):
    cfg = _build_config(args)
    graph, X, labels = generate_sbm(sbm_config(cfg))
    os.makedirs(cfg.out_dir, exist_ok=True)
    np.savetxt(os.path.join(cfg.out_dir, "edges.txt"),
               np.column_stack([graph.u, graph.v]), fmt="%d", delimiter="\t",
               header="generated planted-partition graph")
    np.savetxt(os.path.join(cfg.out_dir, "features.csv"), X, delimiter=",")
    np.savetxt(os.path.join(cfg.out_dir, "labels.txt"), labels, fmt="%d")
    print(f"wrote {graph.n} nodes, {graph.num_edges} edges to {cfg.out_dir}")
    return 0


def _cmd_eval(args):
    pred = []
    lines = read_lines(args.assignments)
    if not lines or not lines[0].startswith("node_id"):
        raise DataError(f"{args.assignments}: not an assignment export")
    for line in lines[1:]:
        parts = line.strip().split(",")
        try:
            pred.append(int(parts[1]))
        except (IndexError, ValueError):
            raise DataError(f"{args.assignments}: malformed row {line!r}")
    truth = load_labels(args.labels)
    pred = np.asarray(pred)
    if len(pred) != len(truth):
        raise DataError("assignment/label length mismatch")
    print(f"accuracy {clustering_accuracy(pred, truth):.4f}")
    print(f"nmi {nmi(pred, truth):.4f}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "ablate": _cmd_ablate,
    "sparse-eval": _cmd_sparse,
    "gen-sbm": _cmd_gen_sbm,
    "eval": _cmd_eval,
}


def main(argv=None):
    _setup_logging()
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        logger.error("data error: %s", exc)
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        logger.error("numeric failure: %s", exc)
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
