"""Command-line entry point.

Subcommands: train, ablate, sparse-eval, gen-sbm, eval.
Exit codes: 0 success, 1 config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys

import numpy as np

from .config import ExperimentConfig, apply_overrides, parse_config_file
from .errors import ConfigError, DataError, NumericError
from .graphs import _data_lines, _parse, generate_sbm, load_labels
from .metrics import clustering_accuracy, nmi
from .training import run_ablation_grid, run_training, sbm_config, \
    sparse_eval, write_grid_csv, write_report


_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    """Log at the `MECOLE_LOG` level (default warn); any other value is a
    config error."""
    value = os.environ.get("MECOLE_LOG", "warn")
    level = _LOG_LEVELS.get(value.lower())
    if level is None:
        raise ConfigError(f"MECOLE_LOG must be one of "
                          f"{', '.join(_LOG_LEVELS)}, not {value!r}")
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _common_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a single config value (repeatable)")


@contextlib.contextmanager
def _writing(out_dir):
    """An `OSError` while creating or writing `out_dir` is a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: "
                          f"{exc.strerror or exc}") from exc


def _build_config(args):
    """The run's config, with its synthetic settings checked and its output
    directory created, so neither fails after the work is done."""
    values = parse_config_file(args.config) if args.config else {}
    apply_overrides(values, args.set)
    if args.seed is not None:
        values["seed"] = args.seed
    if args.out is not None:
        values["out_dir"] = args.out
    cfg = ExperimentConfig(**values)
    if cfg.uses_sbm or args.command == "gen-sbm":
        sbm_config(cfg)
    with _writing(cfg.out_dir):
        os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


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
    with _writing(cfg.out_dir):
        write_report(cfg.out_dir, report)
    print(report.to_json())
    return 0


def _cmd_ablate(args):
    cfg = _build_config(args)
    reports = run_ablation_grid(cfg)
    with _writing(cfg.out_dir):
        write_grid_csv(os.path.join(cfg.out_dir, "ablation.csv"), reports)
        for r in reports:
            write_report(cfg.out_dir, r, name=f"metrics_{r.variant}")
    for r in reports:
        print(f"{r.variant}: accuracy={r.accuracy} error={r.error or '-'}")
    return 0


def _cmd_sparse(args):
    cfg = _build_config(args)
    report = sparse_eval(cfg, args.fraction)
    with _writing(cfg.out_dir):
        write_report(cfg.out_dir, report, name="metrics_sparse")
    print(report.to_json())
    return 0


def _cmd_gen_sbm(args):
    cfg = _build_config(args)
    graph, X, labels = generate_sbm(sbm_config(cfg))
    with _writing(cfg.out_dir):
        np.savetxt(os.path.join(cfg.out_dir, "edges.txt"),
                   np.column_stack([graph.u, graph.v]), fmt="%d",
                   delimiter="\t", header="generated planted-partition graph")
        np.savetxt(os.path.join(cfg.out_dir, "features.csv"), X,
                   delimiter=",")
        np.savetxt(os.path.join(cfg.out_dir, "labels.txt"), labels,
                   fmt="%d")
    print(f"wrote {graph.n} nodes, {graph.num_edges} edges to {cfg.out_dir}")
    return 0


def _export_classes(path):
    """The class column, the second of each row, of an assignment export."""
    rows = _data_lines(path)
    if not rows or not rows[0][1].startswith("node_id"):
        raise DataError(f"{path}: not an assignment export")
    return _parse(path, rows[1:], lambda line: line.split(",")[1:2], int,
                  np.int64, "malformed row {line!r}", width=1,
                  width_error="malformed row {line!r}")


def _cmd_eval(args):
    pred = _export_classes(args.assignments)
    truth = load_labels(args.labels)
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
    args = make_parser().parse_args(argv)
    try:
        _setup_logging()
        # an overflow is reported once, by mecole's own finiteness checks
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
