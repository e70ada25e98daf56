"""The benchmark's workloads: how each makes its inputs from a seed, the
operation it times, and how it checks mecole's outputs.

A workload has four steps. `prepare` does untimed work that must precede
set-up (writing input files). `setup` builds the inputs mecole trains on
and is timed as `setup_s`. `run` is the timed operation (`train_s`).
`check` recomputes the scores apart from mecole and returns
(scores, attempted, failed, errors), where attempted and failed count
trainings or grid cells.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from dataclasses import dataclass

import numpy as np

import checks

# Cora's seven class sizes (2,708 nodes)
CORA_SIZES = (351, 217, 418, 818, 426, 298, 180)


@dataclass(frozen=True)
class SbmSpec:
    block_sizes: tuple
    p_in: float
    p_out: float
    K: int
    floor: float  # accuracy every training must reach
    setup_reps: int  # set-ups timed per run, about a second in all


SBM_SPECS = {
    # 10.3k edges, mean degree 12.9: per-edge work dominates
    "sbm1600": SbmSpec((400,) * 4, 0.025, 0.0025, 4, 0.9, 12),
    # 5.1k edges, edge homophily 0.81, seven clusters: the contrastive
    # pipeline dominates and accuracy sits near 0.8
    "cora_shape": SbmSpec(CORA_SIZES, 0.0064, 0.00033, 7, 0.6, 9),
}

# ablate_files: a noisy 4 x 75 planted partition written to files, with a
# weakly homophilous auxiliary graph; 16 epochs keep one assignment update
ABLATE_SIZES = (75,) * 4
ABLATE_PRIMARY = dict(p_in=0.1, p_out=0.02, noise_sigma=0.8)
ABLATE_AUX = dict(p_in=0.03, p_out=0.015)
ABLATE_AUX_SEED_OFFSET = 1_000_003
ABLATE_SETTINGS = {"K": "4", "knn_k": "5", "epochs": "16",
                   "init_epochs": "100"}
ABLATE_FLOOR = 0.45
ABLATE_SETUP_REPS = 30
# baseline, the seven one-flag variants, the three other discrepancy
# metrics: the cells `mecole ablate` must produce with G_V and G_X present
ABLATE_CELLS = ("baseline", "no_decouple", "neg_uniform", "mlp_predictor",
                "no_cl", "graph_augment", "drop_gv", "drop_gx", "disc_l2",
                "disc_cosine", "disc_l_inf")


def edge_arrays(graph):
    """Endpoint arrays of a mecole graph, each edge once."""
    pairs = np.array([(u, v) for u, v, _ in graph.edges], dtype=np.int64)
    return pairs[:, 0], pairs[:, 1]


def mean_scores(per_run):
    return {k: float(np.mean([s[k] for s in per_run]))
            for k in ("accuracy", "nmi", "modularity")}


class SbmWorkload:
    """One `run_training` call on a generated planted partition with the
    default config."""

    def __init__(self, name, seed, out_dir):
        self.spec = SBM_SPECS[name]
        self.seed = seed
        self.setup_reps = self.spec.setup_reps

    def prepare(self):
        pass

    def setup(self):
        from mecole import graphs, training
        from mecole.graphs import GraphBundle, SBMConfig

        s = self.spec
        graph, X, labels = graphs.generate_sbm(SBMConfig(
            blocks=len(s.block_sizes), block_sizes=s.block_sizes,
            p_in=s.p_in, p_out=s.p_out, seed=self.seed))
        return training.Dataset(bundle=GraphBundle(primary=graph), X=X,
                                labels=labels)

    def run(self, dataset):
        from mecole import training
        from mecole.config import ExperimentConfig
        from mecole.errors import MecoleError

        cfg = ExperimentConfig(K=self.spec.K, seed=self.seed)
        try:
            return cfg, training.run_training(cfg, dataset=dataset)
        except MecoleError as exc:
            return cfg, exc

    def check(self, dataset, result):
        cfg, report = result
        if isinstance(report, Exception):
            return None, 1, 1, []
        u, v = edge_arrays(dataset.bundle.primary)
        losses = [[row[k] for k in ("L1", "L2", "LCE", "L")]
                  for row in report.epoch_losses]
        reported = {"accuracy": report.accuracy, "nmi": report.nmi,
                    "modularity": report.modularity}
        ours, errors = checks.check_training(
            report.final_assignment.hard, report.final_assignment.R, losses,
            reported, dataset.labels, u, v, cfg.epochs, self.spec.floor)
        return ours, 1, 0, errors


class AblateFilesWorkload:
    """`mecole ablate` through `mecole.cli.main`, on input files."""

    setup_reps = ABLATE_SETUP_REPS

    def __init__(self, name, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.input_dir = os.path.join(out_dir, "inputs")
        self.cells_dir = None  # a fresh directory per operation
        self.ops = 0
        self.paths = {
            "edge_path": os.path.join(self.input_dir, "edges.txt"),
            "feature_path": os.path.join(self.input_dir, "features.csv"),
            "label_path": os.path.join(self.input_dir, "labels.txt"),
            "aux_edge_path": os.path.join(self.input_dir, "aux_edges.txt"),
        }

    def _settings(self):
        return {**self.paths, **ABLATE_SETTINGS}

    def prepare(self):
        """Write the primary and auxiliary edge lists, features, labels."""
        from mecole import graphs
        from mecole.graphs import SBMConfig

        blocks = len(ABLATE_SIZES)
        graph, X, labels = graphs.generate_sbm(SBMConfig(
            blocks=blocks, block_sizes=ABLATE_SIZES, seed=self.seed,
            **ABLATE_PRIMARY))
        aux, _, _ = graphs.generate_sbm(SBMConfig(
            blocks=blocks, block_sizes=ABLATE_SIZES,
            seed=self.seed + ABLATE_AUX_SEED_OFFSET, **ABLATE_AUX))
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.input_dir)
        self.edges = edge_arrays(graph)
        self.labels = labels
        _write_edges(self.paths["edge_path"], *self.edges)
        _write_edges(self.paths["aux_edge_path"], *edge_arrays(aux))
        np.savetxt(self.paths["feature_path"], X, delimiter=",",
                   fmt="%.17g")
        np.savetxt(self.paths["label_path"], labels, fmt="%d")

    def setup(self):
        from mecole import training
        from mecole.config import ExperimentConfig, apply_overrides

        values = apply_overrides({}, [f"{k}={v}" for k, v in
                                      self._settings().items()])
        return training.load_dataset(ExperimentConfig(seed=self.seed,
                                                      **values))

    def run(self, dataset):
        from mecole import cli

        self.ops += 1
        self.cells_dir = os.path.join(self.out_dir, f"cells{self.ops}")
        argv = ["ablate", "--seed", str(self.seed), "--out", self.cells_dir]
        for k, v in self._settings().items():
            argv += ["--set", f"{k}={v}"]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, dataset, rc):
        if rc != 0:
            return None, len(ABLATE_CELLS), 0, [f"mecole ablate exited {rc}"]
        epochs = int(ABLATE_SETTINGS["epochs"])
        per_cell, failed, errors = [], 0, []
        for variant in ABLATE_CELLS:
            ours, cell_failed, errs = checks.check_cell_files(
                self.cells_dir, variant, self.labels, *self.edges, epochs,
                ABLATE_FLOOR)
            failed += cell_failed
            errors += errs
            if ours is not None:
                per_cell.append(ours)
        grid = os.path.join(self.cells_dir, "ablation.csv")
        if not os.path.exists(grid):
            errors.append("ablation.csv missing")
        if not per_cell:
            return None, len(ABLATE_CELLS), failed, errors
        return mean_scores(per_cell), len(ABLATE_CELLS), failed, errors


def _write_edges(path, u, v):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{a}\t{b}\n" for a, b in zip(u.tolist(), v.tolist()))


WORKLOADS = {"sbm1600": SbmWorkload, "cora_shape": SbmWorkload,
             "ablate_files": AblateFilesWorkload}
