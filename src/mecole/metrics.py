"""Evaluation metrics and the run report container."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError

__all__ = ["clustering_accuracy", "nmi", "MetricsReport"]


def clustering_accuracy(pred, truth):
    """Best-permutation agreement fraction (optimal label matching).

    Entries with truth == -1 are treated as unlabeled and excluded.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DataError("prediction/truth length mismatch")
    keep = truth >= 0
    pred, truth = pred[keep], truth[keep]
    if pred.size == 0:
        raise DataError("no labeled nodes to evaluate")
    if pred.min() < 0:
        raise DataError("predicted cluster ids must be >= 0")
    k = int(max(pred.max(), truth.max())) + 1
    confusion = np.bincount(pred * k + truth, minlength=k * k).reshape(k, k)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / pred.size)


def nmi(pred, truth):
    """Normalized mutual information (arithmetic-mean normalization)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DataError("prediction/truth length mismatch")
    keep = truth >= 0
    pred, truth = pred[keep], truth[keep]
    n = pred.size
    if n == 0:
        raise DataError("no labeled nodes to evaluate")

    def entropy(labels):
        _, counts = np.unique(labels, return_counts=True)
        p = counts / n
        return float(-(p * np.log(p)).sum())

    h_p, h_t = entropy(pred), entropy(truth)
    if h_p == 0.0 or h_t == 0.0:
        return 0.0
    mi = 0.0
    for a in np.unique(pred):
        for b in np.unique(truth):
            joint = np.sum((pred == a) & (truth == b)) / n
            if joint > 0:
                pa = np.sum(pred == a) / n
                pb = np.sum(truth == b) / n
                mi += joint * np.log(joint / (pa * pb))
    return float(mi / ((h_p + h_t) / 2.0))


@dataclass
class MetricsReport:
    """Full record of one run: losses per epoch plus final evaluation."""

    seed: int
    config: dict
    epoch_losses: list = field(default_factory=list)  # dicts: L1,L2,LCE,L
    accuracy: float | None = None
    nmi: float | None = None
    modularity: float | None = None
    init_accuracy: float | None = None
    wall_clock_s: float = 0.0
    variant: str = "baseline"
    error: str | None = None

    def to_dict(self):
        return {
            "variant": self.variant,
            "seed": self.seed,
            "accuracy": self.accuracy,
            "nmi": self.nmi,
            "modularity": self.modularity,
            "init_accuracy": self.init_accuracy,
            "wall_clock_s": self.wall_clock_s,
            "epoch_losses": self.epoch_losses,
            "config": self.config,
            "error": self.error,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
