"""Evaluation metrics and the run report container."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError

__all__ = ["clustering_accuracy", "nmi", "MetricsReport"]


def _contingency(pred, truth):
    """Counts of (predicted, true) label pairs over the labels present,
    pred along rows; entries with truth == -1 are unlabeled and
    excluded."""
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
    # dense ids in label order: a monotone remap, so no score moves, and
    # the table is sized by the labels present, not by the largest one
    pred_ids, pred = np.unique(pred, return_inverse=True)
    truth_ids, truth = np.unique(truth, return_inverse=True)
    kp, kt = pred_ids.size, truth_ids.size
    return np.bincount(pred * kt + truth, minlength=kp * kt).reshape(kp, kt)


def clustering_accuracy(pred, truth):
    """Best-permutation agreement fraction (optimal label matching).

    Entries with truth == -1 are treated as unlabeled and excluded.
    """
    confusion = _contingency(pred, truth)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / confusion.sum())


def nmi(pred, truth):
    """Normalized mutual information (arithmetic-mean normalization)."""
    table = _contingency(pred, truth)
    n = table.sum()
    p_pred, p_truth = table.sum(axis=1) / n, table.sum(axis=0) / n
    h_p, h_t = (float(-(p * np.log(p)).sum())
                for p in (p_pred[p_pred > 0], p_truth[p_truth > 0]))
    if h_p == 0.0 or h_t == 0.0:
        return 0.0
    a, b = np.nonzero(table)
    joint = table[a, b] / n
    # a running sum over the cells in row-major order, not a pairwise sum
    mi = np.cumsum(joint * np.log(joint / (p_pred[a] * p_truth[b])))[-1]
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
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
