"""Cluster assignments: modularity-regularized GCN init and per-class
logistic-regression updates on class-dependent features.

The iterative updater deliberately never sees the graph; only the init
stage optimizes a modularity objective.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, NumericError

logger = logging.getLogger("mecole.clustering")

__all__ = [
    "Assignment",
    "ModularityInitConfig",
    "modularity",
    "soft_modularity",
    "init_assignments",
    "init_objective",
    "update_assignments",
]


@dataclass(frozen=True)
class Assignment:
    """Soft class-assignment matrix with a per-node relevance flag."""

    R: np.ndarray       # (n, K), rows on the simplex
    relevant: np.ndarray  # (n,) bool

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.float64)
        if R.ndim != 2 or R.shape[1] < 2:
            raise DataError("assignment matrix must be (n, K) with K >= 2")
        if np.any(R < -1e-9) or np.any(R > 1 + 1e-9):
            raise DataError("assignment entries must lie in [0, 1]")
        if not np.allclose(R.sum(axis=1), 1.0, atol=1e-6):
            raise DataError("assignment rows must sum to 1")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "relevant",
                           np.asarray(self.relevant, dtype=bool))
        if self.relevant.shape != (R.shape[0],):
            raise DataError("relevant flag must have one entry per node")

    @property
    def n(self):
        return self.R.shape[0]

    @property
    def K(self):
        return self.R.shape[1]

    @cached_property
    def hard(self):
        """Argmax class per node, computed once and read-only."""
        hard = self.R.argmax(axis=1)
        hard.flags.writeable = False
        return hard

    def members(self, k, relevant_only=True):
        mask = self.hard == k
        if relevant_only:
            mask &= self.relevant
        return np.flatnonzero(mask)


@dataclass(frozen=True)
class ModularityInitConfig:
    epochs: int = 300
    lr: float = 0.01
    collapse_weight: float = 1.0
    hidden: int = 64

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("init epochs must be >= 1")


def modularity(graph, labels):
    """Newman modularity of a hard labeling (per-cluster aggregate form)."""
    labels = np.asarray(labels)
    if labels.shape != (graph.n,):
        raise DataError("labels must cover all nodes")
    if graph.num_edges == 0:
        raise DataError("modularity undefined on an empty edge set")
    m = graph.w.sum()
    deg = graph.weighted_degrees
    head = labels[graph.u]
    intra_w = np.where(head == labels[graph.v], graph.w, 0.0)
    q = 0.0
    for c in np.unique(labels):
        mask = labels == c
        intra = intra_w[head == c].sum()
        d_c = deg[mask].sum()
        q += intra / m - (d_c / (2 * m)) ** 2
    return float(q)


def soft_modularity(graph, C):
    """(1/2m) tr(C^T B C) with B the modularity matrix."""
    C = np.asarray(C, dtype=np.float64)
    A = graph.adjacency
    m = sum(w for _, _, w in graph.edges)
    deg = graph.weighted_degrees
    ac = A @ C
    dc = deg @ C
    return float(((C * ac).sum() - (dc @ dc) / (2 * m)) / (2 * m))


def init_objective(graph, C, collapse_weight):
    """Differentiable init loss on a soft assignment tensor C: negative
    soft modularity plus the cluster-collapse regularizer."""
    n, K = C.shape
    m = graph.w.sum()
    deg_row = ad.constant(graph.weighted_degrees[None, :])
    ac = ad.spmm(graph.adjacency, C)
    trace = ad.tsum(ad.mul(C, ac))
    dc = ad.matmul(deg_row, C)
    q_soft = ad.div(ad.sub(trace, ad.div(ad.tsum(ad.mul(dc, dc)),
                                         2.0 * m)), 2.0 * m)
    col = ad.tsum(C, axis=0)
    collapse = ad.sub(ad.mul(ad.sqrt(ad.tsum(ad.mul(col, col))),
                             np.sqrt(K) / n), 1.0)
    return ad.add(ad.mul(q_soft, -1.0), ad.mul(collapse, collapse_weight))


def init_assignments(bundle, X, K, cfg: ModularityInitConfig, seed):
    """Soft assignments from a GCN trained on soft modularity plus a
    collapse regularizer; all nodes start relevant.

    With X=None the first layer acts on implicit identity features, i.e.
    a free per-node embedding propagated through the adjacency.
    """
    graph = bundle.primary if hasattr(bundle, "primary") else bundle
    if graph.num_edges == 0:
        raise DataError("cannot initialize assignments on an empty graph")
    if K < 2:
        raise ConfigError("K must be >= 2")
    n = graph.n
    rng = np.random.default_rng(seed)
    a_hat = ad.normalize_adjacency(graph)
    if X is not None:
        X = ad.constant(X)
        w1 = ad.glorot(rng, X.shape[1], cfg.hidden)
    else:
        w1 = ad.glorot(rng, n, cfg.hidden)
    w2 = ad.glorot(rng, cfg.hidden, K)
    opt = ad.Adam([w1, w2], lr=cfg.lr)

    def forward():
        return ad.softmax_rows(ad.gcn([a_hat], X, w1, w2))

    for _ in range(cfg.epochs):
        opt.zero_grad()
        loss = init_objective(graph, forward(), cfg.collapse_weight)
        if not np.isfinite(loss.item()):
            raise NumericError("modularity init diverged (non-finite loss)")
        loss.backward()
        opt.step()

    C = forward().values
    return Assignment(R=C, relevant=np.ones(n, dtype=bool))


def modularity_init_loss(graph, C_values, collapse_weight=1.0):
    """The init objective on a fixed soft assignment (for verification)."""
    n, K = np.asarray(C_values).shape
    C = np.asarray(C_values, dtype=np.float64)
    col = C.sum(axis=0)
    collapse = np.sqrt(K) / n * np.sqrt((col ** 2).sum()) - 1.0
    return -soft_modularity(graph, C) + collapse_weight * collapse


def _fit_logistic(X, y, steps=500, lr=0.5, l2=1e-4):
    """One-vs-rest logistic regression by full-batch gradient descent.

    Zero init keeps the fit deterministic and label-permutation
    equivariant (no RNG involved).
    """
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(steps):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        err = p - y
        gw = X.T @ err / n + l2 * w
        gb = err.mean()
        w -= lr * gw
        b -= lr * gb
    return w, b


def update_assignments(E, prev: Assignment, q, relevance_floor, seed,
                       prev_weights=None, return_weights=False):
    """Self-training step: fit per-class logistic regressors on the most
    confident pseudo-labeled nodes, then re-score every node.

    `prev_weights` carries (w, b) per class across epochs so a class that
    momentarily has no pseudo-labels keeps its previous regressor.
    """
    if not 0.0 < q <= 1.0:
        raise ConfigError("confidence quantile q must lie in (0, 1]")
    hd = E.H_d.values if hasattr(E.H_d, "values") else np.asarray(E.H_d)
    n, K = prev.R.shape
    hard = prev.hard
    weights = list(prev_weights) if prev_weights is not None else [None] * K

    pseudo = []
    for k in range(K):
        members = np.flatnonzero(hard == k)
        if members.size == 0:
            continue
        conf = prev.R[members, k]
        take = max(1, int(np.ceil(q * members.size)))
        pseudo.append(members[np.argsort(-conf, kind="stable")[:take]])
    pseudo = np.sort(np.concatenate(pseudo)) if pseudo else np.array([], int)

    for k in range(K):
        if not np.any(hard[pseudo] == k):
            continue
        y = (hard[pseudo] == k).astype(np.float64)
        weights[k] = _fit_logistic(hd[pseudo], y)

    scores = np.zeros((n, K))
    for k in range(K):
        if weights[k] is None:
            continue  # uniform contribution (score 0)
        w, b = weights[k]
        scores[:, k] = hd @ w + b
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    R = e / e.sum(axis=1, keepdims=True)
    relevant = R.max(axis=1) >= relevance_floor
    out = Assignment(R=R, relevant=relevant)
    if return_weights:
        return out, weights
    return out
