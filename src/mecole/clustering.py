"""Cluster assignments: modularity-regularized GCN init and one-vs-rest
logistic-probe updates on class-dependent features.

A class's members are the nodes whose hard (argmax) label it is. The
iterative updater deliberately never sees the graph; only the init stage
optimizes a modularity objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, NumericError

__all__ = [
    "Assignment",
    "modularity",
    "soft_modularity",
    "init_assignments",
    "init_objective",
    "modularity_init_loss",
    "update_assignments",
]

# the modularity init computes in this dtype, with float64 master weights
INIT_DTYPE = np.float32


@dataclass(frozen=True)
class Assignment:
    """Soft class-assignment matrix; class k's members are the nodes whose
    hard label is k.

    `R` is a read-only copy of what was passed in, so one assignment can be
    shared (the ablation grid's init) without a holder changing it under
    another; an unpickled copy's is read-only too.
    """

    R: np.ndarray       # (n, K), rows on the simplex

    def __post_init__(self):
        R = np.array(self.R, dtype=np.float64)
        if R.ndim != 2 or R.shape[1] < 2:
            raise DataError("assignment matrix must be (n, K) with K >= 2")
        if np.any(R < -1e-9) or np.any(R > 1 + 1e-9):
            raise DataError("assignment entries must lie in [0, 1]")
        if not np.allclose(R.sum(axis=1), 1.0, atol=1e-6):
            raise DataError("assignment rows must sum to 1")
        R.flags.writeable = False
        object.__setattr__(self, "R", R)

    def __reduce__(self):
        # rebuilt through __init__ (an ablation cell's report comes back
        # from its worker pickled), so `R` is read-only again
        return Assignment, (self.R,)

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

    @cached_property
    def classes(self):
        """Per class k, the ascending ids of the nodes whose hard label is
        k (its members), built once and read-only."""
        groups = tuple(np.flatnonzero(self.hard == k) for k in range(self.K))
        for group in groups:
            group.flags.writeable = False
        return groups

    @cached_property
    def opposing(self):
        """Per class k, the ascending ids of the nodes whose hard label is
        not k (the donor pool of k's anchors), built once and read-only."""
        pools = tuple(np.flatnonzero(self.hard != k) for k in range(self.K))
        for pool in pools:
            pool.flags.writeable = False
        return pools


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
    soft modularity plus the cluster-collapse regularizer. `init_assignments`
    trains on a hand-written gradient of it that the tests pin to this."""
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


def init_assignments(graph, X, cfg):
    """Soft assignments from a GCN trained on soft modularity plus a
    collapse regularizer.

    C = softmax(`autodiff.gcn_arrays`), with Â X computed once; with
    X=None, W1 is a free per-node embedding. Each epoch writes out by hand
    only dL/dC, the gradient of `init_objective` at C, with the tape's NumPy
    operations in the tape's order, and the GCN's backward takes it to W1
    and W2. It computes in `INIT_DTYPE` (float32) with float64 master
    weights, as in mixed-precision training (Micikevicius et al., ICLR
    2018): the graph arrays and scalar factors are cast once, the GCN casts
    W1 and W2 down, their gradients are cast up, and Adam steps in float64.
    `R` is float64. At `INIT_DTYPE = np.float64` the gradient equals what
    `backward()` would give, bit for bit.

    Of the run's `ExperimentConfig` it reads `K`, `init_epochs`, `init_lr`,
    `collapse_weight`, `hidden` and `seed`, which the config has checked.
    """
    if graph.num_edges == 0:
        raise DataError("cannot initialize assignments on an empty graph")
    dt = INIT_DTYPE
    n, K, collapse_weight = graph.n, cfg.K, dt(cfg.collapse_weight)
    rng = np.random.default_rng(cfg.seed)
    a_hat = ad.normalize_adjacency(graph)
    a_hats = [a_hat.astype(dt, copy=False)]
    xs = None if X is None else [(a_hat @ X).astype(dt, copy=False)]
    w1 = ad.glorot(rng, n if X is None else X.shape[1], cfg.hidden)
    w2 = ad.glorot(rng, cfg.hidden, K)
    opt = ad.Adam([w1, w2], lr=cfg.init_lr)
    A = graph.adjacency.astype(dt, copy=False)
    deg_row = graph.weighted_degrees[None, :].astype(dt, copy=False)
    two_m = dt(2.0 * graph.w.sum())
    collapse_scale = dt(np.sqrt(K) / n)

    def forward():  # C and the GCN's backward
        out, backward = ad.gcn_arrays(
            a_hats, xs, w1, w2, None,
            "modularity init diverged (non-finite layer)")
        return ad.softmax_array(out), backward

    for _ in range(cfg.init_epochs):
        C, backward = forward()
        ac = A @ C
        dc = deg_row @ C
        col = C.sum(axis=0, keepdims=True)
        norm = np.sqrt((col * col).sum(keepdims=True))
        q_soft = ((C * ac).sum(keepdims=True)
                  - (dc * dc).sum(keepdims=True) / two_m) / two_m
        loss = q_soft * -1.0 + (norm * collapse_scale - 1.0) * collapse_weight
        if not np.isfinite(loss).all():
            raise NumericError("modularity init diverged (non-finite loss)")

        # dL/dC: the collapse term, the degree term, then the two terms of
        # tr(Cᵀ A C), added in the order the tape's backward adds them (A
        # is exactly symmetric, indices sorted: A @ Y has Aᵀ @ Y's bits)
        g_trace = -1.0 / two_m
        g_col = collapse_weight * collapse_scale * 0.5 / norm * col
        g_dc = -g_trace / two_m * dc
        g_c = g_col + g_col + deg_row.T @ (g_dc + g_dc)
        g_c += g_trace * ac
        g_c += A @ (g_trace * C)
        # Adam's state and the master weights stay float64
        for w, g in backward(ad._softmax_back(C, g_c)):
            w.grad = g.astype(np.float64, copy=False)
        opt.step()
    R = forward()[0]
    if not np.isfinite(R).all():
        raise NumericError("modularity init diverged (non-finite assignment)")
    return Assignment(R=R)


def modularity_init_loss(graph, C_values, collapse_weight=1.0):
    """The init objective on a fixed soft assignment (for verification)."""
    n, K = np.asarray(C_values).shape
    C = np.asarray(C_values, dtype=np.float64)
    col = C.sum(axis=0)
    collapse = np.sqrt(K) / n * np.sqrt((col ** 2).sum()) - 1.0
    return -soft_modularity(graph, C) + collapse_weight * collapse


def _fit_logistic(X, Y, steps=500, lr=0.5, l2=1e-4):
    """One-vs-rest logistic regression by full-batch gradient descent: one
    probe per column of the n x K 0/1 matrix `Y`, all fit together.

    Returns `(W, b)` of shapes d x K and K. Zero init keeps the fit
    deterministic and label-permutation equivariant (no RNG involved).
    """
    n, d = X.shape
    Y = Y.astype(np.float64)
    W = np.zeros((d, Y.shape[1]))
    b = np.zeros(Y.shape[1])
    err = np.empty_like(Y)
    for _ in range(steps):
        ad.sigmoid_array(X @ W + b, out=err)
        err -= Y
        W -= lr * (X.T @ err / n + l2 * W)
        b -= lr * err.sum(axis=0) / n
    return W, b


def update_assignments(E, prev: Assignment, q, prev_weights=None):
    """Self-training step: fit one-vs-rest logistic probes on the most
    confident pseudo-labeled nodes, then re-score every node.

    Returns the new `Assignment` and the probes `(W, b)`, of shapes d x K
    and K. Passed back as `prev_weights`, they let a class that momentarily
    has no pseudo-labels keep its previous probe; a class that never had
    one keeps a zero probe, which scores every node 0.
    """
    if not 0.0 < q <= 1.0:
        raise ConfigError("confidence quantile q must lie in (0, 1]")
    pseudo = []
    for k, members in enumerate(prev.classes):  # an empty class adds none
        conf = prev.R[members, k]
        take = max(1, int(np.ceil(q * members.size)))
        pseudo.append(members[np.argsort(-conf, kind="stable")[:take]])
    pseudo = np.sort(np.concatenate(pseudo))

    Y = prev.hard[pseudo, None] == np.arange(prev.K)
    W, b = _fit_logistic(E.hd[pseudo], Y)
    present = Y.any(axis=0)
    W_prev, b_prev = prev_weights or (0.0, 0.0)
    W = np.where(present, W, W_prev)
    b = np.where(present, b, b_prev)
    R = ad.softmax_array(E.hd @ W + b)
    return Assignment(R=R), (W, b)
