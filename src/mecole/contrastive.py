"""Anchor selection, counterfactual virtual-node synthesis, hard-negative
sampling, and the contrastive loss over class-dependent embeddings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .decoupling import predict_links_against
from .errors import ConfigError, DataError, NumericError

logger = logging.getLogger("mecole.contrastive")

__all__ = [
    "VirtualNode",
    "ContrastiveBatch",
    "sample_anchors",
    "synthesize_virtual_node",
    "sample_negatives",
    "sample_positives",
    "contrastive_loss",
]


@dataclass(frozen=True)
class VirtualNode:
    """Synthesized embedding pair: anchor's invariant features with
    class-dependent dimensions partially swapped in from a donor node."""

    h_d: np.ndarray
    h_o: np.ndarray
    anchor: int
    donor: int
    mask: np.ndarray  # bool per class-dependent dim; True = donor value


@dataclass(frozen=True)
class ContrastiveBatch:
    anchor: int
    positives: np.ndarray
    pos_p: np.ndarray
    negatives: np.ndarray
    neg_p: np.ndarray

    def __post_init__(self):
        if len(self.positives) < 1 or len(self.negatives) < 1:
            raise DataError("batch needs at least one positive and negative")
        for p in (self.pos_p, self.neg_p):
            if abs(float(np.sum(p)) - 1.0) > 1e-9:
                raise DataError("sampling probabilities must sum to 1")


def sample_anchors(assignment, per_class, rng):
    """Boundary-favoring anchor sample: within each class, weight members
    by exp(-r^2 / (2 s^2)) so low-confidence nodes are picked more often."""
    if per_class < 1:
        raise ConfigError("per_class must be >= 1")
    anchors = []
    for k in range(assignment.K):
        members = assignment.members(k)
        if members.size == 0:
            continue
        if members.size <= per_class:
            anchors.extend(members.tolist())
            continue
        p = _boundary_weights(assignment.R[members, k])
        chosen = rng.choice(members, size=per_class, replace=False, p=p)
        anchors.extend(int(c) for c in chosen)
    return anchors


def _boundary_weights(r):
    """Normalized exp(-r^2 / 2s^2) weights, shifted to avoid underflow."""
    s = max(float(r.std()), 1e-3)
    expo = -r ** 2 / (2 * s ** 2)
    w = np.exp(expo - expo.max()) + 1e-12  # floor keeps all nodes drawable
    return w / w.sum()


def anchor_weights(assignment, k):
    """Closed-form selection weights for class k (exposed for tests)."""
    members = assignment.members(k)
    return members, _boundary_weights(assignment.R[members, k])


def synthesize_virtual_node(v, assignment, E, p_ce, rng):
    """Blend the anchor's class-dependent dims toward a donor drawn
    uniformly from the opposing classes; invariant dims stay the anchor's."""
    if not 0.0 < p_ce <= 1.0:
        raise ConfigError("p_ce must lie in (0, 1]")
    hard = assignment.hard
    opposing = np.flatnonzero(hard != hard[v])
    if opposing.size == 0:
        raise DataError("no opposing class to draw a donor from")
    donor = int(rng.choice(opposing))
    dim_d = E.hd.shape[1]
    mask = rng.random(dim_d) < p_ce
    while not mask.any():
        mask = rng.random(dim_d) < p_ce
    h_d = np.where(mask, E.hd[donor], E.hd[v])
    return VirtualNode(h_d=h_d, h_o=E.ho[v].copy(), anchor=int(v),
                       donor=donor, mask=mask)


def _weighted_draw_without_replacement(weights, m, rng):
    """Positions of `m` sequential weighted draws without replacement; the
    first draw is exactly proportional to the weights.

    Each draw is what `rng.choice(len(w), p=w / w.sum())` does over the
    weights `w` still left, with its uniforms drawn up front, so the picks
    and the generator's end state are those of a loop of `choice` calls.
    """
    w = np.asarray(weights, dtype=np.float64)
    left = list(range(w.size))
    picks = []
    for u in rng.random(m).tolist():
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        i = int(cdf.searchsorted(u, side="right"))
        picks.append(left.pop(i))
        w = np.concatenate((w[:i], w[i + 1:]))
    return np.array(picks, dtype=np.int64)


def _top_stable(keys, c):
    """`np.argsort(keys, kind="stable")[:c]` without sorting every key:
    ties at the boundary still go to the lowest index."""
    if c < keys.size:
        kth = np.partition(keys, c - 1)[c - 1]
        idx = np.flatnonzero(keys <= kth)
    else:
        idx = np.arange(keys.size)
    return idx[np.argsort(keys[idx], kind="stable")[:c]]


def sample_negatives(virt, E, graph, m, rng, pool_factor=10, uniform=False):
    """Hard negatives: the virtual node's likeliest interaction partners
    outside the anchor's neighborhood, drawn proportionally to Z."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    if pool_factor < 1:
        raise ConfigError("pool_factor must be >= 1")
    candidates = graph.non_neighbors(virt.anchor)
    if candidates.size == 0:
        raise DataError("no candidate negatives: anchor neighborhood is full")
    if uniform:
        # ablation: any non-neighbor, no hardness ranking
        take = min(m, candidates.size)
        chosen = np.sort(rng.choice(candidates, size=take, replace=False))
        return chosen, np.full(take, 1.0 / take)
    z = predict_links_against(virt.h_d, virt.h_o, E)[candidates]
    c = min(pool_factor * m, candidates.size)
    pool_idx = _top_stable(-z, c)
    pool = candidates[pool_idx]
    pool_z = z[pool_idx]
    # scores are products of two clipped sigmoids and can underflow to 0;
    # a draw needs m of them above 0, and the probabilities need one
    need = m if pool.size > m else 1
    nonzero = np.count_nonzero(pool_z)
    if nonzero < need:
        raise NumericError(
            f"hard-negative pool of anchor {virt.anchor} has {nonzero} "
            f"nonzero scores; the draw needs {need}")
    if pool.size <= m:
        pick = np.arange(pool.size)
    else:
        pick = _weighted_draw_without_replacement(pool_z, m, rng)
    zc = pool_z[pick]
    return pool[pick], zc / zc.sum()


def sample_positives(v, graph, count, rng):
    """Uniform draws from the anchor's 1-hop neighborhood."""
    nbrs = graph.neighbors(v)
    if nbrs.size == 0:
        raise DataError(f"anchor {v} has no neighbors to sample positives")
    take = min(count, nbrs.size)
    chosen = rng.choice(nbrs, size=take, replace=False)
    return np.asarray(sorted(int(u) for u in chosen)), \
        np.full(take, 1.0 / take)


def contrastive_loss(batches, E, tau, include_positive_in_denominator=False):
    """Mean over batches/positives of -log(exp(s+/tau) / sum_k exp(s-_k/tau)).

    As written the positive term is absent from the denominator, so the
    loss can go negative; the standard form is available behind a flag.
    """
    if tau <= 0:
        raise ConfigError("temperature tau must be > 0")
    if not batches:
        raise DataError("contrastive loss needs at least one batch")
    anchors = np.array([b.anchor for b in batches], dtype=np.intp)

    def scores(side):
        """s/tau of every batch's `side` nodes against its anchor, and the
        batch of each row; one gather per side for all batches."""
        parts = [getattr(b, side) for b in batches]
        batch = np.repeat(np.arange(len(batches)), [len(p) for p in parts])
        pairs = ad.mul(ad.take_rows(E.H_d, np.concatenate(parts)),
                       ad.take_rows(E.H_d, anchors[batch]))
        return ad.div(ad.tsum(pairs, axis=1), tau), batch

    s_neg, neg_batch = scores("negatives")
    s_pos, pos_batch = scores("positives")
    # per-batch sums of exp(s-) through a batch-by-negative 0/1 matrix
    member = sp.eye(len(batches), format="csr")[neg_batch].T
    denom = ad.take_rows(ad.spmm(member, ad.exp(s_neg)), pos_batch)
    if include_positive_in_denominator:
        denom = ad.add(denom, ad.exp(s_pos))
    return ad.tmean(ad.sub(ad.log(denom), s_pos))
