"""Anchor selection, counterfactual virtual-node synthesis, hard-negative
sampling, and the contrastive loss over class-dependent embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ConfigError, DataError, NumericError

__all__ = [
    "VirtualNode",
    "ContrastiveBatch",
    "NegativeRows",
    "sample_anchors",
    "synthesize_virtual_node",
    "sample_negatives",
    "uniform_negatives",
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
    opposing = assignment.opposing[assignment.hard[v]]
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


def _weighted_draw_without_replacement(w, u):
    """Per row of weights `w`, the positions of sequential weighted draws
    without replacement, one per column of uniforms `u`; the first draw is
    exactly proportional to the weights.

    Each draw is what `rng.choice(len(w), p=w / w.sum())` does over the
    weights still left in the row, with its uniform drawn up front. A
    picked weight is removed by compaction, not zeroed, so each row's sum
    adds the same elements in the same order as the row on its own.
    """
    rows = np.arange(w.shape[0])
    left = np.broadcast_to(np.arange(w.shape[1]), w.shape)
    picks = np.empty(u.shape, dtype=np.intp)
    for j in range(u.shape[1]):
        cdf = (w / w.sum(axis=1, keepdims=True)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        # searchsorted(cdf, u, side="right") of each row
        i = np.count_nonzero(cdf <= u[:, j:j + 1], axis=1)
        picks[:, j] = left[rows, i]
        keep = np.arange(w.shape[1]) != i[:, None]
        w = w[keep].reshape(rows.size, -1)
        left = left[keep].reshape(rows.size, -1)
    return picks


def _top_stable(keys, c):
    """Per row, `np.argsort(keys, kind="stable")[:c]` without sorting every
    key: ties at the boundary still go to the lowest index."""
    kth = np.partition(keys, c - 1, axis=1)[:, c - 1:c]
    # the keys up to each row's c-th, in row-major order; a stable sort by
    # row, then key, keeps ties in index order
    rows, cols = np.divmod(np.flatnonzero(keys <= kth), keys.shape[1])
    order = np.lexsort((keys[rows, cols], rows))
    first = np.searchsorted(rows, np.arange(keys.shape[0]))
    return cols[order][first[:, None] + np.arange(c)]


def _hard_pools(z, anchors, graph, c):
    """Per row of link scores `z`, the `c` nodes with the highest score
    outside the closed neighborhood of the row's anchor, highest first
    with ties to the lowest id, and their scores."""
    keys = -z
    nbrs = [graph.neighbors(v) for v in anchors]
    keys[np.repeat(np.arange(len(nbrs)), [x.size for x in nbrs]),
         np.concatenate(nbrs)] = np.inf
    keys[np.arange(len(nbrs)), anchors] = np.inf
    pool = _top_stable(keys, c)
    return pool, np.take_along_axis(z, pool, axis=1)


# the sigmoid of a dot product above this is at least about 5e-131, so a
# product of two such sigmoids is a normal number, never 0
SAFE_DOT = -300.0
ROW_BLOCK = 32


class NegativeRows:
    """The negatives of an epoch's virtual nodes, one row per virtual node
    in the order they were added.

    A hard-negative row is queued with the random draws it needs (the
    uniforms of its weighted draw), made when the per-node sampler would
    have made them. Queued rows are scored in blocks of `ROW_BLOCK` rows
    with one pool size, each block once it fills and the rest in
    `resolve`; scoring draws nothing. The dot products are one
    matrix-vector product per virtual node, and every sum adds its terms
    in the order of a row scored alone, so no row depends on its block.
    """

    def __init__(self, E, graph, m, pool_factor):
        self.E, self.graph = E, graph
        self.m, self.pool_factor = m, pool_factor
        self.rows = []  # (nodes, p); None while a queued row waits
        self._queued = {}  # pool size -> [(row, anchor, dots, zo, uniforms)]
        # anchor -> (sigmoid of its H_o dots, their minimum); a virtual
        # node keeps its anchor's H_o row
        self._zo = {}

    def __len__(self):
        return len(self.rows)

    def append(self, nodes, p):
        """A row whose negatives are already drawn."""
        self.rows.append((nodes, p))

    def queue(self, virt, rng):
        """Queue a hard-negative row for `virt` and draw its uniforms.

        Raises before any draw, so the generator does not move, when the
        anchor has no candidate or too few candidates score above 0.
        """
        v = virt.anchor
        nbrs = self.graph.neighbors(v)
        candidates = self.graph.n - 1 - nbrs.size
        if candidates == 0:
            raise DataError("no candidate negatives: anchor neighborhood is "
                            "full")
        c = min(self.pool_factor * self.m, candidates)
        dd = self.E.hd @ virt.h_d
        if v not in self._zo:
            do = self.E.ho @ virt.h_o
            self._zo[v] = ad.sigmoid_array(do), do.min()
        zo, do_min = self._zo[v]
        # scores are products of two clipped sigmoids and can underflow to
        # 0; a draw needs m of them above 0, and the probabilities need one
        need = self.m if c > self.m else 1
        if min(dd.min(), do_min) <= SAFE_DOT:
            z = ad.sigmoid_array(dd) * zo
            z[nbrs] = 0.0
            z[v] = 0.0
            nonzero = min(np.count_nonzero(z), c)
            if nonzero < need:
                raise NumericError(
                    f"hard-negative pool of anchor {v} has {nonzero} "
                    f"nonzero scores; the draw needs {need}")
        u = rng.random(self.m) if c > self.m else None
        block = self._queued.setdefault(c, [])
        block.append((len(self.rows), v, dd, zo, u))
        self.rows.append(None)
        if len(block) == ROW_BLOCK:
            self._score(c, self._queued.pop(c))

    def resolve(self):
        """Score the rows still queued; returns all rows."""
        for c in list(self._queued):
            self._score(c, self._queued.pop(c))
        return self.rows

    def _score(self, c, block):
        """Pools of size `c` and their draws for a block of queued rows."""
        ids, anchors, dd, zo, u = zip(*block)
        z = ad.sigmoid_array(np.stack(dd)) * np.stack(zo)
        pool, pool_z = _hard_pools(z, np.array(anchors), self.graph, c)
        if c > self.m:
            pick = _weighted_draw_without_replacement(pool_z, np.stack(u))
            pool = np.take_along_axis(pool, pick, axis=1)
            pool_z = np.take_along_axis(pool_z, pick, axis=1)
        p = pool_z / pool_z.sum(axis=1, keepdims=True)
        for r, nodes, pr in zip(ids, pool, p):
            self.rows[r] = (nodes, pr)


def sample_negatives(virt, E, graph, m, rng, pool_factor=10, uniform=False):
    """Hard negatives: the virtual node's likeliest interaction partners
    outside the anchor's neighborhood, drawn proportionally to Z."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    if pool_factor < 1:
        raise ConfigError("pool_factor must be >= 1")
    if uniform:
        # ablation: any non-neighbor, no hardness ranking
        return uniform_negatives(graph, virt.anchor, m, rng)
    rows = NegativeRows(E, graph, m, pool_factor)
    rows.queue(virt, rng)
    return rows.resolve()[0]


def uniform_negatives(graph, v, count, rng):
    """Up to `count` distinct nodes outside the closed neighborhood of `v`,
    drawn uniformly and sorted, with their equal probabilities."""
    candidates = graph.non_neighbors(v)
    if candidates.size == 0:
        raise DataError("no candidate negatives: anchor neighborhood is full")
    take = min(count, candidates.size)
    chosen = np.sort(rng.choice(candidates, size=take, replace=False))
    return chosen, np.full(take, 1.0 / take)


def sample_positives(v, graph, count, rng):
    """Uniform draws from the anchor's 1-hop neighborhood."""
    nbrs = graph.neighbors(v)
    if nbrs.size == 0:
        raise DataError(f"anchor {v} has no neighbors to sample positives")
    take = min(count, nbrs.size)
    chosen = rng.choice(nbrs, size=take, replace=False)
    return np.sort(chosen).astype(np.int64), np.full(take, 1.0 / take)


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
        batch of each row; one pair_dot per side for all batches."""
        parts = [getattr(b, side) for b in batches]
        batch = np.repeat(np.arange(len(batches)), [len(p) for p in parts])
        dots = ad.pair_dot(E.H_d, np.concatenate(parts), anchors[batch])
        return ad.div(dots, tau), batch

    s_neg, neg_batch = scores("negatives")
    s_pos, pos_batch = scores("positives")
    # per-batch sums of exp(s-) through a batch-by-negative 0/1 matrix
    member = sp.eye(len(batches), format="csr")[neg_batch].T
    denom = ad.take_rows(ad.spmm(member, ad.exp(s_neg)), pos_batch)
    if include_positive_in_denominator:
        denom = ad.add(denom, ad.exp(s_pos))
    return ad.tmean(ad.sub(ad.log(denom), s_pos))
