"""Anchor selection, counterfactual virtual-node synthesis, hard-negative
sampling, and the contrastive loss over class-dependent embeddings.

`epoch_batches` alone fixes the order of an epoch's draws: the anchors,
then per kept anchor, per virtual node, its donor and mask and, when its
pool is larger than the draw, the uniforms of its weighted draw, then the
anchor's positives. `hard_negatives` then scores all the rows at once and
draws nothing, sorting each pool per row in its scoring buffers; the
samplers return nodes, not probabilities. `synthesize_virtual_node` and
`sample_negatives` are the one-row cases of the same rules.
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
    "sample_anchors",
    "check_mask_rate",
    "draw_virtual_node",
    "synthesize_virtual_node",
    "pool_size",
    "hard_negatives",
    "sample_negatives",
    "uniform_negatives",
    "sample_positives",
    "epoch_batches",
    "augment_batches",
    "contrastive_loss",
    "anchor_weights",
]

# check_mask_rate refuses a mask draw whose chance of keeping a dim is below
# this per try; draw_virtual_node gives up after MASK_DRAW_BUDGET tries,
# which all fail at the minimum rate with a chance of about e^-64
MASK_MIN_RATE = 1 / 1024
MASK_DRAW_BUDGET = 2 ** 16


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
    negatives: np.ndarray

    def __post_init__(self):
        if len(self.positives) < 1 or len(self.negatives) < 1:
            raise DataError("batch needs at least one positive and negative")


def sample_anchors(assignment, per_class, rng):
    """Boundary-favoring anchor sample: within each class, weight members
    by exp(-r^2 / (2 s^2)) so low-confidence nodes are picked more often."""
    if per_class < 1:
        raise ConfigError("per_class must be >= 1")
    anchors = []
    for k, members in enumerate(assignment.classes):
        if members.size <= per_class:  # all of them, or none
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
    members = assignment.classes[k]
    return members, _boundary_weights(assignment.R[members, k])


def check_mask_rate(p_ce, dim_d):
    """A config error when a Bernoulli(p_ce) mask of `dim_d` dims is
    non-empty with a chance below `MASK_MIN_RATE` per try."""
    if 1.0 - (1.0 - p_ce) ** dim_d < MASK_MIN_RATE:
        raise ConfigError(f"p_ce={p_ce} is too small for dim_d={dim_d}: a "
                          f"virtual node's mask would rarely keep a dim")


def draw_virtual_node(v, assignment, dim_d, p_ce, rng):
    """The donor (uniform over the opposing classes) and the mask of the
    `dim_d` class-dependent dims it gives (Bernoulli(p_ce), none empty)."""
    if not 0.0 < p_ce <= 1.0:
        raise ConfigError("p_ce must lie in (0, 1]")
    check_mask_rate(p_ce, dim_d)
    opposing = assignment.opposing[assignment.hard[v]]
    if opposing.size == 0:
        raise DataError("no opposing class to draw a donor from")
    donor = int(opposing[rng.integers(0, opposing.size)])  # as rng.choice
    for _ in range(MASK_DRAW_BUDGET):
        mask = rng.random(dim_d) < p_ce
        if mask.any():
            return donor, mask
    raise ConfigError(f"p_ce={p_ce} with dim_d={dim_d} drew "
                      f"{MASK_DRAW_BUDGET} empty masks")


def _blend(hd, donors, masks, anchors):
    """Virtual nodes' `H_d` rows: donor dims where masked, else anchor's."""
    return np.where(masks, hd[donors], hd[anchors])


def synthesize_virtual_node(v, assignment, E, p_ce, rng):
    """Blend the anchor's class-dependent dims toward the donor of
    `draw_virtual_node`; invariant dims stay the anchor's."""
    donor, mask = draw_virtual_node(v, assignment, E.hd.shape[1], p_ce, rng)
    return VirtualNode(h_d=_blend(E.hd, donor, mask, v), h_o=E.ho[v].copy(),
                       anchor=int(v), donor=donor, mask=mask)


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
    left = np.empty(w.shape, dtype=np.intp)
    left[:] = np.arange(w.shape[1])
    picks = np.empty(u.shape, dtype=np.intp)
    for j in range(u.shape[1]):
        cdf = (w / w.sum(axis=1, keepdims=True)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        # searchsorted(cdf, u, side="right") of each row
        i = (cdf <= u[:, j:j + 1]).sum(axis=1)
        picks[:, j] = left[rows, i]
        if j == u.shape[1] - 1:  # nothing reads w or left after this
            break
        keep = np.arange(w.shape[1]) != i[:, None]
        w = w[keep].reshape(rows.size, -1)
        left = left[keep].reshape(rows.size, -1)
    return picks


def _top_stable(keys, c, scratch=None):
    """Per row, `np.argsort(keys, kind="stable")[:c]` without sorting every
    key. A row's candidates, its keys up to its c-th smallest, go
    left-aligned in column order into a `rows x w` slice of `scratch` (or
    a new array) padded with +inf, `w` being the most a row has (`c` unless
    keys tie at the boundary); one stable sort per row orders them."""
    part = np.empty_like(keys) if scratch is None else scratch
    np.copyto(part, keys)
    part.partition(c - 1, axis=1)
    rows, n = keys.shape
    at = np.flatnonzero(keys <= part[:, c - 1:c])  # row-major positions
    start = np.searchsorted(at, np.arange(rows + 1) * n)
    count = np.diff(start)[:, None]
    pad = part.reshape(-1)[:rows * count.max()].reshape(rows, -1)
    pad.fill(np.inf)  # the sort is stable: pads follow every candidate
    pad[np.arange(pad.shape[1]) < count] = keys.take(at)
    order = pad.argsort(axis=1, kind="stable")[:, :c]
    return at[start[:-1, None] + order] % n


def _hard_pools(z, anchors, graph, c, scratch):
    """Per row of link scores `z`, the `c` nodes with the highest score
    outside the closed neighborhood of the row's anchor, highest first
    with ties to the lowest id, and their scores. `z` becomes the sort
    keys, its negation; `_top_stable` partitions and sorts them per row in
    `scratch`, a buffer of `z`'s shape."""
    keys = np.negative(z, out=z)
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    rows = np.arange(anchors.size)
    start = indptr[anchors]
    degree = indptr[anchors + 1] - start
    # where each anchor's CSR row lies in `indices`, rows end to end
    at = np.repeat(start - (degree.cumsum() - degree), degree)
    at += np.arange(at.size)
    keys[np.repeat(rows, degree), indices[at]] = np.inf
    keys[rows, anchors] = np.inf
    pool = _top_stable(keys, c, scratch)
    return pool, -keys[rows[:, None], pool]


SCORE_BUDGET = 2 ** 17  # scores per block in `hard_negatives`: 1 MiB


def pool_size(graph, v, m, pool_factor):
    """Size of the hard-negative pool of anchor `v` (or of each anchor in
    an array): `pool_factor * m`, cut to the candidates outside its closed
    neighborhood. The rows of a pool larger than `m` draw `m` uniforms."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    if pool_factor < 1:
        raise ConfigError("pool_factor must be >= 1")
    candidates = graph.n - 1 - graph.degrees[v]
    if (candidates == 0).any():
        raise DataError("no candidate negatives: anchor neighborhood is full")
    return np.minimum(pool_factor * m, candidates)


def hard_negatives(anchors, h_d, h_o, uniforms, E, graph, m, sizes):
    """Per virtual node r (anchor `anchors[r]`, rows `h_d[r]`, `h_o[r]`),
    the nodes of its pool of `sizes[r]`: `m` drawn in proportion to Z with
    the next row of `uniforms`, or the whole pool if no larger than `m`.

    A row is `None` when fewer of its pool's scores are above 0 than its
    draw needs (`m`, or one for a whole pool): the scores are products of
    two clipped sigmoids and can underflow. Rows of one pool size are
    scored in blocks of `max(32, SCORE_BUDGET // n)` rows, in two buffers
    made once: the scores, and the scratch that `_top_stable` sorts their
    pools in. The dot products are a stacked `np.matmul` of one
    matrix-vector product per row for `H_d` and per distinct anchor (its
    first row) for `H_o`, so no row's sums depend on its block. The rows
    of one anchor must share their `h_o`; rows that differ are a
    `DataError`.
    """
    slot = (sizes > m).cumsum() - 1  # row -> its row of uniforms
    _, first, which = np.unique(anchors, return_index=True,
                                return_inverse=True)
    if first.size < anchors.size and \
            not np.array_equal(h_o, h_o[first[which]], equal_nan=True):
        raise DataError("rows of one anchor differ in h_o")
    step = max(32, SCORE_BUDGET // graph.n)
    z_buf, scratch = np.empty((2, min(step, anchors.size), graph.n))
    zo = np.empty((first.size, graph.n))
    for lo in range(0, first.size, step):
        part = first[lo:lo + step]
        tmp = scratch[:part.size]
        np.matmul(E.ho, h_o[part][:, :, None], out=tmp[:, :, None])
        ad.sigmoid_array(tmp, out=zo[lo:lo + step])
    rows = [None] * anchors.size
    for c in dict.fromkeys(sizes.tolist()):
        same = np.flatnonzero(sizes == c)
        for block in (same[i:i + step] for i in range(0, same.size, step)):
            z, tmp = z_buf[:block.size], scratch[:block.size]
            np.matmul(E.hd, h_d[block][:, :, None], out=tmp[:, :, None])
            ad.sigmoid_array(tmp, out=z)
            # mode "clip" writes straight to `out`; "raise" would buffer it
            z *= np.take(zo, which[block], axis=0, out=tmp, mode="clip")
            pool, pool_z = _hard_pools(z, anchors[block], graph, c, tmp)
            ok = (pool_z != 0).sum(axis=1) >= (m if c > m else 1)
            block, pool, pool_z = block[ok], pool[ok], pool_z[ok]
            if c > m and block.size:
                pick = _weighted_draw_without_replacement(
                    pool_z, uniforms[slot[block]])
                pool = pool[np.arange(block.size)[:, None], pick]
            for r, nodes in zip(block, pool):
                rows[r] = nodes
    return rows


def sample_negatives(virt, E, graph, m, rng, pool_factor=10):
    """Hard negatives: the virtual node's likeliest interaction partners
    outside the anchor's neighborhood, drawn proportionally to Z; the
    nodes only.

    The one-row case of `hard_negatives`; its uniforms are drawn before
    the pool is scored, so a pool that underflows has moved `rng`.
    """
    anchor = np.array([virt.anchor])
    sizes = pool_size(graph, anchor, m, pool_factor)
    u = rng.random((int(sizes[0] > m), m))
    row, = hard_negatives(anchor, virt.h_d[None], virt.h_o[None], u, E,
                          graph, m, sizes)
    if row is None:
        raise NumericError(f"hard-negative pool of anchor {virt.anchor} "
                           "has too few nonzero scores for its draw")
    return row


def uniform_negatives(graph, v, count, rng):
    """Up to `count` distinct nodes outside the closed neighborhood of `v`,
    drawn uniformly and sorted."""
    candidates = graph.non_neighbors(v)
    if candidates.size == 0:
        raise DataError("no candidate negatives: anchor neighborhood is full")
    return _uniform_subset(candidates, count, rng)


def sample_positives(v, graph, count, rng):
    """Uniform draws from the anchor's 1-hop neighborhood."""
    nbrs = graph.neighbors(v)
    if nbrs.size == 0:
        raise DataError(f"anchor {v} has no neighbors to sample positives")
    return _uniform_subset(nbrs, count, rng)


def _uniform_subset(nodes, count, rng):
    """Up to `count` of `nodes`, uniform without replacement, sorted."""
    chosen = rng.choice(nodes, size=min(count, nodes.size), replace=False)
    return np.sort(chosen).astype(np.int64)


def epoch_batches(cfg, assignment, E, graph, p_ce, rng):
    """One epoch's anchor batches: anchors -> virtual nodes -> hard
    negatives, drawn from `rng` in the order the module docstring gives.

    An anchor with no neighbor, no non-neighbor or no node of another
    class is skipped before it draws. The virtual nodes' `H_d` rows are
    then blended as one matrix and scored in one pass; a row whose pool
    underflows is dropped, and an anchor left with no row gets no batch.
    Under `cfg.neg_uniform` a virtual node draws `uniform_negatives` in
    place of its uniforms, and its donor and mask are still drawn and
    then discarded, which keeps the random stream unchanged.
    """
    m, per_anchor = cfg.negatives_m, cfg.virtual_per_anchor
    anchors = np.array(sample_anchors(assignment, cfg.per_class_anchors,
                                      rng), dtype=np.int64)
    anchors = anchors[~np.isin(graph.degrees[anchors], (0, graph.n - 1))]
    if anchors.size == 0 or np.ptp(assignment.hard) == 0:
        return []  # no anchor left, or no other class to give a donor
    sizes = pool_size(graph, anchors, m, cfg.pool_factor)
    kept, drawn, uniforms, rows = [], [], [], []
    for v, draw in zip(anchors.tolist(), (sizes > m).tolist()):
        for _ in range(per_anchor):
            drawn.append(draw_virtual_node(v, assignment, E.hd.shape[1],
                                           p_ce, rng))
            if cfg.neg_uniform:
                rows.append(uniform_negatives(graph, v, m, rng))
            elif draw:
                uniforms.append(rng.random(m))
        kept.append((v, sample_positives(v, graph, cfg.positives, rng)))
    if not cfg.neg_uniform:
        donors, masks = map(np.array, zip(*drawn))
        owners = np.repeat(anchors, per_anchor)
        rows = hard_negatives(owners, _blend(E.hd, donors, masks, owners),
                              E.ho[owners], np.reshape(uniforms, (-1, m)),
                              E, graph, m, np.repeat(sizes, per_anchor))
    batches = []
    for i, (v, pos) in enumerate(kept):
        own = [r for r in rows[i * per_anchor:(i + 1) * per_anchor]
               if r is not None]
        if own:
            batches.append(ContrastiveBatch(anchor=int(v), positives=pos,
                                            negatives=np.concatenate(own)))
    return batches


def _drop_edges(graph, rate, rng):
    keep = rng.random(graph.num_edges) >= rate
    if not keep.any():
        keep[:1] = True
    return graph.keep_edges(keep)


def augment_batches(cfg, assignment, graph, rng):
    """Graph-augmentation ablation: positives from an edge-dropped view,
    negatives uniform outside the neighborhood. An anchor with no
    neighbor in the view, or adjacent to every node, is skipped before it
    draws."""
    view = _drop_edges(graph, 0.2, rng)
    batches = []
    for v in sample_anchors(assignment, cfg.per_class_anchors, rng):
        if view.neighbors(v).size == 0 or \
                graph.neighbors(v).size == graph.n - 1:
            continue
        pos = sample_positives(v, view, cfg.positives, rng)
        negs = uniform_negatives(
            graph, v, cfg.negatives_m * cfg.virtual_per_anchor, rng)
        batches.append(ContrastiveBatch(anchor=int(v), positives=pos,
                                        negatives=negs))
    return batches


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
    member = sp.coo_matrix((np.ones(neg_batch.size),
                            (neg_batch, np.arange(neg_batch.size))),
                           shape=(len(batches), neg_batch.size))
    denom = ad.take_rows(ad.spmm(member, ad.exp(s_neg)), pos_batch)
    if include_positive_in_denominator:
        denom = ad.add(denom, ad.exp(s_pos))
    return ad.tmean(ad.sub(ad.log(denom), s_pos))
