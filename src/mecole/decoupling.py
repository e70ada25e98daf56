"""Decoupled embedding learning: two-channel GCN encoder, factorized link
prediction, reconstruction and discrepancy losses, and edge rewiring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError

__all__ = [
    "DecoupledEmbeddings",
    "DecoupledEncoder",
    "DISCREPANCY_METRICS",
    "predict_link",
    "link_scores",
    "reconstruction_loss",
    "discrepancy_loss",
    "rewire",
    "sample_non_edges",
]

EPS = 1e-8

# sample_non_edges refuses a graph where fewer than this share of ordered
# node pairs are non-edges, and gives up after drawing
# (2 * count + NON_EDGE_DRAW_SLACK) / NON_EDGE_MIN_RATE pairs: at the
# minimum rate, twice the expected number plus ample room for the tail
NON_EDGE_MIN_RATE = 1 / 64
NON_EDGE_DRAW_SLACK = 1024

DISCREPANCY_METRICS = ("l1", "l2", "cosine", "l_inf")


@dataclass
class DecoupledEmbeddings:
    """Class-dependent (H_d) and class-invariant (H_o) node embeddings."""

    H_d: ad.Tensor
    H_o: ad.Tensor

    @property
    def n(self):
        return self.H_d.shape[0]

    @property
    def hd(self):
        return self.H_d.values

    @property
    def ho(self):
        return self.H_o.values

    @classmethod
    def from_arrays(cls, hd, ho, requires_grad=False):
        hd = np.atleast_2d(np.asarray(hd, dtype=np.float64))
        ho = np.asarray(ho, dtype=np.float64).reshape(hd.shape[0], -1)
        return cls(ad.Tensor(hd, requires_grad=requires_grad),
                   ad.Tensor(ho, requires_grad=requires_grad))


class DecoupledEncoder:
    """Two independent 2-layer GCNs over (possibly multiple) adjacency
    channels, mixed with softmax-normalized learned scalars.

    The class-dependent channel list may differ from the class-invariant
    one (the former sees the rewired primary graph).
    """

    def __init__(self, in_dim, hidden, dim_d, dim_o, n_channels, seed, n=None):
        if dim_d < 1:
            raise ConfigError("dim_d must be >= 1")
        rng = np.random.default_rng(seed)
        self.dim_o = dim_o
        self.n_channels = n_channels
        first_rows = in_dim if in_dim is not None else n
        self.w1_d = ad.glorot(rng, first_rows, hidden)
        self.w2_d = ad.glorot(rng, hidden, dim_d)
        self.mix_d = ad.parameter(np.zeros((1, n_channels)))
        if dim_o > 0:
            self.w1_o = ad.glorot(rng, first_rows, hidden)
            self.w2_o = ad.glorot(rng, hidden, dim_o)
            self.mix_o = ad.parameter(np.zeros((1, n_channels)))
        else:
            self.w1_o = self.w2_o = self.mix_o = None

    def parameters(self):
        params = [self.w1_d, self.w2_d]
        if self.n_channels > 1:
            params.append(self.mix_d)
        if self.dim_o > 0:
            params += [self.w1_o, self.w2_o]
            if self.n_channels > 1:
                params.append(self.mix_o)
        return params

    def encode(self, a_hats_d, a_hats_o, X):
        """Forward pass; `a_hats_*` are lists of normalized adjacencies."""
        if len(a_hats_d) != self.n_channels or len(a_hats_o) != self.n_channels:
            raise ConfigError("channel count mismatch with encoder")
        h_d = ad.gcn(a_hats_d, X, self.w1_d, self.w2_d, self.mix_d)
        if self.dim_o > 0:
            h_o = ad.gcn(a_hats_o, X, self.w1_o, self.w2_o, self.mix_o)
        else:
            h_o = ad.constant(np.zeros((h_d.shape[0], 0)))
        return DecoupledEmbeddings(h_d, h_o)


# link prediction ----------------------------------------------------

def predict_link(u, v, E):
    """Factorized edge probability for one pair (frozen embeddings)."""
    if u == v:
        raise DataError("predict_link requires u != v")
    zd = float(ad.sigmoid_array(E.hd[u] @ E.hd[v]))
    zo = float(ad.sigmoid_array(E.ho[u] @ E.ho[v])) if E.ho.shape[1] else 0.5
    return zd * zo, zd, zo


def predict_links_against(hd_vec, ho_vec, E):
    """Vectorized Z(x, u) of one embedding pair against every node."""
    zd = ad.sigmoid_array(E.hd @ hd_vec)
    zo = ad.sigmoid_array(E.ho @ ho_vec) if E.ho.shape[1] else \
        np.full(E.n, 0.5)
    return zd * zo


def link_scores(E, pairs, mlp=None):
    """Differentiable Z over an array of (u, v) pairs."""
    pairs = np.asarray(pairs)
    u, v = pairs[:, 0], pairs[:, 1]
    if mlp is not None:
        return mlp.score(E, u, v)
    zd = ad.sigmoid(ad.pair_dot(E.H_d, u, v))
    if E.ho.shape[1]:
        zo = ad.sigmoid(ad.pair_dot(E.H_o, u, v))
    else:
        zo = ad.constant(np.full((len(pairs), 1), 0.5))
    return ad.mul(zd, zo)


class MlpPredictor:
    """Ablation head: 2-layer perceptron on concatenated pair embeddings."""

    def __init__(self, dim_d, dim_o, hidden, seed):
        rng = np.random.default_rng(seed)
        in_dim = 2 * (dim_d + dim_o)
        self.w1 = ad.glorot(rng, in_dim, hidden)
        self.b1 = ad.parameter(np.zeros((1, hidden)))
        self.w2 = ad.glorot(rng, hidden, 1)
        self.b2 = ad.parameter(np.zeros((1, 1)))

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def score(self, E, u, v):
        cols = [ad.take_rows(E.H_d, u), ad.take_rows(E.H_d, v)]
        if E.ho.shape[1]:
            cols += [ad.take_rows(E.H_o, u), ad.take_rows(E.H_o, v)]
        feat = ad.concat(cols)
        h = ad.tanh(ad.add(ad.matmul(feat, self.w1), self.b1))
        return ad.sigmoid(ad.add(ad.matmul(h, self.w2), self.b2))


# losses -------------------------------------------------------------

def sample_non_edges(graph, count, rng):
    """Uniform sample of unordered non-adjacent pairs (with replacement).

    Draws node pairs `(u, v)` from `rng` and rejects self-pairs and edges.
    Each round draws exactly two integers per pair still needed, so the
    pairs, their order and the generator's end state are those of a loop
    that draws one pair at a time.
    """
    n = graph.n
    non_edges = n * (n - 1) - 2 * graph.num_edges  # ordered pairs
    if non_edges <= 0:
        raise DataError("graph is complete: no non-edges to sample")
    if non_edges < NON_EDGE_MIN_RATE * n * n:
        raise DataError(
            f"graph too dense to sample non-edges: {non_edges} of {n * n} "
            f"ordered node pairs are non-edges")
    budget = (2 * count + NON_EDGE_DRAW_SLACK) / NON_EDGE_MIN_RATE
    # pair ids u*n + v of the edges, sorted as the edges are, closed by a
    # sentinel above every id so a lookup never runs off the end
    edge_ids = np.append(graph.u * n + graph.v, n * n)
    found = [np.empty((0, 2), dtype=np.int64)]
    need, drawn = count, 0
    while need > 0:
        if drawn + need > budget:
            raise DataError(f"found {count - need} of {count} non-edges "
                            f"in {drawn} drawn pairs")
        draws = rng.integers(n, size=2 * need)
        drawn += need
        a, b = draws[0::2], draws[1::2]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        ids = lo * n + hi
        is_edge = edge_ids[np.searchsorted(edge_ids, ids)] == ids
        ok = (lo != hi) & ~is_edge
        found.append(np.column_stack([lo[ok], hi[ok]]))
        need -= int(ok.sum())
    return np.concatenate(found)


def reconstruction_loss(graph, E, neg_ratio, rng, mlp=None):
    """Binary cross-entropy of Z over edges and sampled non-edges."""
    if neg_ratio < 1:
        raise ConfigError("neg_ratio must be >= 1")
    pos = np.column_stack([graph.u, graph.v])
    neg = sample_non_edges(graph, neg_ratio * len(pos), rng)
    pairs = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])[:, None]
    z = ad.clip(link_scores(E, pairs, mlp=mlp), 1e-7, 1.0 - 1e-7)
    y_t = ad.constant(y)
    ll = ad.add(ad.mul(y_t, ad.log(z)),
                ad.mul(1.0 - y_t, ad.log(ad.sub(1.0, z))))
    return ad.mul(ad.tmean(ll), -1.0)


def _metric_tensor(a, b, metric):
    diff = ad.sub(a, b)
    if metric == "l1":
        return ad.tsum(ad.absolute(diff), axis=1)
    if metric == "l2":
        return ad.row_norm2(diff)
    if metric == "l_inf":
        return ad.row_max(ad.absolute(diff))
    if metric == "cosine":
        na = ad.row_norm2(a)
        nb = ad.row_norm2(b)
        dot = ad.tsum(ad.mul(a, b), axis=1)
        cos = ad.div(dot, ad.add(ad.mul(na, nb), EPS))
        return ad.sub(1.0, cos)
    raise ConfigError(f"unknown discrepancy metric '{metric}'")


def discrepancy_loss(E, assignment, metric, pairs, rng):
    """Mean ratio d(h_o1, h_o2) / (d(h_d1, h_d2) + eps) over sampled
    cross-class node pairs (relevant nodes only)."""
    if pairs < 1:
        raise ConfigError("pairs must be >= 1")
    if metric not in DISCREPANCY_METRICS:
        raise ConfigError(f"unknown discrepancy metric '{metric}'")
    groups = [assignment.members(k) for k in range(assignment.K)]
    nonempty = [g for g in groups if g.size > 0]
    if len(nonempty) < 2:
        raise DataError("discrepancy loss needs >= 2 non-empty classes")

    class_pairs = np.array([(i, j) for i in range(len(nonempty))
                            for j in range(i + 1, len(nonempty))])
    groups = class_pairs[rng.integers(len(class_pairs), size=pairs)]
    sizes = np.array([g.size for g in nonempty])
    # one array draw for every pair's left, then right, node: the values and
    # generator state of one scalar draw for each in turn
    left, right = np.concatenate(nonempty)[
        (np.cumsum(sizes) - sizes)[groups] + rng.integers(0, sizes[groups])].T

    num = _metric_tensor(ad.take_rows(E.H_o, left),
                         ad.take_rows(E.H_o, right), metric)
    den = _metric_tensor(ad.take_rows(E.H_d, left),
                         ad.take_rows(E.H_d, right), metric)
    return ad.tmean(ad.div(num, ad.add(den, EPS)))


# rewiring -----------------------------------------------------------

def rewire(graph, E, eta):
    """Reweight each edge by min(eta, e / e_o) using frozen H_o.

    Weights are treated as constants downstream: the invariant channel
    scales the gradient of the dependent channel, not vice versa.
    """
    if eta <= 0:
        raise ConfigError("eta must be > 0")
    if E.ho.shape[1] == 0:
        return graph
    ho = E.ho
    # stacked 1x1 products: bit-equal to the scalar ho[u] @ ho[v]
    dots = np.matmul(ho[graph.u][:, None, :], ho[graph.v][:, :, None])
    e_o = ad.sigmoid_array(dots.reshape(-1))
    return graph.with_weights(np.minimum(eta, graph.w / np.maximum(e_o, EPS)))
