"""Graph data model, dataset ingestion, and synthetic-graph generation.

Graphs are undirected, self-loop free, and immutable after construction.
Auxiliary content graphs (k-NN similarity, tf-idf attribute features) are
built here; the planted-partition generator provides a verifiable test
substrate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError

logger = logging.getLogger("mecole.graphs")

__all__ = [
    "Graph",
    "GraphBundle",
    "MAX_NODES",
    "AttributeBag",
    "SBMConfig",
    "load_edge_list",
    "load_features",
    "load_labels",
    "load_attribute_bags",
    "load_vocabulary",
    "build_knn_similarity_graph",
    "tfidf_class_features",
    "generate_sbm",
]


class Graph:
    """Immutable sparse undirected graph with optional edge weights.

    Each edge is stored once: int64 endpoint arrays `u < v`, sorted by
    `(u, v)` without repeats, with float64 weights `w`. `Graph(n, u, v, w)`
    is the one constructor and takes the arrays in that canonical form
    only; `from_arrays` and `from_pairs` orient and sort any edge list
    first, and derived graphs (`with_weights`, `keep_edges`, `subgraph`),
    `generate_sbm` and `load_edge_list` pass their arrays straight to it.

    The topology, `u` and `v`, is checked and converted to CSR once, by
    its `_Pattern`, which every graph `with_weights` derives shares.
    `adjacency` is the symmetric CSR matrix of A, whose data are the
    weights permuted into the pattern's slots. Its structure, `indptr` and
    `indices`, is read-only and depends on the edge arrays alone, not on
    the weights: a stored zero-weight edge is an edge.
    """

    __slots__ = ("n", "u", "v", "w", "adjacency", "pattern")

    def __init__(self, n, u, v, w, pattern=None):
        """Graph on canonical edge arrays, which become read-only; any
        other arrays are a `DataError`. Given `pattern`, the `_Pattern` of
        a graph on these same `u` and `v` arrays, only `w` is checked."""
        n = int(n)
        if pattern is None:
            u = np.asarray(u, dtype=np.int64)
            v = np.asarray(v, dtype=np.int64)
        elif pattern.u is not u or pattern.v is not v:
            raise ValueError("pattern of other edge arrays")
        w = np.asarray(w, dtype=np.float64)
        if not u.shape == v.shape == w.shape == (len(u),):
            raise DataError("edge arrays differ in length")
        if pattern is None:
            pattern = _Pattern(n, u, v)
        w.flags.writeable = False
        self.n, self.u, self.v, self.w = n, u, v, w
        self.pattern = pattern
        self.adjacency = sp.csr_matrix(
            (w[pattern.slots], pattern.indices, pattern.indptr),
            shape=(n, n))

    @classmethod
    def from_arrays(cls, n, u, v, w=None):
        """Graph from endpoint arrays (any order and orientation) and
        weights (default 1.0)."""
        u = np.asarray(u, dtype=np.int64).reshape(-1)
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        w = np.ones(len(u)) if w is None else \
            np.asarray(w, dtype=np.float64).reshape(-1)
        if not len(u) == len(v) == len(w):
            raise DataError("edge arrays differ in length")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        order = np.lexsort((hi, lo))
        return cls(n, lo[order], hi[order], w[order])

    @classmethod
    def from_pairs(cls, n, pairs):
        """Graph from `(u, v)` pairs, each of weight 1.0."""
        pairs = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        return cls.from_arrays(n, pairs[:, 0], pairs[:, 1])

    @property
    def edges(self):
        """The edges as sorted `(u, v, w)` tuples, derived on demand."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def num_edges(self):
        return len(self.u)

    @property
    def degrees(self):
        """Number of stored neighbors per node, from the CSR row pointers."""
        indptr = self.adjacency.indptr
        return indptr[1:] - indptr[:-1]

    @property
    def weighted_degrees(self):
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def neighbors(self, u):
        return self.adjacency.indices[
            self.adjacency.indptr[u]:self.adjacency.indptr[u + 1]]

    def non_neighbors(self, u):
        """Ascending ids of the nodes other than `u` not adjacent to it."""
        keep = np.ones(self.n, dtype=bool)
        keep[self.neighbors(u)] = False
        keep[u] = False
        return np.flatnonzero(keep)

    def with_weights(self, weights):
        """Same topology with new per-edge weights (in edge order), whose
        CSR reuses this graph's structure."""
        return Graph(self.n, self.u, self.v,
                     np.array(weights, dtype=np.float64), self.pattern)

    def plus_identity(self):
        """A + I as the CSR matrix that `adjacency + identity` makes: the
        structure comes from the topology's pattern, and a zero-weight
        edge, which a sparse sum drops, is dropped."""
        indptr, indices, off = self.pattern.plus_identity
        data = np.ones(indices.size)
        data[off] = self.adjacency.data
        if not data.all():
            kept = np.flatnonzero(data)
            data, indices = data[kept], indices[kept]
            indptr = np.searchsorted(kept, indptr).astype(indptr.dtype)
        return sp.csr_matrix((data, indices, indptr), shape=(self.n, self.n))

    def adjacent(self, a, b):
        """Whether each pair `(a[i], b[i])` is an edge: a branch-free
        binary search of row `a[i]`'s sorted CSR columns, all pairs at
        once, in as many halvings as the largest degree has bits."""
        indptr = self.adjacency.indptr
        cols = np.append(self.adjacency.indices, self.n)  # one probe past
        lo, end = indptr[a], indptr[a + 1]
        width = end - lo
        for _ in range(int(np.max(width, initial=0)).bit_length()):
            half = width >> 1
            # row a[i]'s first column not below b[i] is at lo[i] + 0..width
            lo += (cols[lo + half] < b) * (width - half)
            width = half
        return (lo < end) & (cols[lo] == b)

    def keep_edges(self, mask):
        """Same nodes with only the edges where boolean `mask` holds."""
        return Graph(self.n, self.u[mask], self.v[mask], self.w[mask])

    def subgraph(self, keep):
        """Induced subgraph on sorted node ids `keep`, reindexed densely."""
        keep = np.sort(np.asarray(keep, dtype=np.int64))
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        u, v = remap[self.u], remap[self.v]
        inside = (u >= 0) & (v >= 0)
        # the remap is increasing, so the kept edges stay canonical
        return Graph(len(keep), u[inside], v[inside], self.w[inside])


class _Pattern:
    """One checked topology, which every graph on the same canonical
    edge arrays `u` and `v` shares. One COO-to-CSR conversion of A + I,
    whose data are edge ids and on the diagonal one past the last id,
    gives A's `indptr` and `indices`, `slots`, the edge whose weight fills
    each of A's CSR slots, and `plus_identity`: A + I's `indptr` and
    `indices`, then the positions in its data of A's slots. All are
    read-only."""

    def __init__(self, n, u, v):
        """The topology of `n` nodes and the equal-length int64 endpoint
        arrays `u` and `v`, which must be canonical, or a `DataError`
        names the first edge that is not."""
        loop = np.flatnonzero(u == v)
        if loop.size:
            i = u[loop[0]]
            raise DataError(f"self-loop ({i},{i}) in edge list")
        bad = np.flatnonzero((u < 0) | (v >= n))
        if bad.size:
            raise DataError(f"edge ({u[bad[0]]},{v[bad[0]]}) out of range "
                            f"for n={n}")
        bad = np.flatnonzero(u > v)
        if bad.size:
            raise DataError(f"edge ({u[bad[0]]},{v[bad[0]]}) not stored "
                            "as u < v")
        du, dv = np.diff(u), np.diff(v)
        bad = np.flatnonzero((du < 0) | ((du == 0) & (dv <= 0)))
        if bad.size:
            i = bad[0]
            what = "duplicate edge" if du[i] == dv[i] == 0 else \
                "edge out of (u, v) order:"
            raise DataError(f"{what} ({u[i + 1]},{v[i + 1]})")
        m, nodes, ids = u.size, np.arange(n), np.arange(u.size)
        # row r lists its columns below r (edges (c, r)), r, then those
        # above (edges (r, c)), each run ascending: the result is sorted
        hat = sp.csr_matrix(
            (np.concatenate([ids, np.full(n, m), ids]),
             (np.concatenate([v, nodes, u]), np.concatenate([u, nodes, v]))),
            shape=(n, n))
        off = np.flatnonzero(hat.data < m)
        self.u, self.v = u, v
        self.slots = hat.data[off]
        self.indices = hat.indices[off]
        # each row of A + I holds one diagonal entry
        self.indptr = hat.indptr - np.arange(n + 1, dtype=hat.indptr.dtype)
        self.plus_identity = hat.indptr, hat.indices, off
        for arr in (u, v, self.slots, self.indices, self.indptr,
                    hat.indptr, hat.indices):
            arr.flags.writeable = False


@dataclass(frozen=True)
class GraphBundle:
    """Primary graph plus named auxiliary relation graphs."""

    primary: Graph
    auxiliary: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, g in self.auxiliary.items():
            if g.n != self.primary.n:
                raise DataError(
                    f"auxiliary graph '{name}' has {g.n} nodes, "
                    f"primary has {self.primary.n}")


@dataclass(frozen=True)
class AttributeBag:
    """Per-node token counts `B` plus a token embedding table.

    `counts` is the node x token CSR matrix of the bags: a node's tokens
    are its row's entries in bag order, a repeated token a repeated entry,
    so every product with it adds a bag's tokens in that order."""

    counts: sp.csr_matrix
    vocabulary: np.ndarray  # (vocab, emb_dim)

    @classmethod
    def from_rows(cls, indptr, tokens, vocabulary):
        """Bags of CSR rows: `indptr`, where each node's tokens start, and
        every token id end to end; an id outside the vocabulary is a data
        error that names its node."""
        bad = np.flatnonzero((tokens < 0) | (tokens >= len(vocabulary)))
        if bad.size:
            node = np.searchsorted(indptr, bad[0], side="right") - 1
            raise DataError(f"node {node}: token {tokens[bad[0]]} missing "
                            "from vocabulary")
        return cls(sp.csr_matrix((np.ones(tokens.size), tokens, indptr),
                                 shape=(len(indptr) - 1, len(vocabulary))),
                   vocabulary)


@dataclass(frozen=True)
class SBMConfig:
    blocks: int
    block_sizes: tuple
    p_in: float
    p_out: float
    dep_dim: int = 8
    inv_dim: int = 8
    noise_sigma: float = 0.5
    confound_strength: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise ConfigError("require 0 <= p_out <= p_in <= 1")
        if len(self.block_sizes) != self.blocks:
            raise ConfigError("block_sizes length must equal blocks")
        if self.dep_dim < self.blocks:
            raise ConfigError("dep_dim must be >= number of blocks")
        if self.inv_dim < 0:
            raise ConfigError("inv_dim must be >= 0")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")

    @property
    def n(self):
        return int(sum(self.block_sizes))


# ingestion ----------------------------------------------------------

def _data_lines(path, blank=False):
    """(line number, stripped line) of each line of a text input file that
    is not a `#` comment, nor blank unless `blank`. The file is read line
    by line, as `open` splits it (`str.splitlines` would also split at form
    feeds and the like, and shift the numbers), so its text is held once;
    an unreadable file is a data error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # data lines, and with `blank` empty ones; `startswith` is slower
            return [(lineno, line) for lineno, line
                    in enumerate(map(str.strip, fh), 1)
                    if line and line[0] != "#" or blank and not line]
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"cannot read {path}: {reason}") from exc


def _parse(path, numbered, split, convert, dtype, parse_error, width=None,
           width_error=None, sign_error=None, count=None, widths=None):
    """`convert` (Python's own `int` or `float`) of each token that `split`
    makes of the `numbered` data lines, as one array of `dtype`, with no
    list of values built. Each line is split once, and its width noted as
    its tokens stream in: into the list `widths` when one is given, with
    no check, or else checked against `width`, or with none the first
    line's. Lines that need neither pass `count`, their number of tokens.

    On a failure the lines are walked in file order, and the first whose
    `width`, parse or (with `sign_error`) sign check fails, in that order,
    raises its message, which may name the line as `{line}`; then, with no
    `width`, lines unlike the first in width raise `width_error`. If none
    fails, some value is beyond `dtype`: the values come back as an object
    array of Python numbers."""
    lines = [line for _, line in numbered]
    noting, row = count is None, None
    if widths is None:
        widths = []
        if noting:
            row = width if width is not None else \
                len(split(lines[0])) if lines else 0
            count = row * len(lines)

    def noted(line):
        tokens = split(line)
        widths.append(len(tokens))
        return tokens

    def values_as(kind):
        # -1, not 0: a first line of no token must not stop the noting
        return np.fromiter(map(convert, chain.from_iterable(map(
            noted if noting else split, lines))), kind, count or -1)

    try:
        values = values_as(dtype)
    except (ValueError, OverflowError):
        values = None
    # a line too wide fills the array before every width is noted
    even = row is None or widths.count(row) == len(lines)
    if values is not None and even and not (sign_error and (values < 0).any()):
        return values
    for lineno, line in numbered:
        tokens = split(line)
        if width is not None and len(tokens) != width:
            problem = width_error
        else:
            try:
                parsed = list(map(convert, tokens))
            except ValueError:
                problem = parse_error
            else:
                if sign_error is None or min(parsed) >= 0:
                    continue
                problem = sign_error
        raise DataError(f"{path}:{lineno}: " + problem.format(line=line))
    if row is not None and any(len(split(line)) != row for line in lines):
        raise DataError(f"{path}: {width_error}")
    widths.clear()  # the failed pass stopped partway
    return values_as(object)


# every per-node array is dense, so a node id is a memory size: the cap
# turns a stray huge id into a data error, not a huge allocation or an
# int64 overflow
MAX_NODES = 2 ** 24


def load_edge_list(path, n_hint=None):
    """Graph of `u v` lines of non-negative node ids, each edge once and
    of weight 1.0; self-loops are dropped, but their ids count towards
    `n`, which `n_hint` overrides."""
    numbered = _data_lines(path)
    ids = _parse(path, numbered, str.split, int, np.int64,
                 "non-integer node id in {line!r}", width=2,
                 width_error="expected 'u v', got {line!r}",
                 sign_error="negative node id")
    lo, hi = np.sort(ids.reshape(-1, 2), axis=1).T
    edge = lo != hi
    if not edge.any():
        raise DataError(f"{path}: empty edge set")
    max_idx = ids.max()
    if max_idx >= MAX_NODES:
        raise DataError(f"{path}: node id {max_idx} above the limit of "
                        f"{MAX_NODES - 1}")
    key = np.unique(lo[edge] * MAX_NODES + hi[edge])
    n = n_hint if n_hint is not None else int(max_idx) + 1
    return Graph(n, key // MAX_NODES, key % MAX_NODES, np.ones(len(key)))


def _row_tokens(line):
    return line.replace(",", " ").split()


def _numeric_rows(path):
    """Rows of comma- or whitespace-separated finite numbers, all one
    length."""
    numbered = _data_lines(path)
    values = _parse(path, numbered, _row_tokens, float, np.float64,
                    "non-numeric token", width_error="rows differ in length")
    if not np.isfinite(values).all():
        raise DataError(f"{path}: non-finite value (nan or inf)")
    # no data line at all loads as an empty vector, not a 0-row matrix
    rows = len(numbered)
    return values.reshape(rows, values.size // rows) if rows else values


def load_features(path, n):
    X = _numeric_rows(path)
    if len(X) != n:
        raise DataError(f"{path}: row count mismatch (got {len(X)}, want {n})")
    return X


def load_labels(path):
    """One integer label per line; -1 marks an unlabeled node, and a label
    below -1 is a data error."""
    numbered = _data_lines(path)
    labels = _parse(path, numbered, lambda line: [line], int, np.int64,
                    "non-integer label", count=len(numbered))
    if labels.dtype == object:
        raise DataError(f"{path}: label outside the int64 range")
    below = np.flatnonzero(labels < -1)
    if below.size:
        raise DataError(f"{path}: label {labels[below[0]]} below -1, the "
                        "one mark of an unlabeled node")
    return labels


def load_attribute_bags(path):
    """Per-node token ids as CSR rows `(indptr, tokens)`: each line lists
    one node's ids, and a blank line is a node with none."""
    sizes = []
    tokens = _parse(path, _data_lines(path, blank=True), str.split, int,
                    np.int64, "non-integer token id", widths=sizes)
    return np.cumsum([0, *sizes]), tokens


def load_vocabulary(path):
    """Token embedding table: one row of numbers per token id."""
    vocab = _numeric_rows(path)
    if len(vocab) == 0:
        raise DataError(f"{path}: empty vocabulary")
    return vocab


# auxiliary graph construction ---------------------------------------

def build_knn_similarity_graph(X, k, eta_sim):
    """Cosine k-NN graph, thresholded at eta_sim, symmetrized by union."""
    if k < 0:
        raise ConfigError("k must be >= 0")
    if not -1.0 <= eta_sim <= 1.0:
        raise ConfigError("eta_sim must lie in [-1, 1]")
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k == 0 or n < 2:
        return Graph.from_arrays(n, [], [])
    norms = np.linalg.norm(X, axis=1)
    zero_rows = int((norms == 0).sum())
    if zero_rows:
        logger.warning("%d zero-norm feature rows contribute no k-NN edges",
                       zero_rows)
    safe = np.where(norms > 0, norms, 1.0)
    Xn = X / safe[:, None]
    sims = Xn @ Xn.T
    sims[norms == 0, :] = -np.inf
    sims[:, norms == 0] = -np.inf
    np.fill_diagonal(sims, -np.inf)
    return _top_k_graph(sims, min(k, n - 1), eta_sim)


def _top_k_graph(sims, k, eta_sim):
    """Graph joining each row of `sims` to those of its `k` largest
    entries that are finite and at least `eta_sim`. A pair kept from both
    of its rows weighs `sims[max, min]`, the entry met last in row-major
    order (`sims` need not be exactly symmetric). The partition runs on
    `sims` negated in place, and negating it back restores its bits."""
    n = sims.shape[0]
    rows = np.repeat(np.arange(n), k)
    cols = np.argpartition(np.negative(sims, out=sims), k - 1,
                           axis=1)[:, :k].reshape(-1)
    np.negative(sims, out=sims)
    s = sims[rows, cols]
    ok = np.isfinite(s) & (s >= eta_sim)
    rows, cols, s = rows[ok], cols[ok], s[ok]
    pair = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    _, first_reversed = np.unique(pair[::-1], return_index=True)
    last = len(pair) - 1 - first_reversed
    return Graph.from_arrays(n, rows[last], cols[last], s[last])


def tfidf_class_features(bags: AttributeBag, assignment):
    """Weighted token-embedding features from per-class tf-idf scores.

    Each class forms one document from the bags of its members, the nodes
    whose hard label it is; a node's row mixes its tokens' class-wise
    scores by its soft assignment. Documents and rows are sparse products
    with `B`, the node x token counts.
    """
    R = np.asarray(assignment.R, dtype=np.float64)
    n, K = R.shape
    vocab, B = bags.vocabulary, bags.counts
    counts = np.eye(K)[assignment.hard].T @ B

    doc_len = counts.sum(axis=1)
    tf = np.divide(counts, doc_len[:, None],
                   out=np.zeros_like(counts), where=doc_len[:, None] > 0)
    df = (counts > 0).sum(axis=0)
    idf = np.where(df > 0, np.log(K / np.maximum(df, 1)), 0.0)
    S = tf * idf[None, :]

    out = np.zeros((n, vocab.shape[1]))
    for k in range(K):
        denom = B @ S[k]
        scale = np.divide(R[:, k], denom, out=np.zeros(n), where=denom > 0)
        out += scale[:, None] * (B @ (S[k][:, None] * vocab))
    return out


# synthetic graphs ---------------------------------------------------

# uniform draws per `rng.random` call in `generate_sbm`: 512 KiB
PAIR_DRAWS = 2 ** 16


def _planted_edges(rng, sizes, p_in, p_out):
    """Endpoints `(u, v)` of a planted partition with contiguous blocks of
    `sizes`, in `Graph`'s canonical order (`u < v`, sorted by `(u, v)`):
    pair (i, j) is an edge when its uniform draw is below `p_in` inside a
    block, below `p_out` across.

    The draws run over the upper triangle in row-major pair order, whole
    rows at a time and about `PAIR_DRAWS` per call (a longer row alone),
    so they are the draws of one call over all n(n-1)/2 pairs, in
    O(n + PAIR_DRAWS) memory. Since `p_out <= p_in`, every edge is among
    the draws below `p_in`; only those are mapped back to their pairs."""
    n = sum(sizes)
    rows = np.arange(max(n - 1, 0))
    # start[i]: row-major index of pair (i, i + 1); start[-1]: pair count
    start = np.concatenate([[0], np.cumsum(n - 1 - rows)])
    block_end = np.repeat(np.cumsum(sizes), sizes)
    # every chunk is drawn into one buffer, which saves an allocation and
    # its first touch per chunk (about a tenth of the draws' time)
    buf = np.empty(max(PAIR_DRAWS, n - 1))
    heads, tails = [], []
    lo = 0
    while lo < n - 1:
        hi = max(np.searchsorted(start, start[lo] + PAIR_DRAWS, "right") - 1,
                 lo + 1)
        draws = rng.random(out=buf[:start[hi] - start[lo]])
        hit = np.flatnonzero(draws < p_in)
        pair = hit + start[lo]
        i = np.searchsorted(start[lo:hi], pair, "right") + (lo - 1)
        j = pair - start[i] + i + 1
        keep = (j < block_end[i]) | (draws[hit] < p_out)
        heads.append(i[keep])
        tails.append(j[keep])
        lo = hi
    return np.concatenate(heads or [[]]), np.concatenate(tails or [[]])


def generate_sbm(cfg: SBMConfig):
    """Planted-partition graph with block-structured dep/inv features."""
    rng = np.random.default_rng(cfg.seed)
    sizes = [int(s) for s in cfg.block_sizes]
    n = sum(sizes)
    labels = np.repeat(np.arange(cfg.blocks), sizes)
    u, v = _planted_edges(rng, sizes, cfg.p_in, cfg.p_out)
    graph = Graph(n, u, v, np.ones(len(u)))

    dep = np.zeros((n, cfg.dep_dim))
    dep[np.arange(n), labels] = 1.0
    dep += rng.normal(0.0, cfg.noise_sigma, size=(n, cfg.dep_dim))

    inv = rng.normal(0.0, 1.0, size=(n, cfg.inv_dim))
    if cfg.confound_strength > 0 and cfg.inv_dim > 0:
        # spurious coarse grouping of blocks leaks into the invariant dims
        groups = labels // 2
        n_groups = int(groups.max()) + 1
        width = min(n_groups, cfg.inv_dim)
        onehot = np.zeros((n, cfg.inv_dim))
        onehot[np.arange(n), groups % width] = 1.0
        inv += cfg.confound_strength * onehot

    X = np.concatenate([dep, inv], axis=1)
    return graph, X, labels
