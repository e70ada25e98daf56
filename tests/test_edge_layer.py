"""The array edge layer against the per-edge loops it replaced.

Each reference below is a copy of the earlier scalar implementation; the
array versions must reproduce them exactly (same pairs, same weights, same
generator state afterwards), so seeded runs stay byte-identical.
"""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from mecole.autodiff import normalize_adjacency
from mecole.decoupling import DecoupledEmbeddings, rewire, sample_non_edges
from mecole.errors import DataError
from mecole.graphs import Graph, SBMConfig, _top_k_graph, \
    build_knn_similarity_graph, generate_sbm


def sigmoid_scalar(x):
    x = np.clip(x, -500, 500)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                    np.exp(x) / (1.0 + np.exp(x)))


def reference_edges(edges):
    """The sorted (u, v, w) tuples the tuple-backed Graph stored."""
    return tuple(sorted((min(int(u), int(v)), max(int(u), int(v)), float(w))
                        for u, v, w in edges))


def reference_adjacency(n, edges):
    if not edges:
        return sp.csr_matrix((n, n), dtype=np.float64)
    us = np.array([e[0] for e in edges])
    vs = np.array([e[1] for e in edges])
    ws = np.array([e[2] for e in edges])
    return sp.csr_matrix((np.concatenate([ws, ws]),
                          (np.concatenate([us, vs]), np.concatenate([vs, us]))),
                         shape=(n, n))


def reference_non_edges(edges, n, count, rng):
    edge_set = {(u, v) for u, v, _ in edges}
    out = []
    while len(out) < count:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edge_set:
            continue
        out.append(key)
    return np.asarray(out)


def reference_sbm_pairs(cfg):
    """Edges and generator of the all-pairs planted-partition draw."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    labels = np.repeat(np.arange(cfg.blocks), cfg.block_sizes)
    iu, ju = np.triu_indices(n, k=1)
    probs = np.where(labels[iu] == labels[ju], cfg.p_in, cfg.p_out)
    mask = rng.random(len(iu)) < probs
    return list(zip(iu[mask].tolist(), ju[mask].tolist())), rng


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    pairs = {(int(min(a, b)), int(max(a, b)))
             for a, b in rng.integers(0, n, size=(m, 2)) if a != b}
    return Graph.from_pairs(n, pairs)


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


# Graph ----------------------------------------------------------------------

edge_lists = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.floats(0.1, 10.0)), max_size=40)))


def graph_of(n, edges):
    """`Graph.from_arrays` on (u, v, w) triples in any order and
    orientation."""
    return Graph.from_arrays(n, [e[0] for e in edges], [e[1] for e in edges],
                             [e[2] for e in edges])


def _clean(edges):
    """Drop self-loops and repeated pairs (either orientation)."""
    seen, out = set(), []
    for u, v, w in edges:
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            out.append((u, v, w))
    return out


@settings(max_examples=150, deadline=None)
@given(edge_lists)
def test_graph_matches_tuple_view(case):
    n, raw = case
    edges = _clean(raw)
    g = graph_of(n, edges)
    assert g.edges == reference_edges(edges)
    assert g.num_edges == len(edges)
    assert g.degrees.sum() == 2 * g.num_edges
    assert_same_csr(g.adjacency, reference_adjacency(n, g.edges))
    dense = g.adjacency.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.all(g.u < g.v)
    same = Graph(n, g.u, g.v, g.w)  # canonical arrays pass the checks
    assert same.edges == g.edges
    assert_same_csr(same.adjacency, g.adjacency)


@settings(max_examples=150, deadline=None)
@given(edge_lists, st.data())
def test_graph_rejects_bad_edge_lists(case, data):
    n, raw = case
    edges = _clean(raw)
    u = data.draw(st.integers(0, n - 1))
    bad = data.draw(st.sampled_from(["loop", "range", "negative", "dup"]))
    if bad == "loop":
        edges.append((u, u, 1.0))
    elif bad == "range":
        edges.append((u, n + data.draw(st.integers(0, 5)), 1.0))
    elif bad == "negative":
        edges.append((-1, u, 1.0))
    elif edges:
        a, b, _ = data.draw(st.sampled_from(edges))
        edges.append((b, a, 2.0))  # the same pair, other orientation
    else:
        return
    pos = data.draw(st.integers(0, len(edges) - 1))
    edges.insert(pos, edges.pop())
    with pytest.raises(DataError):
        graph_of(n, edges)


def test_derived_graphs_match_rebuilds(rng):
    g = random_graph(30, 80, 1)
    w = rng.uniform(0.5, 2.0, size=g.num_edges)
    rebuilt = graph_of(g.n, [(u, v, x) for (u, v, _), x in zip(g.edges, w)])
    assert g.with_weights(w).edges == rebuilt.edges
    assert_same_csr(g.with_weights(w).adjacency, rebuilt.adjacency)

    keep = rng.random(g.num_edges) < 0.5
    kept = graph_of(g.n, [e for e, k in zip(g.edges, keep) if k])
    assert g.keep_edges(keep).edges == kept.edges
    assert_same_csr(g.keep_edges(keep).adjacency, kept.adjacency)

    nodes = sorted(rng.choice(30, size=18, replace=False).tolist())
    remap = {old: new for new, old in enumerate(nodes)}
    sub = graph_of(18, [(remap[u], remap[v], x) for u, v, x in g.edges
                        if u in remap and v in remap])
    assert g.subgraph(nodes).edges == sub.edges
    assert_same_csr(g.subgraph(nodes).adjacency, sub.adjacency)


def reference_normalized(graph):
    """D^-1/2 (A + I) D^-1/2 with A + I as the sparse sum makes it, which
    drops a zero-weight edge."""
    a_hat = graph.adjacency + sp.identity(graph.n, format="csr")
    d = 1.0 / np.sqrt(np.asarray(a_hat.sum(axis=1)).ravel())
    a_hat.data *= np.repeat(d, np.diff(a_hat.indptr))
    a_hat.data *= d[a_hat.indices]
    return a_hat


def test_with_weights_fills_the_parents_slots():
    """A `with_weights` graph of a subgraph and of a k-NN-weighted graph
    shares its parent's CSR structure, and equals a fresh build on the
    same arrays in its adjacency and its normalization, also where a new
    weight is zero."""
    graph, X, _ = generate_sbm(SBMConfig(blocks=3, block_sizes=(30,) * 3,
                                         p_in=0.3, p_out=0.05, seed=4))
    rng = np.random.default_rng(5)
    keep = np.sort(rng.choice(graph.n, size=60, replace=False))
    for base in (graph.subgraph(keep), build_knn_similarity_graph(X, 4, 0.0)):
        positive = rng.uniform(0.1, 4.0, base.num_edges)
        some_zero = np.where(rng.random(base.num_edges) < 0.2, 0.0, positive)
        for w in (positive, some_zero):
            derived = base.with_weights(w)
            fresh = Graph(base.n, base.u.copy(), base.v.copy(), w)
            assert np.shares_memory(derived.adjacency.indices,
                                    base.adjacency.indices)
            assert_same_csr(derived.adjacency, fresh.adjacency)
            for g in (derived, fresh):
                assert_same_csr(normalize_adjacency(g),
                                reference_normalized(fresh))
    with pytest.raises(ValueError, match="pattern"):
        Graph(base.n, base.u.copy(), base.v, base.w, base.pattern)


def reference_slots(u, v):
    """Per CSR slot of A, the edge whose weight it holds: the CSR stores
    `(u, v)` and `(v, u)` by row, then column, an order with no ties."""
    order = np.lexsort((np.concatenate([v, u]), np.concatenate([u, v])))
    return np.where(order < u.size, order, order - u.size)


def reference_plus_identity(graph):
    """The structure of A + I as a sparse sum makes it from A's structure,
    so a zero-weight edge keeps its slot."""
    A = graph.adjacency
    ones = sp.csr_matrix((np.ones(A.indices.size), A.indices, A.indptr),
                         shape=A.shape)
    return ones + sp.identity(graph.n, format="csr")


@settings(max_examples=150, deadline=None)
@given(edge_lists, st.booleans())
@example((1, []), False)
@example((3, []), True)
@example((6, [(4, 1, 2.0), (0, 1, 3.0), (1, 2, 0.5)]), True)  # 3, 5 isolated
def test_one_conversion_matches_the_references(case, zero_first):
    """A fresh graph and a `with_weights` one hold the CSR of A and the
    structure of A + I that the sort and the sparse sum made, also with
    edge 0, whose id is the conversion's data value 0, weighing 0."""
    n, raw = case
    g = graph_of(n, _clean(raw))
    w = g.w.copy()
    if zero_first:
        w[:1] = 0.0
    for x in (Graph(n, g.u.copy(), g.v.copy(), w), g.with_weights(w)):
        want = reference_adjacency(n, x.edges)
        assert_same_csr(x.adjacency, want)
        assert x.adjacency.data.tobytes() == want.data.tobytes()
        assert np.array_equal(x.pattern.slots, reference_slots(x.u, x.v))
        hat = reference_plus_identity(x)
        indptr, indices, off = x.pattern.plus_identity
        for got, ref in ((indptr, hat.indptr), (indices, hat.indices)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        rows = np.repeat(np.arange(n), np.diff(hat.indptr))
        assert np.array_equal(off, np.flatnonzero(hat.indices != rows))
        assert_same_csr(x.plus_identity(),
                        x.adjacency + sp.identity(n, format="csr"))


def test_adjacent_reads_the_structure_not_the_weights():
    g = Graph(6, [0, 0, 1, 2], [1, 4, 2, 4], [0.0, 1.0, -2.0, 0.0])
    a, b = np.divmod(np.arange(36), 6)
    edges = {(u, v) for u, v, _ in g.edges}
    want = [(min(x, y), max(x, y)) in edges for x, y in zip(a, b)]
    assert g.adjacent(a, b).tolist() == want


def test_graph_arrays_are_read_only():
    g = Graph.from_pairs(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.w[0] = 2.0
    # the CSR structures are shared with every `with_weights` graph
    hat = g.plus_identity()
    for arr in (g.adjacency.indices, g.with_weights([2.0]).adjacency.indptr,
                g.pattern.slots, hat.indptr, hat.indices):
        with pytest.raises(ValueError):
            arr[0] = 2


# generate_sbm ----------------------------------------------------------------

@pytest.mark.parametrize("cfg", [
    SBMConfig(blocks=3, block_sizes=(10, 10, 10), p_in=0.5, p_out=0.1,
              seed=42),
    SBMConfig(blocks=4, block_sizes=(7, 30, 1, 12), p_in=0.3, p_out=0.05,
              seed=0, confound_strength=1.5),
    SBMConfig(blocks=2, block_sizes=(25, 40), p_in=0.2, p_out=0.0, seed=9),
    SBMConfig(blocks=2, block_sizes=(1, 1), p_in=1.0, p_out=1.0, seed=3),
    SBMConfig(blocks=5, block_sizes=(60,) * 5, p_in=0.05, p_out=0.005,
              seed=123, confound_strength=0.7),
])
def test_sbm_matches_all_pairs_draw(cfg):
    pairs, rng = reference_sbm_pairs(cfg)
    g, X, labels = generate_sbm(cfg)
    assert g.edges == Graph.from_pairs(cfg.n, pairs).edges
    # the features come from the same stream, drawn after the edges
    dep = np.zeros((cfg.n, cfg.dep_dim))
    dep[np.arange(cfg.n), labels] = 1.0
    dep += rng.normal(0.0, cfg.noise_sigma, size=(cfg.n, cfg.dep_dim))
    assert np.array_equal(X[:, :cfg.dep_dim], dep)


# sample_non_edges --------------------------------------------------------------

def near_complete_graph(n, missing, seed):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    drop = set(rng.choice(len(pairs), size=missing, replace=False).tolist())
    return Graph.from_pairs(n, [p for i, p in enumerate(pairs)
                                if i not in drop])


@pytest.mark.parametrize("g,count,seed", [
    (random_graph(3, 2, 99), 2, 99), (random_graph(10, 30, 0), 50, 0),
    (random_graph(40, 300, 1), 300, 1), (random_graph(200, 2000, 2), 5000, 2),
    # 20 non-edges among 435 pairs: about 22 draws per non-edge
    (near_complete_graph(30, 20, 3), 100, 3),
    # stored zero-weight edges are edges
    (Graph(5, [0, 1, 2], [1, 2, 4], [0.0, 1.0, 0.0]), 50, 4),
])
def test_sample_non_edges_matches_scalar_loop(g, count, seed):
    n = g.n
    ref_rng = np.random.default_rng([seed, 5])
    expected = reference_non_edges(g.edges, n, count, ref_rng)
    rng = np.random.default_rng([seed, 5])
    got = sample_non_edges(g, count, rng)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # the stream after sampling is the one the scalar loop leaves
    assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)


def test_sample_non_edges_near_complete_graph_raises_fast():
    pairs = [(u, v) for u in range(200) for v in range(u + 1, 200)
             if (u, v) != (0, 1)]
    g = Graph.from_pairs(200, pairs)
    start = time.perf_counter()
    with pytest.raises(DataError, match="too dense"):
        sample_non_edges(g, 50, np.random.default_rng(0))
    assert time.perf_counter() - start < 1.0


class _StuckGenerator:
    """Draws node 0 forever, so every pair is a self-pair."""

    def integers(self, high, size):
        return np.zeros(size, dtype=np.int64)


def test_sample_non_edges_gives_up_after_its_draw_budget():
    g = Graph.from_pairs(10, [(0, 1)])
    with pytest.raises(DataError, match="drawn pairs"):
        sample_non_edges(g, 1000, _StuckGenerator())


# rewire ------------------------------------------------------------------------

def reference_rewire_weights(graph, ho, eta):
    return [min(eta, w / max(float(sigmoid_scalar(ho[u] @ ho[v])), 1e-8))
            for u, v, w in graph.edges]


def test_rewire_equals_scalar_formula():
    rng = np.random.default_rng(20)
    g = random_graph(20, 60, 4)
    ho = rng.normal(size=(20, 32))
    E = DecoupledEmbeddings.from_arrays(rng.normal(size=(20, 4)), ho)
    got = [w for _, _, w in rewire(g, E, 4.0).edges]
    assert got == reference_rewire_weights(g, ho, 4.0)


@settings(max_examples=100, deadline=None)
@given(edge_lists, st.integers(0, 2 ** 32 - 1), st.floats(0.5, 8.0),
       st.floats(0.1, 5.0))
def test_rewired_weights_bounded(case, seed, eta, scale):
    n, raw = case
    g = Graph.from_pairs(n, [(u, v) for u, v, _ in _clean(raw)])
    rng = np.random.default_rng(seed)
    ho = scale * rng.normal(size=(n, 3))
    E = DecoupledEmbeddings.from_arrays(rng.normal(size=(n, 2)), ho)
    rw = rewire(g, E, eta)
    assert np.array_equal(rw.u, g.u) and np.array_equal(rw.v, g.v)
    assert np.all(rw.w > 0) and np.all(rw.w <= eta)
    assert [w for _, _, w in rw.edges] == \
        reference_rewire_weights(g, ho, eta)


def reference_top_k_edges(sims, k, eta_sim):
    """The k-NN loop the array version replaced: a dict keyed by the
    unordered pair keeps the weight seen last."""
    n = sims.shape[0]
    edges = {}
    top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    for i in range(n):
        for j in top[i]:
            s = sims[i, j]
            if not np.isfinite(s) or s < eta_sim:
                continue
            edges[(min(i, int(j)), max(i, int(j)))] = s
    return reference_edges((u, v, w) for (u, v), w in edges.items())


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k, eta", [(1, -1.0), (3, 0.0), (5, 0.2), (40, -1.0)])
def test_knn_graph_matches_scalar_loop(seed, k, eta):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(30, 4))
    X[rng.integers(30)] = 0.0  # a zero-norm row contributes no edges
    g = build_knn_similarity_graph(X, k, eta)
    norms = np.linalg.norm(X, axis=1)
    Xn = X / np.where(norms > 0, norms, 1.0)[:, None]
    sims = Xn @ Xn.T
    sims[norms == 0, :] = -np.inf
    sims[:, norms == 0] = -np.inf
    np.fill_diagonal(sims, -np.inf)
    assert g.edges == reference_top_k_edges(sims, min(k, 29), eta)


@pytest.mark.parametrize("seed", range(6))
def test_knn_graph_asymmetric_sims_keep_last_weight(seed):
    # a perturbed similarity matrix: (i, j) and (j, i) differ, so the
    # weight of a pair kept from both rows shows which one won
    rng = np.random.default_rng(seed)
    n, k = 25, 4
    sims = rng.uniform(-1, 1, size=(n, n))
    sims = (sims + sims.T) / 2 + rng.normal(scale=1e-3, size=(n, n))
    sims[rng.random((n, n)) < 0.05] = np.nan
    np.fill_diagonal(sims, -np.inf)
    g = _top_k_graph(sims, k, 0.0)
    assert g.edges == reference_top_k_edges(sims, k, 0.0)
    top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    kept = {(i, int(j)) for i in range(n) for j in top[i]
            if np.isfinite(sims[i, j]) and sims[i, j] >= 0.0}
    both = [(u, v, w) for u, v, w in g.edges
            if (u, v) in kept and (v, u) in kept]
    assert both
    assert all(w == sims[v, u] != sims[u, v] for u, v, w in both)


def test_knn_graph_peaks_below_three_square_arrays():
    # the similarity matrix and the partition's indices are n x n; a
    # negated copy of the similarities would be a third
    n = 1000
    X = np.random.default_rng(0).normal(size=(n, 8))
    tracemalloc.start()
    try:
        build_knn_similarity_graph(X, 5, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8
