import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mecole import graphs
from mecole.clustering import Assignment
from mecole.errors import ConfigError, DataError
from mecole.graphs import AttributeBag, Graph, GraphBundle, SBMConfig, \
    build_knn_similarity_graph, generate_sbm, load_attribute_bags, \
    load_edge_list, load_features, load_labels, load_vocabulary, \
    tfidf_class_features


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# load_edge_list -------------------------------------------------------

def test_load_edge_list_basic(tmp_path):
    g = load_edge_list(write(tmp_path, "e.txt", "0 1\n1 2\n"))
    assert g.n == 3
    assert {(u, v) for u, v, _ in g.edges} == {(0, 1), (1, 2)}
    assert g.degrees.tolist() == [1, 2, 1]


def test_load_edge_list_dedup_and_self_loop(tmp_path):
    g = load_edge_list(write(tmp_path, "e.txt", "0 1\n1 0\n2 2\n"))
    assert g.n == 3
    assert {(u, v) for u, v, _ in g.edges} == {(0, 1)}


def test_load_edge_list_comments_and_tabs(tmp_path):
    g = load_edge_list(write(tmp_path, "e.txt", "# header\n0\t1\n"))
    assert g.num_edges == 1


def test_load_edge_list_malformed_line(tmp_path):
    with pytest.raises(DataError, match=":2:"):
        load_edge_list(write(tmp_path, "e.txt", "0 1\n0 x\n"))


def test_load_edge_list_empty(tmp_path):
    with pytest.raises(DataError, match="empty"):
        load_edge_list(write(tmp_path, "e.txt", "# nothing\n1 1\n"))


def test_load_edge_list_n_hint(tmp_path):
    g = load_edge_list(write(tmp_path, "e.txt", "0 1\n"), n_hint=5)
    assert g.n == 5


# load_features ---------------------------------------------------------

def test_load_features_basic(tmp_path):
    X = load_features(write(tmp_path, "f.csv", "1,2\n3,4\n5,6\n"), 3)
    assert X.shape == (3, 2)
    assert X[2].tolist() == [5.0, 6.0]


def test_load_features_row_mismatch(tmp_path):
    with pytest.raises(DataError, match="row count mismatch"):
        load_features(write(tmp_path, "f.csv", "1 2\n3 4\n"), 3)


def test_load_features_non_numeric(tmp_path):
    with pytest.raises(DataError, match="non-numeric"):
        load_features(write(tmp_path, "f.csv", "1 2\n3 oops\n"), 2)


def test_load_features_ragged_rows(tmp_path):
    with pytest.raises(DataError, match="differ in length"):
        load_features(write(tmp_path, "f.csv", "1 2\n3\n"), 2)


def test_load_vocabulary(tmp_path):
    V = load_vocabulary(write(tmp_path, "v.txt", "# emb\n1,0\n0 1\n"))
    assert V.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(DataError, match="differ in length"):
        load_vocabulary(write(tmp_path, "v.txt", "1 0\n1\n"))
    with pytest.raises(DataError, match=":2:"):
        load_vocabulary(write(tmp_path, "v.txt", "1 0\nx 1\n"))


@pytest.mark.parametrize("row", ["nan 1", "1 inf", "-inf 0"])
def test_load_vocabulary_rejects_non_finite_entries(tmp_path, row):
    path = write(tmp_path, "v.txt", f"1 0\n{row}\n")
    with pytest.raises(DataError, match="non-finite") as info:
        load_vocabulary(path)
    assert str(path) in str(info.value)


def test_load_labels_accepts_minus_one_and_rejects_below(tmp_path):
    assert load_labels(write(tmp_path, "l.txt", "0\n-1\n2\n")).tolist() \
        == [0, -1, 2]
    with pytest.raises(DataError, match="label -3 below -1"):
        load_labels(write(tmp_path, "l.txt", "0\n-1\n-3\n-2\n"))


def test_loaders_map_unreadable_files_to_data_error(tmp_path):
    missing = tmp_path / "missing.txt"
    for load in (load_edge_list, load_labels, load_attribute_bags,
                 load_vocabulary, lambda p: load_features(p, 1)):
        with pytest.raises(DataError, match="cannot read"):
            load(missing)
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"0 1\n\xff\xfe\n")
    with pytest.raises(DataError, match="cannot read"):
        load_edge_list(binary)


# Graph invariants -------------------------------------------------------

def test_graph_rejects_self_loops():
    with pytest.raises(DataError):
        Graph.from_pairs(2, [(0, 0)])


@pytest.mark.parametrize("u, v, message", [
    ([1], [0], r"edge \(1,0\) not stored as u < v"),
    ([0, 0], [2, 1], r"edge out of \(u, v\) order: \(0,1\)"),
    ([1, 0], [2, 1], r"edge out of \(u, v\) order: \(0,1\)"),
    ([0, 0], [1, 1], r"duplicate edge \(0,1\)"),
    ([0, 1], [1, 1], r"self-loop \(1,1\)"),
    ([0, 1], [1, 3], r"edge \(1,3\) out of range for n=3"),
    ([-1, 0], [0, 1], r"edge \(-1,0\) out of range for n=3"),
    # several faults: self-loop, then out of range, then duplicate
    ([0, 0, 2, 2], [1, 1, 2, 5], r"self-loop \(2,2\)"),
    ([0, 0, 1], [1, 1, 7], r"edge \(1,7\) out of range"),
    ([0], [1, 2], "differ in length"),
])
def test_graph_constructor_rejects_non_canonical_arrays(u, v, message):
    with pytest.raises(DataError, match=message):
        Graph(3, np.array(u), np.array(v), np.ones(len(u)))


def test_graph_constructor_takes_canonical_arrays():
    g = Graph(4, np.array([0, 0, 2]), np.array([1, 3, 3]),
              np.array([1.0, 2.0, 3.0]))
    assert g.edges == ((0, 1, 1.0), (0, 3, 2.0), (2, 3, 3.0))
    assert g.edges == Graph.from_arrays(4, [3, 1, 2], [0, 0, 3],
                                        [2.0, 1.0, 3.0]).edges
    assert Graph(2, [], [], []).adjacency.nnz == 0


def test_every_graph_is_built_by_the_constructor(tmp_path, monkeypatch):
    built = []
    init = Graph.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    path = write(tmp_path, "e.txt", "0 1\n1 2\n")
    X = np.eye(4) + 0.1
    builders = {
        "from_arrays": lambda: Graph.from_arrays(3, [0], [1]),
        "from_pairs": lambda: Graph.from_pairs(3, [(0, 1)]),
        "with_weights": lambda: g.with_weights([1.0, 2.0, 3.0]),
        "keep_edges": lambda: g.keep_edges(np.array([True, False, True])),
        "subgraph": lambda: g.subgraph([0, 1, 3]),
        "load_edge_list": lambda: load_edge_list(path),
        "generate_sbm": lambda: generate_sbm(SBMConfig(
            blocks=2, block_sizes=(5, 5), p_in=0.5, p_out=0.1)),
        "knn": lambda: build_knn_similarity_graph(X, 2, 0.0),
        "knn_empty": lambda: build_knn_similarity_graph(X, 0, 0.0),
    }
    for name, build in builders.items():
        built.clear()
        build()
        assert len(built) == 1, name


def test_adjacency_symmetry_exhaustive(rng):
    pairs = {(int(min(u, v)), int(max(u, v)))
             for u, v in rng.integers(0, 200, size=(500, 2)) if u != v}
    g = Graph.from_pairs(200, pairs)
    dense = g.adjacency.toarray()
    assert np.array_equal(dense, dense.T)
    assert g.degrees.sum() == 2 * g.num_edges


def assert_exactly_symmetric(graph):
    """What the modularity init's gradient relies on to use `A @ Y` for
    `Aᵀ @ Y`: equal entries, sorted indices, so both products add the
    same terms in the same order."""
    A = graph.adjacency
    assert (A != A.T).nnz == 0
    assert A.has_canonical_format
    rng = np.random.default_rng(graph.num_edges)
    # magnitudes far apart, so a change of summation order shows
    Y = rng.normal(size=(graph.n, 3)) * 10.0 ** rng.uniform(
        -8, 8, size=(graph.n, 1))
    assert (A @ Y).tobytes() == (A.T @ Y).tobytes()


@st.composite
def weighted_edge_lists(draw):
    n = draw(st.integers(2, 30))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]),
        min_size=1, max_size=80, unique_by=lambda p: (min(p), max(p))))
    weights = draw(st.lists(st.floats(0.0, 1e6), min_size=len(pairs),
                            max_size=len(pairs)))
    return n, pairs, weights


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edges=weighted_edge_lists(), data=st.data())
def test_adjacency_exactly_symmetric_from_every_builder(tmp_path, edges,
                                                        data):
    n, pairs, weights = edges
    g = Graph.from_pairs(n, pairs)
    assert_exactly_symmetric(g)
    u, v = np.array(pairs).T
    assert_exactly_symmetric(Graph.from_arrays(n, u, v, weights))
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs))
    assert_exactly_symmetric(load_edge_list(str(path)))
    weighted = g.with_weights(weights)
    assert_exactly_symmetric(weighted)
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
    assert_exactly_symmetric(weighted.keep_edges(np.array(mask, dtype=bool)))
    keep = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    assert_exactly_symmetric(weighted.subgraph(keep))


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 15), min_size=1, max_size=4),
       p_in=st.floats(0.0, 1.0), ratio=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sbm_adjacency_exactly_symmetric(sizes, p_in, ratio, seed):
    graph, _, _ = generate_sbm(SBMConfig(
        blocks=len(sizes), block_sizes=tuple(sizes), p_in=p_in,
        p_out=p_in * ratio, seed=seed))
    assert_exactly_symmetric(graph)


@settings(max_examples=80, deadline=None)
@given(X=arrays(np.float64, st.tuples(st.integers(2, 25), st.integers(1, 5)),
                elements=st.floats(-100.0, 100.0, allow_subnormal=False)),
       k=st.integers(1, 6), eta_sim=st.floats(-1.0, 1.0))
def test_knn_adjacency_exactly_symmetric(X, k, eta_sim):
    assert_exactly_symmetric(build_knn_similarity_graph(X, k, eta_sim))


def test_bundle_node_space_mismatch():
    g1 = Graph.from_pairs(3, [(0, 1)])
    g2 = Graph.from_pairs(4, [(0, 1)])
    with pytest.raises(DataError):
        GraphBundle(primary=g1, auxiliary={"G_V": g2})


# k-NN similarity graph ----------------------------------------------------

def test_knn_k_zero_empty(rng):
    g = build_knn_similarity_graph(rng.normal(size=(5, 3)), 0, 0.0)
    assert g.num_edges == 0


def test_knn_threshold_one_excludes_all(rng):
    X = rng.normal(size=(6, 4))
    g = build_knn_similarity_graph(X, 2, 1.0)
    assert g.num_edges == 0


def test_knn_hand_computed_cosines():
    X = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    g = build_knn_similarity_graph(X, 1, 0.5)
    expected_w = float(X[0] @ X[1] / (np.linalg.norm(X[0]) *
                                      np.linalg.norm(X[1])))
    assert {(u, v) for u, v, _ in g.edges} == {(0, 1)}
    assert g.edges[0][2] == pytest.approx(expected_w)


def test_knn_degree_sum_and_threshold(rng):
    X = rng.normal(size=(40, 6))
    k, eta = 3, 0.1
    g = build_knn_similarity_graph(X, k, eta)
    assert g.degrees.sum() == 2 * g.num_edges
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    for u, v, w in g.edges:
        assert w >= eta
        assert w == pytest.approx(float(Xn[u] @ Xn[v]))
    # union-symmetrized k-NN: each edge came from at least one endpoint's
    # top-k list, so no node can exceed k candidates it originated
    sims = Xn @ Xn.T
    np.fill_diagonal(sims, -np.inf)
    for u, v, w in g.edges:
        rank_u = (sims[u] > sims[u, v]).sum()
        rank_v = (sims[v] > sims[v, u]).sum()
        assert min(rank_u, rank_v) < k


def test_knn_zero_norm_row_excluded():
    X = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 0.0]])
    g = build_knn_similarity_graph(X, 2, -1.0)
    touched = {u for e in g.edges for u in e[:2]}
    assert 2 not in touched


# tf-idf class features ------------------------------------------------------

def bag_of(rows, vocabulary):
    """`AttributeBag.from_rows` of per-node token-id tuples; an id beyond
    int64 makes the ids an object array, as the bag loader does."""
    tokens = [t for row in rows for t in row]
    return AttributeBag.from_rows(
        np.cumsum([0, *map(len, rows)]),
        np.array(tokens) if tokens else np.zeros(0, np.int64), vocabulary)


def bag_rows(bags):
    """The per-node token-id tuples of an `AttributeBag`, in bag order."""
    B = bags.counts
    return [tuple(B.indices[a:b].tolist())
            for a, b in zip(B.indptr[:-1], B.indptr[1:])]


def make_assignment(hard, K):
    n = len(hard)
    R = np.full((n, K), 1e-6)
    for i, k in enumerate(hard):
        R[i, k] = 1.0
    R /= R.sum(axis=1, keepdims=True)
    return Assignment(R=R)


def test_tfidf_single_class_all_zero():
    vocab = np.eye(2)
    bags = bag_of(((0,), (1,)), vocab)
    # K=1 is not representable (K >= 2); emulate by two classes where one
    # is empty: tokens present only in the populated class get idf log 2
    a = make_assignment([0, 0], 2)
    out = tfidf_class_features(bags, a)
    assert out.shape == (2, 2)
    # every token appears in exactly one of two docs -> idf = log 2 > 0
    assert np.allclose(out[0], [1.0, 0.0], atol=1e-5)


def test_tfidf_empty_bag_zero_row():
    vocab = np.eye(2)
    bags = bag_of(((0,), ()), vocab)
    a = make_assignment([0, 1], 2)
    out = tfidf_class_features(bags, a)
    assert np.array_equal(out[1], np.zeros(2))


def test_tfidf_hand_computed_two_classes():
    # class-1 doc = {a, a}, class-2 doc = {b}; x_a=(1,0), x_b=(0,1)
    vocab = np.eye(2)
    bags = bag_of(((0, 0), (1,), (0,)), vocab)
    a = make_assignment([0, 1, 0], 2)
    out = tfidf_class_features(bags, a)
    # token a: tf=1 in doc1, df=1 -> idf=log2; node 2 bag {a} hard class 1
    # row = r_0 * (S_{0,a} x_a) / S_{0,a} = x_a (up to soft-assignment eps)
    assert out[2] == pytest.approx([1.0, 0.0], abs=1e-5)


def test_tfidf_token_order_invariance(rng):
    vocab = rng.normal(size=(5, 3))
    bags1 = bag_of(((0, 1, 2), (3, 4), (2, 0)), vocab)
    bags2 = bag_of(((2, 1, 0), (4, 3), (0, 2)), vocab)
    a = make_assignment([0, 1, 0], 2)
    assert np.allclose(tfidf_class_features(bags1, a),
                       tfidf_class_features(bags2, a))


def test_attribute_bag_unknown_token():
    with pytest.raises(DataError):
        bag_of(((0, 7),), np.eye(2))


def test_attribute_bag_counts_keep_bag_order_and_repeats():
    # `B` is not summed or sorted: the products add each bag's tokens in
    # bag order, a repeated token once per time it is listed
    rows = [(3, 1, 3, 0), (), (2, 2), (4,)]
    bags = bag_of(rows, np.eye(5))
    assert bag_rows(bags) == rows
    assert bags.counts.shape == (4, 5) and (bags.counts.data == 1).all()


def tfidf_reference(bags, assignment):
    """`tfidf_class_features` as loops over nodes, tokens and classes."""
    R = np.asarray(assignment.R, dtype=np.float64)
    n, K = R.shape
    vocab = bags.vocabulary
    V, dim = vocab.shape
    hard = R.argmax(axis=1)
    rows = bag_rows(bags)

    counts = np.zeros((K, V))
    for i in range(n):
        for tok in rows[i]:
            counts[hard[i], tok] += 1

    doc_len = counts.sum(axis=1)
    tf = np.divide(counts, doc_len[:, None],
                   out=np.zeros_like(counts), where=doc_len[:, None] > 0)
    df = (counts > 0).sum(axis=0)
    idf = np.where(df > 0, np.log(K / np.maximum(df, 1)), 0.0)
    S = tf * idf[None, :]

    out = np.zeros((n, dim))
    for i in range(n):
        bag = rows[i]
        if not bag:
            continue
        toks = np.asarray(bag)
        emb = vocab[toks]
        for k in range(K):
            s = S[k, toks]
            denom = s.sum()
            if denom > 0:
                out[i] += R[i, k] * (s @ emb) / denom
    return out


def random_bag_case(seed, empty_class):
    """40 random bags over 12 tokens and K=4, with repeated tokens and
    empty bags. With `empty_class`, class 3 has no member; without, token 0
    is in every class's document, so its idf is log(4/4) = 0. Token 11 is
    in no bag, so its df is 0."""
    rng = np.random.default_rng(seed)
    n, V, K = 40, 12, 4
    bags = [tuple(rng.integers(0, V - 1, size=rng.integers(0, 9)).tolist())
            for _ in range(n)]
    hard = rng.integers(0, K - 1 if empty_class else K, size=n)
    bags[0], bags[1], bags[2] = (3, 3, 5, 3), (), ()
    if not empty_class:
        for k in range(K):
            bags[5 + k] = (0,) + bags[5 + k]
            hard[5 + k] = k
    logits = rng.normal(size=(n, K))
    logits[np.arange(n), hard] += 10.0
    R = np.exp(logits)
    R /= R.sum(axis=1, keepdims=True)
    assert (R.argmax(axis=1) == hard).all()
    vocab = rng.normal(size=(V, 3))
    return bag_of(tuple(bags), vocab), Assignment(R=R)


@pytest.mark.parametrize("empty_class", [True, False])
@pytest.mark.parametrize("seed", range(5))
def test_tfidf_matches_the_loop_reference(seed, empty_class):
    bags, a = random_bag_case(seed, empty_class)
    got, want = tfidf_class_features(bags, a), tfidf_reference(bags, a)
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert (np.abs(got - want) <= 1e-12 * scale).all()
    # the empty bags give zero rows
    assert not got[1:3].any() and got[3:].any()


def test_attribute_bag_names_the_first_bad_token():
    # the first bad token in bag order, its node counted past empty bags,
    # and an id beyond int64
    vocab = np.eye(3)
    for bags, node, tok in [(((0,), (), (), (1, 5, -1)), 3, 5),
                            (((2,), (0, -4), (7,)), 1, -4),
                            (((), (1, 2 ** 70)), 1, 2 ** 70)]:
        with pytest.raises(DataError, match=f"^node {node}: token {tok} "
                                            "missing from vocabulary$"):
            bag_of(bags, vocab)


# SBM generator ----------------------------------------------------------

def test_sbm_disjoint_cliques():
    cfg = SBMConfig(blocks=2, block_sizes=(2, 2), p_in=1.0, p_out=0.0, seed=1)
    g, X, labels = generate_sbm(cfg)
    assert {(u, v) for u, v, _ in g.edges} == {(0, 1), (2, 3)}
    assert labels.tolist() == [0, 0, 1, 1]


def test_sbm_deterministic():
    cfg = SBMConfig(blocks=3, block_sizes=(10, 10, 10), p_in=0.5, p_out=0.1,
                    seed=42)
    g1, X1, l1 = generate_sbm(cfg)
    g2, X2, l2 = generate_sbm(cfg)
    assert g1.edges == g2.edges
    assert np.array_equal(X1, X2)
    assert np.array_equal(l1, l2)


def test_sbm_expected_degrees_within_3_sigma():
    cfg = SBMConfig(blocks=4, block_sizes=(100,) * 4, p_in=0.10, p_out=0.01,
                    seed=7)
    g, _, labels = generate_sbm(cfg)
    A = g.adjacency.toarray()
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    intra = A[same].sum() / (2 * g.n)  # intra half-degree per node * 2
    inter = A[~same].sum() / g.n
    # binomial expectations: intra 99 * 0.10, inter 300 * 0.01
    exp_intra, exp_inter = 99 * 0.10, 300 * 0.01
    sd_intra = np.sqrt(99 * 0.10 * 0.90 / g.n)
    sd_inter = np.sqrt(300 * 0.01 * 0.99 / g.n)
    assert abs(A[same].sum() / g.n - exp_intra) < 3 * sd_intra * np.sqrt(2)
    assert abs(inter - exp_inter) < 3 * sd_inter * np.sqrt(2)


def sbm_reference(cfg):
    """`generate_sbm` drawing one row of the upper triangle per call."""
    rng = np.random.default_rng(cfg.seed)
    sizes = [int(s) for s in cfg.block_sizes]
    n = sum(sizes)
    labels = np.repeat(np.arange(cfg.blocks), sizes)
    pair_probs = np.where(labels[None, :] == np.arange(cfg.blocks)[:, None],
                          cfg.p_in, cfg.p_out)
    heads, tails = [], []
    for i in range(n - 1):
        hit = rng.random(n - 1 - i) < pair_probs[labels[i], i + 1:]
        tails.append(np.flatnonzero(hit) + (i + 1))
        heads.append(np.full(len(tails[-1]), i))
    graph = Graph.from_arrays(n, np.concatenate(heads or [[]]),
                              np.concatenate(tails or [[]]))

    dep = np.zeros((n, cfg.dep_dim))
    dep[np.arange(n), labels] = 1.0
    dep += rng.normal(0.0, cfg.noise_sigma, size=(n, cfg.dep_dim))
    inv = rng.normal(0.0, 1.0, size=(n, cfg.inv_dim))
    if cfg.confound_strength > 0 and cfg.inv_dim > 0:
        groups = labels // 2
        width = min(int(groups.max()) + 1, cfg.inv_dim)
        onehot = np.zeros((n, cfg.inv_dim))
        onehot[np.arange(n), groups % width] = 1.0
        inv += cfg.confound_strength * onehot
    return graph, np.concatenate([dep, inv], axis=1), labels


def random_sbm_configs():
    """24 small configs: p_in of 0 and 1, p_out of 0 and equal to p_in,
    one-node and empty blocks, confounded features."""
    rng = np.random.default_rng(11)
    configs = []
    for seed in range(24):
        blocks = int(rng.integers(1, 6))
        sizes = rng.integers(1, 40, size=blocks)
        sizes[rng.random(blocks) < 0.25] = 1
        if seed % 6 == 5:
            sizes[0] = 0
        p_in = (0.0, 1.0, float(rng.random()))[seed % 3]
        p_out = (0.0, p_in, p_in * float(rng.random()))[seed // 3 % 3]
        configs.append(SBMConfig(
            blocks=blocks, block_sizes=tuple(sizes.tolist()), p_in=p_in,
            p_out=p_out, dep_dim=blocks + 1, inv_dim=seed % 4,
            confound_strength=(0.0, 0.7)[seed % 2], seed=seed))
    return configs


@pytest.mark.parametrize("pair_draws", [1, 7, graphs.PAIR_DRAWS])
def test_sbm_matches_the_per_row_reference(pair_draws, monkeypatch):
    # chunks of one draw (every row alone), of a few rows, and of whole
    # graphs; the features are drawn after the edges, so equal X means the
    # edge draws left the generator where the per-row loop does
    monkeypatch.setattr(graphs, "PAIR_DRAWS", pair_draws)
    for cfg in random_sbm_configs():
        got, want = generate_sbm(cfg), sbm_reference(cfg)
        assert got[0].n == want[0].n
        for a, b in zip((got[0].u, got[0].v, got[0].w, *got[1:]),
                        (want[0].u, want[0].v, want[0].w, *want[1:])):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sbm_invalid_probs():
    with pytest.raises(ConfigError):
        SBMConfig(blocks=2, block_sizes=(2, 2), p_in=0.1, p_out=0.5)


def test_sbm_degree_sum():
    cfg = SBMConfig(blocks=2, block_sizes=(20, 20), p_in=0.3, p_out=0.05,
                    seed=3)
    g, _, _ = generate_sbm(cfg)
    assert g.degrees.sum() == 2 * g.num_edges
