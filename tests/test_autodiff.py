import gc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import finite_diff_check
from mecole import autodiff as ad
from mecole.clustering import ModularityInitConfig, init_assignments, \
    init_objective
from mecole.decoupling import DecoupledEmbeddings, DecoupledEncoder, \
    MlpPredictor
from mecole.errors import NumericError
from mecole.graphs import Graph, SBMConfig, generate_sbm


def test_square_gradient():
    x = ad.parameter([[3.0]])
    y = ad.mul(x, x)
    y.backward()
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_sigmoid_gradient_at_zero():
    x = ad.parameter([[0.0]])
    y = ad.sigmoid(x)
    y.backward()
    assert x.grad[0, 0] == pytest.approx(0.25)


def test_fanout_accumulates_once():
    # y = x + x must give dy/dx = 2, not 4 (tape visits each node once)
    x = ad.parameter([[1.5]])
    y = ad.add(x, x)
    y.backward()
    assert x.grad[0, 0] == pytest.approx(2.0)


def test_backward_leaves_no_reference_cycles():
    # a tape freed by reference counting alone: nothing for the cyclic GC
    rng = np.random.default_rng(0)
    a_hat = ad.normalize_adjacency(Graph.from_pairs(4, [(0, 1), (1, 2)]))
    w = ad.parameter(rng.normal(size=(3, 2)))
    x = ad.constant(rng.normal(size=(4, 3)))
    gc.collect()
    gc.disable()
    try:
        h = ad.tanh(ad.matmul(ad.spmm(a_hat, x), w))
        loss = ad.tmean(ad.mul(ad.sigmoid(h), ad.add(h, h)))
        loss.backward()
        del h, loss
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert w.grad is not None


@pytest.mark.parametrize("seed", range(20))
def test_composite_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = ad.parameter(rng.normal(size=(3, 3)))
    b = ad.parameter(rng.normal(size=(3, 3)))

    def loss():
        h = ad.tanh(ad.matmul(a, b))
        h = ad.add(ad.sigmoid(h), ad.mul(a, 0.3))
        h = ad.softmax_rows(ad.matmul(h, b))
        return ad.tmean(ad.mul(h, h))

    assert finite_diff_check(loss, [a, b]) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_reduction_and_structural_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    a = ad.parameter(rng.normal(size=(4, 3)))

    def loss():
        g = ad.take_rows(a, [0, 2, 2])
        t = ad.add(ad.tsum(ad.absolute(g), axis=1), ad.row_norm2(g))
        t = ad.add(t, ad.row_max(ad.mul(g, g)))
        return ad.tmean(ad.log(ad.add(ad.exp(t), 1.0)))

    assert finite_diff_check(loss, [a]) < 1e-4


def test_softmax_rows_sum_to_one(rng):
    x = ad.constant(rng.normal(size=(7, 5)) * 10)
    s = ad.softmax_rows(x)
    assert np.allclose(s.values.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_non_finite_forward_raises():
    x = ad.constant([[0.0]])
    with pytest.raises(NumericError):
        ad.log(x)


def test_spmm_gradient():
    a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = ad.parameter([[1.0, 2.0], [3.0, 4.0]])

    def loss():
        return ad.tmean(ad.mul(ad.spmm(a, x), x))

    assert finite_diff_check(loss, [x]) < 1e-4


# normalize_adjacency -------------------------------------------------

def test_normalize_isolated_node():
    g = Graph(1, [])
    a_hat = ad.normalize_adjacency(g)
    assert np.allclose(a_hat.toarray(), [[1.0]])


def test_normalize_single_edge():
    g = Graph.from_pairs(2, [(0, 1)])
    a_hat = ad.normalize_adjacency(g).toarray()
    assert a_hat == pytest.approx(np.full((2, 2), 0.5))


def test_normalize_path_graph():
    g = Graph.from_pairs(3, [(0, 1), (1, 2)])
    a_hat = ad.normalize_adjacency(g).toarray()
    assert a_hat[0, 1] == pytest.approx(1.0 / np.sqrt(6.0))


def test_normalize_symmetric(rng):
    pairs = {(int(min(u, v)), int(max(u, v)))
             for u, v in rng.integers(0, 30, size=(60, 2)) if u != v}
    g = Graph.from_pairs(30, pairs)
    a_hat = ad.normalize_adjacency(g).toarray()
    assert np.allclose(a_hat, a_hat.T)


# gcn -----------------------------------------------------------------

def test_gcn_layer_identity_adjacency():
    a = sp.identity(2, format="csr")
    h = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    w = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    out = ad.matmul(ad.spmm(a, h), w)
    assert out.values == pytest.approx(h.values)


def test_two_layer_gcn_gradient():
    g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    a_hat = ad.normalize_adjacency(g)
    rng = np.random.default_rng(3)
    h0 = ad.constant(rng.normal(size=(4, 3)))
    w1 = ad.parameter(rng.normal(size=(3, 5)))
    w2 = ad.parameter(rng.normal(size=(5, 2)))

    def loss():
        h2 = ad.gcn([a_hat], h0, w1, w2)
        return ad.tmean(ad.mul(h2, h2))

    assert finite_diff_check(loss, [w1, w2]) < 1e-4


# Adam ----------------------------------------------------------------

def test_adam_zero_gradient_no_move():
    p = ad.parameter([[1.0, -2.0]])
    opt = ad.Adam([p], lr=0.1)
    p.grad = np.zeros_like(p.values)
    opt.step()
    assert np.allclose(p.values, [[1.0, -2.0]])


def test_adam_first_step_magnitude():
    # bias-corrected first step moves by about lr for unit gradient
    p = ad.parameter([[1.0]])
    opt = ad.Adam([p], lr=0.1)
    p.grad = np.array([[1.0]])
    opt.step()
    assert p.values[0, 0] == pytest.approx(0.9, abs=1e-6)


def test_adam_missing_gradient_raises():
    p = ad.parameter([[1.0]])
    opt = ad.Adam([p])
    with pytest.raises(NumericError):
        opt.step()


def test_adam_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(5)
        p = ad.parameter(rng.normal(size=(2, 2)))
        opt = ad.Adam([p], lr=0.05)
        for _ in range(10):
            opt.zero_grad()
            loss = ad.tmean(ad.mul(p, p))
            loss.backward()
            opt.step()
        return p.values.copy()

    assert np.array_equal(run(), run())


def sigmoid_three_exp(x):
    """The elementwise form the tape op used: three `exp` calls."""
    c = np.clip(x, -500, 500)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-c)),
                    np.exp(c) / (1.0 + np.exp(c)))


def sigmoid_clip_first(x):
    """The form the frozen-embedding helpers used: clip, then branch."""
    x = np.clip(x, -500, 500)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                    np.exp(x) / (1.0 + np.exp(x)))


@pytest.mark.parametrize("shape", [(), (1,), (7,), (40, 3), (5, 1)])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 30.0, 800.0])
def test_sigmoid_array_bit_equal_to_both_earlier_forms(shape, scale):
    x = np.random.default_rng(0).normal(scale=scale, size=shape)
    x = np.append(x, [0.0, -0.0, 500.0, -500.0, 1e308, -1e308]) \
        if x.ndim == 1 else x
    got = ad.sigmoid_array(x)
    for ref in (sigmoid_three_exp, sigmoid_clip_first):
        want = ref(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert ad.sigmoid(np.atleast_2d(x)).values.tobytes() == \
        np.atleast_2d(sigmoid_three_exp(x)).tobytes()


def softmax_inline(x):
    """The row softmax as each of its three callers wrote it out."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("shape", [(1, 2), (40, 3), (7, 9)])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 30.0, 800.0])
def test_softmax_array_bit_equal_to_inline_form(shape, scale):
    x = np.random.default_rng(1).normal(scale=scale, size=shape)
    want = softmax_inline(x)
    assert ad.softmax_array(x).tobytes() == want.tobytes()
    assert ad.softmax_rows(x).values.tobytes() == want.tobytes()


# the grad flag: ops on constants keep no tape ----------------------------

def test_op_on_constants_keeps_no_tape(rng):
    a = ad.constant(rng.normal(size=(3, 2)))
    b = ad.constant(rng.normal(size=(3, 2)))
    outs = [ad.add(a, b), ad.sub(1.0, a), ad.mul(a, b),
            ad.matmul(a, ad.constant(np.eye(2))), ad.tanh(a),
            ad.spmm(sp.identity(3, format="csr"), a),
            ad.take_rows(a, [0, 2]), ad.take_cols(a, [1]),
            ad.concat([a, b]), ad.softmax_rows(a), ad.tsum(a), ad.tmean(a)]
    for out in outs:
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
    p = ad.parameter(rng.normal(size=(3, 2)))
    mixed = ad.mul(a, p)
    assert mixed.requires_grad and mixed._parents == (a, p)
    assert ad.tanh(mixed).requires_grad


def test_backward_through_constant_propagation(rng):
    # w's gradient is (A X)^T G, as the tape computed it before constant
    # subtrees stopped recording; the constant X gets no gradient
    a = sp.csr_matrix(rng.random((6, 6)) * (rng.random((6, 6)) < 0.4))
    X = ad.constant(rng.normal(size=(6, 4)))
    w = ad.parameter(rng.normal(size=(4, 3)))
    G = rng.normal(size=(6, 3))
    loss = ad.tsum(ad.mul(ad.matmul(ad.spmm(a, X), w), ad.constant(G)))
    loss.backward()
    assert w.grad.tobytes() == ((a @ X.values).T @ G).tobytes()
    assert X.grad is None


def test_take_cols_and_concat_gradients(rng):
    a = ad.parameter(rng.normal(size=(4, 3)))
    b = ad.parameter(rng.normal(size=(4, 2)))

    def loss():
        t = ad.concat([ad.take_cols(a, [2, 0, 2]), b, a])
        return ad.tmean(ad.mul(ad.tanh(t), t))

    assert finite_diff_check(loss, [a, b]) < 1e-4


@pytest.mark.parametrize("case", [0, 1, 2, "empty", "one_row"])
def test_take_gradients_bit_equal_to_add_at(case):
    # 300 picks of 80 rows (or columns): repeats, misses, and magnitudes
    # far apart, so any other order of the sums would show in the bits;
    # also no pick at all, and 300 picks of one row
    rng = np.random.default_rng(case if isinstance(case, int) else 3)
    size = 0 if case == "empty" else 300
    idx = rng.integers(0, 1 if case == "one_row" else 80, size=size)
    G = rng.normal(size=(size, 7)) * 10.0 ** rng.integers(-8, 9, (size, 1))
    x = ad.parameter(rng.normal(size=(80, 7)))
    ad.tsum(ad.mul(ad.take_rows(x, idx), ad.constant(G))).backward()
    want = np.zeros_like(x.values)
    np.add.at(want, idx, G)
    assert x.grad.tobytes() == want.tobytes()
    y = ad.parameter(rng.normal(size=(7, 80)))
    ad.tsum(ad.mul(ad.take_cols(y, idx), ad.constant(G.T))).backward()
    want = np.zeros_like(y.values)
    np.add.at(want, (slice(None), idx), G.T)
    assert y.grad.tobytes() == want.tobytes()


def pair_dot_composite(x, u, v):
    """What `pair_dot` replaced: two gathers, a product, a row sum."""
    return ad.tsum(ad.mul(ad.take_rows(x, u), ad.take_rows(x, v)), axis=1)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("inner", [False, True])
def test_pair_dot_bit_equal_to_composite(seed, inner):
    # repeated indices, u == v pairs and magnitudes far apart; x also
    # feeds a second consumer, and with `inner` it is itself an op
    # output, so the order in which its gradients are summed shows
    rng = np.random.default_rng(seed)
    n, d, P = 40, 6, 500
    u = rng.integers(0, n, size=P)
    v = np.where(rng.random(P) < 0.2, u, rng.integers(0, n, size=P))
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-4, 5, (n, 1))
    G = ad.constant(rng.normal(size=(P, 1)) * 10.0 ** rng.integers(-6, 7,
                                                                   (P, 1)))
    C = ad.constant(rng.normal(size=(n, d)))
    runs = []
    for score in (ad.pair_dot, pair_dot_composite):
        w = ad.parameter(X)
        x = ad.mul(ad.tanh(w), 3.0) if inner else w
        s = score(x, u, v)
        loss = ad.add(ad.tsum(ad.mul(s, G)), ad.tsum(ad.mul(x, C)))
        loss.backward()
        runs.append((s.values.tobytes(), loss.values.tobytes(),
                     w.grad.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", range(3))
def test_pair_dot_matches_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    a = ad.parameter(rng.normal(size=(5, 3)))
    u, v = np.array([0, 2, 2, 4, 1, 3]), np.array([1, 2, 0, 4, 1, 2])

    def loss():
        return ad.tmean(ad.log(ad.add(ad.exp(ad.pair_dot(a, u, v)), 1.0)))

    assert finite_diff_check(loss, [a]) < 1e-4


@pytest.mark.filterwarnings("ignore:overflow")
def test_pair_dot_overflow_names_the_op():
    x = ad.parameter([[1e200, 1.0], [1e200, 2.0]])
    with pytest.raises(NumericError, match="'pair_dot'"):
        ad.pair_dot(x, [0], [1])


def test_binary_backward_computes_only_needed_gradients(rng):
    c = ad.constant(rng.normal(size=(3, 3)) + 5.0)
    p = ad.parameter(rng.normal(size=(3, 3)) + 5.0)
    g = np.ones((3, 3))
    for op in (ad.add, ad.sub, ad.mul, ad.div, ad.matmul):
        for a, b in ((c, p), (p, c), (p, p)):
            got = [t for t, _ in op(a, b)._backward(g)]
            assert got == [t for t in (a, b) if t.requires_grad]
    got = ad.concat([c, p, c])._backward(np.ones((3, 9)))
    assert [t for t, _ in got] == [p]


# one GCN, one glorot, a real concat: against the code they replaced -------

def glorot_closure(rng):
    """The initializer each caller defined for itself."""
    def glorot(rows, cols):
        scale = np.sqrt(6.0 / (rows + cols))
        return ad.parameter(rng.uniform(-scale, scale, size=(rows, cols)))
    return glorot


def branch_with_selectors(a_hats, X, w1, w2, mix):
    """`DecoupledEncoder._branch`: channel weights read from softmax(mix)
    by one-hot selector matmuls."""
    def propagate(h):
        if len(a_hats) == 1:
            return ad.spmm(a_hats[0], h)
        weights = ad.softmax_rows(mix)
        parts = None
        for c, a_hat in enumerate(a_hats):
            sel = np.zeros((len(a_hats), 1))
            sel[c, 0] = 1.0
            w_c = ad.matmul(weights, ad.constant(sel))  # (1,1)
            term = ad.mul(ad.spmm(a_hat, h), w_c)
            parts = term if parts is None else ad.add(parts, term)
        return parts

    if X is not None:
        h1 = ad.tanh(ad.matmul(propagate(ad.constant(X)), w1))
    else:
        h1 = ad.tanh(propagate(w1))
    return ad.matmul(propagate(h1), w2)


def gcn_layer(a_hat, h, w, activation="identity"):
    out = ad.matmul(ad.spmm(a_hat, h), w)
    return ad.tanh(out) if activation == "tanh" else out


def init_assignments_with_gcn_layer(graph, X, K, cfg, seed):
    """`init_assignments` as written with `gcn_layer`; returns R."""
    rng = np.random.default_rng(seed)
    a_hat = ad.normalize_adjacency(graph)
    glorot = glorot_closure(rng)
    if X is not None:
        w1 = glorot(X.shape[1], cfg.hidden)
        h0 = ad.constant(X)
    else:
        w1 = glorot(graph.n, cfg.hidden)
        h0 = None
    w2 = glorot(cfg.hidden, K)
    opt = ad.Adam([w1, w2], lr=cfg.lr)

    def forward():
        if h0 is not None:
            h1 = gcn_layer(a_hat, h0, w1, activation="tanh")
        else:
            h1 = ad.tanh(ad.spmm(a_hat, w1))
        return ad.softmax_rows(gcn_layer(a_hat, h1, w2))

    for _ in range(cfg.epochs):
        opt.zero_grad()
        loss = init_objective(graph, forward(), cfg.collapse_weight)
        loss.backward()
        opt.step()
    return forward().values


def hconcat_with_selectors(a, b):
    ca, cb = a.shape[1], b.shape[1]
    sa = np.zeros((ca, ca + cb))
    sa[:, :ca] = np.eye(ca)
    sb = np.zeros((cb, ca + cb))
    sb[:, ca:] = np.eye(cb)
    return ad.add(ad.matmul(a, ad.constant(sa)), ad.matmul(b, ad.constant(sb)))


def mlp_score_with_hconcat(mlp, E, u, v):
    cols = [ad.take_rows(E.H_d, u), ad.take_rows(E.H_d, v)]
    if E.ho.shape[1]:
        cols += [ad.take_rows(E.H_o, u), ad.take_rows(E.H_o, v)]
    feat = cols[0]
    for c in cols[1:]:
        feat = hconcat_with_selectors(feat, c)
    h = ad.tanh(ad.add(ad.matmul(feat, mlp.w1), mlp.b1))
    return ad.sigmoid(ad.add(ad.matmul(h, mlp.w2), mlp.b2))


def values_and_grads(forward, params, seed):
    """Output bytes and each parameter's gradient bytes for a random
    linear read-out of `forward()`."""
    for p in params:
        p.zero_grad()
    out = forward()
    weights = np.random.default_rng(seed).normal(size=out.shape)
    ad.tsum(ad.mul(out, ad.constant(weights))).backward()
    return out.values.tobytes(), [p.grad.tobytes() for p in params]


def sbm_graph(seed=0):
    return generate_sbm(SBMConfig(blocks=3, block_sizes=(20, 20, 20),
                                  p_in=0.3, p_out=0.03, dep_dim=4,
                                  inv_dim=4, seed=seed))


@pytest.mark.parametrize("n_channels", [1, 3])
@pytest.mark.parametrize("with_x", [True, False])
def test_gcn_matches_selector_branch(n_channels, with_x):
    graph, X, _ = sbm_graph()
    rng = np.random.default_rng(7)
    a_hats = [ad.normalize_adjacency(graph)]
    for _ in range(n_channels - 1):
        a_hats.append(ad.normalize_adjacency(
            graph.with_weights(rng.random(graph.num_edges) + 0.1)))
    X = X if with_x else None
    in_dim = X.shape[1] if with_x else None
    enc = DecoupledEncoder(in_dim, 8, 5, 3, n_channels, seed=11, n=graph.n)
    glorot = glorot_closure(np.random.default_rng(11))
    first = in_dim if with_x else graph.n
    for w, shape in ((enc.w1_d, (first, 8)), (enc.w2_d, (8, 5)),
                     (enc.w1_o, (first, 8)), (enc.w2_o, (8, 3))):
        assert w.values.tobytes() == glorot(*shape).values.tobytes()
    for mix in (enc.mix_d, enc.mix_o):
        mix.values[:] = rng.normal(size=mix.shape)
    branches = ((enc.w1_d, enc.w2_d, enc.mix_d), (enc.w1_o, enc.w2_o,
                                                  enc.mix_o))
    for k, (w1, w2, mix) in enumerate(branches):
        params = [w1, w2] + ([mix] if n_channels > 1 else [])
        got = values_and_grads(lambda: ad.gcn(a_hats, X, w1, w2, mix),
                               params, k)
        want = values_and_grads(
            lambda: branch_with_selectors(a_hats, X, w1, w2, mix), params, k)
        assert got == want
    E = enc.encode(a_hats, a_hats, X)
    assert E.hd.tobytes() == branch_with_selectors(
        a_hats, X, enc.w1_d, enc.w2_d, enc.mix_d).values.tobytes()


@pytest.mark.parametrize("with_x", [True, False])
def test_init_gcn_matches_gcn_layer_forward(with_x):
    graph, X, _ = sbm_graph(1)
    X = X if with_x else None
    cfg = ModularityInitConfig(epochs=15, hidden=8)
    got = init_assignments(graph, X, 3, cfg, seed=5).R
    want = init_assignments_with_gcn_layer(graph, X, 3, cfg, seed=5)
    assert got.tobytes() == want.tobytes()

    a_hat = ad.normalize_adjacency(graph)
    rng = np.random.default_rng(2)
    w1 = ad.parameter(rng.normal(size=(X.shape[1] if with_x else graph.n, 8)))
    w2 = ad.parameter(rng.normal(size=(8, 3)))
    h0 = ad.constant(X) if with_x else None

    def before():
        h1 = gcn_layer(a_hat, h0, w1, activation="tanh") if with_x \
            else ad.tanh(ad.spmm(a_hat, w1))
        return ad.softmax_rows(gcn_layer(a_hat, h1, w2))

    got = values_and_grads(
        lambda: ad.softmax_rows(ad.gcn([a_hat], h0, w1, w2)), [w1, w2], 0)
    assert got == values_and_grads(before, [w1, w2], 0)

    # positive random weights: Â then differs bitwise from Âᵀ in some
    # entries, so a backward that uses Â for Âᵀ shows here
    weighted = graph.with_weights(
        np.random.default_rng(3).random(graph.num_edges) + 0.1)
    a_hat = ad.normalize_adjacency(weighted)
    assert (a_hat != a_hat.T).nnz > 0
    cfg = ModularityInitConfig(epochs=15, hidden=8, collapse_weight=0.5)
    got = init_assignments(weighted, X, 3, cfg, seed=5).R
    want = init_assignments_with_gcn_layer(weighted, X, 3, cfg, seed=5)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim_o", [0, 3])
def test_mlp_concat_matches_hconcat(dim_o):
    rng = np.random.default_rng(dim_o)
    n = 12
    E = DecoupledEmbeddings.from_arrays(rng.normal(size=(n, 4)),
                                        rng.normal(size=(n, dim_o)),
                                        requires_grad=True)
    mlp = MlpPredictor(4, dim_o, 6, seed=3)
    glorot = glorot_closure(np.random.default_rng(3))
    assert mlp.w1.values.tobytes() == \
        glorot(2 * (4 + dim_o), 6).values.tobytes()
    assert mlp.w2.values.tobytes() == glorot(6, 1).values.tobytes()
    for b in (mlp.b1, mlp.b2):
        b.values[:] = rng.normal(size=b.shape)
    u = rng.integers(n, size=30)
    v = rng.integers(n, size=30)
    params = mlp.parameters() + [E.H_d] + ([E.H_o] if dim_o else [])
    got = values_and_grads(lambda: mlp.score(E, u, v), params, 1)
    assert got == values_and_grads(
        lambda: mlp_score_with_hconcat(mlp, E, u, v), params, 1)
