import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import finite_diff_check
from mecole import autodiff as ad
from mecole import clustering
from mecole.clustering import init_assignments, init_objective
from mecole.config import ExperimentConfig
from mecole.decoupling import DecoupledEmbeddings, DecoupledEncoder, \
    MlpPredictor
from mecole.errors import NumericError
from mecole.graphs import Graph, SBMConfig, build_knn_similarity_graph, \
    generate_sbm


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


def tape_nodes(out):
    """Every node `out` depends on, itself included."""
    seen, stack = {}, [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def test_in_place_accumulation_writes_no_array_another_node_holds():
    rng = np.random.default_rng(0)
    p = ad.parameter(rng.normal(size=(4, 3)))
    q = ad.add(p, p)  # its backward hands one array to both parents
    r = ad.concat([q, ad.tanh(p), ad.mul(p, 3.0)])  # split views of one g
    loss = ad.tsum(ad.mul(r, ad.constant(rng.normal(size=(4, 9)))))
    for _ in range(2):
        loss = ad.add(loss, ad.tsum(ad.mul(
            q, ad.constant(rng.normal(size=(4, 3))))))
    given = {}  # id(node) -> copies of its contributions, in order
    received = {}  # id(node) -> copy of the gradient its backward got
    handed = []  # (array, copy) of every gradient passed in or out

    def spy(t):
        inner = t._backward
        def bwd(g):
            received[id(t)] = g.copy()
            handed.append((g, g.copy()))
            out = inner(g)
            for parent, pg in out:
                given.setdefault(id(parent), []).append(pg.copy())
                handed.append((pg, pg.copy()))
            return out
        t._backward = bwd

    for t in tape_nodes(loss):
        if t._backward is not None:
            spy(t)
    loss.backward()

    def fresh_sum(parts):
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total

    # p: both sides of q, tanh and the scaled view; q: its concat split
    # view and the two products
    assert len(given[id(p)]) == 4 and len(given[id(q)]) == 3
    assert p.grad.tobytes() == fresh_sum(given[id(p)]).tobytes()
    for key, g in received.items():
        if key in given:
            assert g.tobytes() == fresh_sum(given[key]).tobytes()
    assert all(a.tobytes() == copy.tobytes() for a, copy in handed)


def test_tanh_backward_bit_equal_to_composite_form(rng):
    x = ad.parameter(rng.normal(size=(50, 7)) * 3.0)
    g = rng.normal(size=(50, 7))
    y = ad.tanh(x)
    (_, dx), = y._backward(g)
    want = (g * (1.0 - y.values ** 2)).tobytes()
    assert dx.tobytes() == want
    # into a spent copy of y and into a fresh buffer, as the init and gcn do
    for out in (y.values.copy(), np.empty_like(g)):
        assert ad._tanh_back(y.values, g, out=out) is out
        assert out.tobytes() == want


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


def test_backward_frees_the_tape_it_walks():
    rng = np.random.default_rng(0)
    x = ad.constant(rng.normal(size=(5, 3)))
    w = ad.parameter(rng.normal(size=(3, 2)))
    loss = ad.tsum(ad.tanh(ad.matmul(x, w)))
    node = loss._parents[0]  # the tanh node, held by the tape alone
    tanh_values = weakref.ref(node.values)
    del node
    loss.backward()
    assert tanh_values() is None
    assert loss._parents == () and loss._backward is None
    assert np.isfinite(loss.item()) and x.shape == (5, 3)
    assert w.grad.shape == w.shape


def test_second_backward_on_a_loss_raises():
    w = ad.parameter([[2.0]])
    loss = ad.mul(w, w)
    loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    assert w.grad.tolist() == [[4.0]] and loss.grad is None


def test_backward_through_a_consumed_node_raises_and_leaves_stay_reusable():
    x = ad.parameter([[1.0, 2.0]])
    h = ad.tanh(x)
    ad.tsum(h).backward()
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        ad.tsum(ad.mul(h, h)).backward()
    np.testing.assert_array_equal(x.grad, first)
    ad.tsum(ad.mul(x, ad.constant([[3.0, 4.0]]))).backward()
    np.testing.assert_array_equal(x.grad, first + [[3.0, 4.0]])


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
    g = Graph.from_pairs(1, [])
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


def test_normalize_bit_equal_to_diagonal_products(rng):
    def reference(graph):
        a_hat = graph.adjacency + sp.identity(graph.n, format="csr")
        d = sp.diags(1.0 / np.sqrt(np.asarray(a_hat.sum(axis=1)).ravel()))
        return sp.csr_matrix(d @ a_hat @ d)

    graph, X, _ = sbm_graph()
    graphs = [graph,
              # weights in (0.1, 4), the range `rewire` gives
              graph.with_weights(rng.uniform(0.1, 4.0, graph.num_edges)),
              build_knn_similarity_graph(X, 5, 0.0),
              Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3)])]  # 4: no edge
    for g in graphs:
        got, want = ad.normalize_adjacency(g), reference(g)
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).tobytes() == \
                getattr(want, attr).tobytes()


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
    x = np.append(x, [0.0, -0.0, 500.0, -500.0, 745.0, -745.0, 1e308,
                      -1e308]) if x.ndim == 1 else x
    before = x.copy()
    got = ad.sigmoid_array(x)
    assert x.tobytes() == before.tobytes()  # without `out`, x is kept
    for ref in (sigmoid_three_exp, sigmoid_clip_first):
        want = ref(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert ad.sigmoid(np.atleast_2d(x)).values.tobytes() == \
        np.atleast_2d(sigmoid_three_exp(x)).tobytes()
    # into a fresh buffer, the same bits; x becomes scratch
    out = np.empty_like(x)
    assert ad.sigmoid_array(x.copy(), out=out) is out
    assert out.tobytes() == got.tobytes()
    if x.ndim == 0:
        assert ad.sigmoid_array(float(x)).tobytes() == got.tobytes()


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


@pytest.mark.parametrize("K", [1, 2, 3, 7, 32, 64])
def test_softmax_array_bit_equal_to_row_max_form(K):
    """The row maxima taken down a transposed copy give the bits of
    `x.max(axis=1)`, also with infinities, all -inf rows and NaNs."""
    rng = np.random.default_rng(K)
    x = rng.normal(scale=30.0, size=(2000, K))
    x[1] = -np.inf
    x[2, 0] = np.inf
    x[3, -1] = -np.inf
    x[4, K // 2] = np.nan
    x[5] = 0.0
    x[5, ::2] = -0.0
    x[6] = np.nan
    x[7, 0], x[7, -1] = np.inf, -np.inf
    x[8, -1], x[8, 0] = np.inf, np.nan
    x[9] = np.inf
    x[10:20] = np.where(rng.random((10, K)) < 0.3, np.inf, x[10:20])
    x[20:30] = np.where(rng.random((10, K)) < 0.3, -np.inf, x[20:30])
    x[30:40] = np.where(rng.random((10, K)) < 0.3, np.nan, x[30:40])
    with np.errstate(invalid="ignore"):
        want = softmax_inline(x)
        got = ad.softmax_array(x)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[1]).all() and np.isnan(got[6]).all()
    assert ad.softmax_array(x[:0]).shape == (0, K)


# the grad flag: ops on constants keep no tape ----------------------------

def test_op_on_constants_keeps_no_tape(rng):
    a = ad.constant(rng.normal(size=(3, 2)))
    b = ad.constant(rng.normal(size=(3, 2)))
    outs = [ad.add(a, b), ad.sub(1.0, a), ad.mul(a, b),
            ad.matmul(a, ad.constant(np.eye(2))), ad.tanh(a),
            ad.spmm(sp.identity(3, format="csr"), a),
            ad.take_rows(a, [0, 2]), ad.concat([a, b]), ad.softmax_rows(a),
            ad.tsum(a), ad.tmean(a),
            ad.gcn([sp.identity(3, format="csr")] * 2, a, a.values.T, b,
                   ad.constant(np.zeros((1, 2))))]
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


def test_concat_gradients(rng):
    a = ad.parameter(rng.normal(size=(4, 3)))
    b = ad.parameter(rng.normal(size=(4, 2)))

    def loss():
        t = ad.concat([a, b, a])
        return ad.tmean(ad.mul(ad.tanh(t), t))

    assert finite_diff_check(loss, [a, b]) < 1e-4


@pytest.mark.parametrize("case", [0, 1, 2, "empty", "one_row"])
def test_take_gradients_bit_equal_to_add_at(case):
    # 300 picks of 80 rows: repeats, misses, and magnitudes far apart, so
    # any other order of the sums would show in the bits; also no pick at
    # all, and 300 picks of one row
    rng = np.random.default_rng(case if isinstance(case, int) else 3)
    size = 0 if case == "empty" else 300
    idx = rng.integers(0, 1 if case == "one_row" else 80, size=size)
    G = rng.normal(size=(size, 7)) * 10.0 ** rng.integers(-8, 9, (size, 1))
    x = ad.parameter(rng.normal(size=(80, 7)))
    ad.tsum(ad.mul(ad.take_rows(x, idx), ad.constant(G))).backward()
    want = np.zeros_like(x.values)
    np.add.at(want, idx, G)
    assert x.grad.tobytes() == want.tobytes()


def pair_dot_composite(x, u, v):
    """What `pair_dot` replaced: two gathers, a product, a row sum."""
    return ad.tsum(ad.mul(ad.take_rows(x, u), ad.take_rows(x, v)), axis=1)


@pytest.mark.parametrize("case", [0, 1, 2, 3, "blocks", "one_pair_blocks",
                                  "zero_width"])
@pytest.mark.parametrize("inner", [False, True])
def test_pair_dot_bit_equal_to_composite(case, inner, monkeypatch):
    # repeated indices, u == v pairs and magnitudes far apart; x also
    # feeds a second consumer, and with `inner` it is itself an op
    # output, so the order in which its gradients are summed shows;
    # also a forward over 4 blocks, the last one short, one over blocks
    # of one pair (a budget below d), and a zero-width x (no_decouple's
    # H_o)
    rng = np.random.default_rng(case if isinstance(case, int) else 4)
    n, d, P = 40, 0 if case == "zero_width" else 6, 500
    if case == "blocks":
        monkeypatch.setattr(ad, "PAIR_BUDGET", 160 * d)
    elif case == "one_pair_blocks":
        monkeypatch.setattr(ad, "PAIR_BUDGET", d - 1)
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


def test_pair_dot_builds_no_pair_by_dim_array():
    # sbm1600's link loss: 10,304 edges and as many non-edges at d = 32;
    # one P x d gather alone would take twice the bound
    rng = np.random.default_rng(0)
    n, d, P = 1600, 32, 20_608
    x = ad.parameter(rng.normal(size=(n, d)))
    u, v = rng.integers(0, n, size=P), rng.integers(0, n, size=P)
    tracemalloc.start()
    try:
        ad.tsum(ad.pair_dot(x, u, v)).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == (n, d)
    assert peak < P * d * 8 / 2


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


def branch_with_selectors(a_hats, X, w1, w2, mix, propagate_first=False):
    """`DecoupledEncoder._branch`: channel weights read from softmax(mix)
    by one-hot selector matmuls. The output layer is `Â(H1 W2)`, or
    `(Â H1) W2` with `propagate_first`."""
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
    if propagate_first:
        return ad.matmul(propagate(h1), w2)
    return propagate(ad.matmul(h1, w2))


def gcn_layer(a_hat, h, w, activation="identity"):
    out = ad.matmul(ad.spmm(a_hat, h), w)
    return ad.tanh(out) if activation == "tanh" else out


def init_assignments_with_gcn_layer(graph, X, cfg, propagate_first=False):
    """`init_assignments` as written with `gcn_layer`; returns R. The
    output layer is `Â(H1 W2)`, or `(Â H1) W2` with `propagate_first`."""
    rng = np.random.default_rng(cfg.seed)
    a_hat = ad.normalize_adjacency(graph)
    glorot = glorot_closure(rng)
    if X is not None:
        w1 = glorot(X.shape[1], cfg.hidden)
        h0 = ad.constant(X)
    else:
        w1 = glorot(graph.n, cfg.hidden)
        h0 = None
    w2 = glorot(cfg.hidden, cfg.K)
    opt = ad.Adam([w1, w2], lr=cfg.init_lr)

    def forward():
        if h0 is not None:
            h1 = gcn_layer(a_hat, h0, w1, activation="tanh")
        else:
            h1 = ad.tanh(ad.spmm(a_hat, w1))
        if propagate_first:
            return ad.softmax_rows(gcn_layer(a_hat, h1, w2))
        return ad.softmax_rows(ad.spmm(a_hat, ad.matmul(h1, w2)))

    for _ in range(cfg.init_epochs):
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


def channel_hats(graph, n_channels, rng):
    """Â of `graph`, then of `graph` with random positive weights."""
    a_hats = [ad.normalize_adjacency(graph)]
    for _ in range(n_channels - 1):
        a_hats.append(ad.normalize_adjacency(
            graph.with_weights(rng.random(graph.num_edges) + 0.1)))
    return a_hats


@pytest.mark.parametrize("n_channels", [1, 2, 3])
@pytest.mark.parametrize("with_x", [True, False])
def test_gcn_matches_selector_branch(n_channels, with_x):
    graph, X, _ = sbm_graph()
    rng = np.random.default_rng(7)
    a_hats = channel_hats(graph, n_channels, rng)
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


@pytest.mark.parametrize("n_channels", [1, 2, 3])
@pytest.mark.parametrize("with_x", [True, False])
def test_gcn_close_to_propagating_first(n_channels, with_x):
    """`Â(H1 W2)` and `(Â H1) W2` are one product in two associations: the
    node's values and gradients differ from the other's only by rounding."""
    graph, X, _ = sbm_graph()
    rng = np.random.default_rng(7)
    a_hats = channel_hats(graph, n_channels, rng)
    X = X if with_x else None
    w1 = ad.parameter(rng.normal(size=(X.shape[1] if with_x else graph.n, 8)))
    w2 = ad.parameter(rng.normal(size=(8, 5)))
    mix = ad.parameter(rng.normal(size=(1, n_channels)))
    params = [w1, w2] + ([mix] if n_channels > 1 else [])

    def arrays(forward):
        out, grads = values_and_grads(forward, params, 0)
        return [np.frombuffer(b) for b in [out] + grads]

    got = arrays(lambda: ad.gcn(a_hats, X, w1, w2, mix))
    want = arrays(lambda: branch_with_selectors(a_hats, X, w1, w2, mix,
                                                propagate_first=True))
    assert not all(np.array_equal(g, w) for g, w in zip(got, want))  # bits
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_channels", [1, 3])
@pytest.mark.parametrize("with_x", [True, False])
def test_gcn_tanh_overwrites_its_pre_activation(n_channels, with_x):
    # Cora's size, in n x hidden units: each encoder's node keeps H1 =
    # tanh(Z1) (one unit) and its output Â (H1 W2) (out / hidden), with X
    # also Â X (in_dim / hidden). With several channels it also keeps each
    # channel's products, which the mix's gradient reads: the output-wide
    # Â_c (H1 W2), and Â_c X or Â_c W1. A pre-activation kept apart from
    # H1, or a hidden-wide Â H1, would add a unit per encoder
    n, hidden, in_dim = 2708, 64, 16
    rng = np.random.default_rng(0)
    ring = np.arange(n)
    a_hats = [ad.normalize_adjacency(Graph.from_arrays(
        n, ring, (ring + k) % n)) for k in range(1, n_channels + 1)]
    X = rng.normal(size=(n, in_dim)) if with_x else None
    enc = DecoupledEncoder(in_dim if with_x else None, hidden, 16, 32,
                           n_channels, seed=0, n=n)
    unit = n * hidden * 8
    first = in_dim / hidden if with_x else 1  # Â X, or Â W1
    kept = 0
    for out in (16, 32):
        kept += 1 + out / hidden + (first if with_x else 0)
        if n_channels > 1:
            kept += n_channels * (out / hidden + first)
    bound = kept + 0.5
    tracemalloc.start()
    try:
        E = enc.encode(a_hats, a_hats, X)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert E.hd.shape == (n, 16) and E.ho.shape == (n, 32)
    assert live < bound * unit
    # and a kept pre-activation, two units more, would cross it
    assert live > (bound - 2) * unit


@pytest.mark.parametrize("with_x", [True, False])
def test_encoder_tape_memory_in_hidden_arrays(with_x):
    # Cora's size: the nodes keep H1 and the outputs, with X also Â X,
    # 3.25 n x hidden arrays after encode (2.75 without X), and backward
    # peaks at 5.0 (4.5). The bounds leave half a unit over X's figures;
    # nodes that also keep the hidden-wide Â H1, as the `(Â H1) W2` order
    # did, hold 5.25 (4.75) and peak at 7.5 (7.0)
    n, hidden = 2708, 64
    rng = np.random.default_rng(0)
    ring = np.arange(n)
    a_hats = [ad.normalize_adjacency(Graph.from_arrays(n, ring,
                                                       (ring + 1) % n))]
    X = rng.normal(size=(n, 16)) if with_x else None
    enc = DecoupledEncoder(16 if with_x else None, hidden, 16, 32, 1,
                           seed=0, n=n)
    c_d = ad.constant(rng.normal(size=(n, 16)))
    c_o = ad.constant(rng.normal(size=(n, 32)))
    unit = n * hidden * 8
    tracemalloc.start()
    try:
        E = enc.encode(a_hats, a_hats, X)
        live, _ = tracemalloc.get_traced_memory()
        loss = ad.add(ad.tsum(ad.mul(E.H_d, c_d)),
                      ad.tsum(ad.mul(E.H_o, c_o)))
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < 3.75 * unit
    assert peak < 5.5 * unit


@pytest.mark.parametrize("with_x", [True, False])
def test_init_gcn_matches_gcn_layer_forward(with_x, monkeypatch):
    # the tape is float64: the hand-written gradient equals it bit for bit
    # when the init computes in float64 too
    monkeypatch.setattr(clustering, "INIT_DTYPE", np.float64)
    graph, X, _ = sbm_graph(1)
    X = X if with_x else None
    cfg = ExperimentConfig(K=3, init_epochs=15, init_lr=0.01, hidden=8,
                           collapse_weight=1.0, seed=5)
    got = init_assignments(graph, X, cfg).R
    want = init_assignments_with_gcn_layer(graph, X, cfg)
    assert got.tobytes() == want.tobytes()

    a_hat = ad.normalize_adjacency(graph)
    rng = np.random.default_rng(2)
    w1 = ad.parameter(rng.normal(size=(X.shape[1] if with_x else graph.n, 8)))
    w2 = ad.parameter(rng.normal(size=(8, 3)))
    h0 = ad.constant(X) if with_x else None

    def before():
        h1 = gcn_layer(a_hat, h0, w1, activation="tanh") if with_x \
            else ad.tanh(ad.spmm(a_hat, w1))
        return ad.softmax_rows(ad.spmm(a_hat, ad.matmul(h1, w2)))

    got = values_and_grads(
        lambda: ad.softmax_rows(ad.gcn([a_hat], h0, w1, w2)), [w1, w2], 0)
    assert got == values_and_grads(before, [w1, w2], 0)

    # positive random weights: Â then differs bitwise from Âᵀ in some
    # entries, so a backward that uses Â for Âᵀ shows here
    weighted = graph.with_weights(
        np.random.default_rng(3).random(graph.num_edges) + 0.1)
    a_hat = ad.normalize_adjacency(weighted)
    assert (a_hat != a_hat.T).nnz > 0
    cfg = ExperimentConfig(K=3, init_epochs=15, init_lr=0.01, hidden=8,
                           collapse_weight=0.5, seed=5)
    got = init_assignments(weighted, X, cfg).R
    want = init_assignments_with_gcn_layer(weighted, X, cfg)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("with_x", [True, False])
def test_init_gcn_close_to_propagating_first(with_x, weighted, monkeypatch):
    """`Â(H1 W2)` and `(Â H1) W2` are one product in two associations:
    trained R differs only by rounding, with the same hard labels."""
    monkeypatch.setattr(clustering, "INIT_DTYPE", np.float64)
    graph, X, _ = sbm_graph(1)
    if weighted:
        graph = graph.with_weights(
            np.random.default_rng(3).random(graph.num_edges) + 0.1)
    X = X if with_x else None
    cfg = ExperimentConfig(K=3, init_epochs=100, init_lr=0.01, hidden=16,
                           collapse_weight=1.0, seed=5)
    got = init_assignments(graph, X, cfg).R
    want = init_assignments_with_gcn_layer(graph, X, cfg,
                                           propagate_first=True)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("with_x", [True, False])
def test_init_float32_close_to_float64(with_x, weighted, monkeypatch):
    """The float32 init returns float64 R with the float64 init's hard
    labels. 100 Adam steps grow float32's rounding (6e-8) to at most
    3.1e-7 in R on these four graphs, and to 2.5e-5 on `sbm_graph(0)`'s
    weighted one with X; the bound 1e-4 leaves a factor of 4 over that."""
    graph, X, _ = sbm_graph(1)
    if weighted:
        graph = graph.with_weights(
            np.random.default_rng(3).random(graph.num_edges) + 0.1)
    X = X if with_x else None
    cfg = ExperimentConfig(K=3, init_epochs=100, init_lr=0.01, hidden=16,
                           collapse_weight=1.0, seed=5)
    assert clustering.INIT_DTYPE == np.float32
    got = init_assignments(graph, X, cfg).R
    monkeypatch.setattr(clustering, "INIT_DTYPE", np.float64)
    want = init_assignments(graph, X, cfg).R
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-4
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


@pytest.mark.parametrize("with_x,weighted,channels", [
    # one channel keeps the ids the test had before it took more
    pytest.param(with_x, weighted, channels, id=f"{with_x}-{weighted}" + (
        f"-{channels}" if channels > 1 else ""))
    for channels in (1, 2, 3) for with_x in (True, False)
    for weighted in (False, True)])
def test_gcn_arrays_float32_close_to_float64(with_x, weighted, channels):
    """On float32 arrays the output and the W1, W2 and, with several
    channels, mix gradients stay float32; the init runs one channel. Each
    lies within `bound` of the float64 call's largest magnitude: over
    seeds 0-3 of `sbm_graph`, weighted or not, with and without X, on one
    to three channels, the largest gap measured was 3.6e-7 of it for the
    output, W1 and W2, against 1e-6, and 1.6e-4 for the mix, against
    1e-3. The mix's is a softmax gradient, `s_c (g_c - sum_k s_k g_k)`,
    whose terms cancel."""
    graph, X, _ = sbm_graph(1)
    if weighted:
        graph = graph.with_weights(
            np.random.default_rng(3).random(graph.num_edges) + 0.1)
    X = X if with_x else None
    a_hats = channel_hats(graph, channels, np.random.default_rng(4))
    rng = np.random.default_rng(2)
    w1 = ad.glorot(rng, X.shape[1] if with_x else graph.n, 16)
    w2 = ad.glorot(rng, 16, 3)
    g = rng.normal(size=(graph.n, 3))
    mix = ad.parameter(rng.normal(size=(1, channels))) if channels > 1 \
        else None
    params = [w1, w2] + ([mix] if mix is not None else [])

    def run(dtype):
        xs = None if X is None else [(a @ X).astype(dtype) for a in a_hats]
        out, backward = ad.gcn_arrays([a.astype(dtype) for a in a_hats], xs,
                                      w1, w2, mix, "non-finite layer")
        grads = backward(g.astype(dtype))
        assert all(t is p for (t, _), p in zip(grads, params, strict=True))
        return [out] + [pg for _, pg in grads]

    bounds = [1e-6, 1e-6, 1e-6, 1e-3]
    for got, want, bound in zip(run(np.float32), run(np.float64), bounds):
        assert got.dtype == np.float32 and want.dtype == np.float64
        assert np.abs(got - want).max() <= bound * np.abs(want).max()


def test_init_float32_overflow_of_a_float64_weight_raises(monkeypatch):
    # one Adam step takes each weight to about ±1e39: finite in float64,
    # infinite once cast to float32
    graph, X, _ = sbm_graph(1)
    cfg = ExperimentConfig(K=3, init_epochs=2, init_lr=1e39, hidden=8,
                           seed=5)
    with np.errstate(all="ignore"), \
            pytest.raises(NumericError, match="non-finite layer"):
        init_assignments(graph, X, cfg)
    monkeypatch.setattr(clustering, "INIT_DTYPE", np.float64)
    assert np.isfinite(init_assignments(graph, X, cfg).R).all()


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
