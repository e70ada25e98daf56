import numpy as np
import pytest

from conftest import finite_diff_check
from mecole import autodiff as ad
from mecole import decoupling as dc
from mecole.clustering import Assignment
from mecole.decoupling import DecoupledEmbeddings, DecoupledEncoder, \
    discrepancy_loss, predict_link, reconstruction_loss, rewire, \
    sample_non_edges
from mecole.errors import DataError
from mecole.graphs import Graph


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def embeddings(hd, ho, requires_grad=False):
    return DecoupledEmbeddings.from_arrays(hd, ho, requires_grad=requires_grad)


def hard_assignment(hard, K):
    n = len(hard)
    R = np.full((n, K), 0.01 / (K - 1))
    for i, k in enumerate(hard):
        R[i, k] = 0.99
    return Assignment(R=R)


# predict_link ---------------------------------------------------------

def test_predict_link_zero_embeddings():
    # a zero-width H_o (no_decouple) scores sigmoid(0) = 0.5 as well
    for dim_o in (2, 0):
        E = embeddings(np.zeros((2, 3)), np.zeros((2, dim_o)))
        z, zd, zo = predict_link(0, 1, E)
        assert (zd, zo) == (0.5, 0.5)
        assert z == pytest.approx(0.25)


def test_predict_link_limit_to_one():
    E = embeddings(np.full((2, 1), 30.0), np.full((2, 1), 30.0))
    z, _, _ = predict_link(0, 1, E)
    assert z == pytest.approx(1.0, abs=1e-6)


def test_predict_link_hand_values():
    E = embeddings(np.array([[1.0], [1.0]]), np.array([[1.0], [-1.0]]))
    z, zd, zo = predict_link(0, 1, E)
    assert zd == pytest.approx(sigmoid(1.0))
    assert zo == pytest.approx(sigmoid(-1.0))
    assert z == pytest.approx(sigmoid(1.0) * sigmoid(-1.0))
    assert z == pytest.approx(0.1966, abs=1e-4)


def test_predict_link_symmetry_and_factorization(rng):
    E = embeddings(rng.normal(size=(6, 4)), rng.normal(size=(6, 3)))
    for u in range(6):
        for v in range(u + 1, 6):
            z_uv, zd, zo = predict_link(u, v, E)
            z_vu, _, _ = predict_link(v, u, E)
            assert z_uv == z_vu
            assert abs(z_uv - zd * zo) < 1e-12


def test_undecoupled_link_scores_match_constant_half(rng):
    """With a zero-width H_o (no_decouple) the general path scores
    sigmoid(0) = 0.5 for Z_o, bit for bit the constant it replaced, and
    the H_d gradient through the scores is the same."""
    n, P = 40, 300
    pairs = rng.integers(0, n, size=(P, 2))
    weights = ad.constant(rng.normal(size=(P, 1)))
    hd = rng.normal(size=(n, 6))
    old = ad.parameter(hd.copy())
    z_old = ad.mul(ad.sigmoid(ad.pair_dot(old, pairs[:, 0], pairs[:, 1])),
                   ad.constant(np.full((P, 1), 0.5)))
    ad.tsum(ad.mul(z_old, weights)).backward()
    E = DecoupledEmbeddings(ad.parameter(hd.copy()),
                            ad.constant(np.zeros((n, 0))))
    z_new = dc.link_scores(E, pairs)
    ad.tsum(ad.mul(z_new, weights)).backward()
    assert z_new.values.tobytes() == z_old.values.tobytes()
    assert E.H_d.grad.tobytes() == old.grad.tobytes()


# reconstruction loss ---------------------------------------------------

def test_reconstruction_perfect_predictor():
    g = Graph.from_pairs(4, [(0, 1), (2, 3)])
    hd = np.array([[20.0, 0], [20.0, 0], [0, 20.0], [0, 20.0]])
    ho = hd.copy()
    E = embeddings(hd, ho)
    loss = reconstruction_loss(g, E, 1, np.random.default_rng(0))
    # Z ~ 1 on edges; sampled non-edges are cross-pair with Z ~ 0.25... use
    # only the edge side of the bound: loss bounded by clip floor on edges
    assert loss.item() < 1.5  # sanity: finite and small-ish


def test_reconstruction_constant_half_gives_ln2():
    # rig embeddings so sigma(hd.hd') = sigma(ho.ho') = sqrt(0.5) for all
    # pairs: Z = 0.5 everywhere and BCE = ln 2
    a = np.sqrt(np.log(np.sqrt(0.5) / (1 - np.sqrt(0.5))))
    g = Graph.from_pairs(4, [(0, 1), (1, 2)])
    hd = np.full((4, 1), a)
    E = embeddings(hd, hd.copy())
    loss = reconstruction_loss(g, E, 1, np.random.default_rng(0))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-9)


def test_reconstruction_hand_enumerated():
    g = Graph.from_pairs(3, [(0, 1), (1, 2)])
    neg = sample_non_edges(g, 2, np.random.default_rng(99))
    hd = np.array([[0.5], [1.0], [-0.5]])
    ho = np.array([[0.2], [0.1], [0.3]])
    E = embeddings(hd, ho)

    def z(u, v):
        return sigmoid(hd[u] @ hd[v]) * sigmoid(ho[u] @ ho[v])

    terms = [-np.log(z(0, 1)), -np.log(z(1, 2))]
    terms += [-np.log(1 - z(u, v)) for u, v in neg]
    expected = np.mean(terms)
    loss = reconstruction_loss(g, E, 1, np.random.default_rng(99))
    assert loss.item() == pytest.approx(float(expected), abs=1e-12)


def test_reconstruction_complete_graph_errors():
    g = Graph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    E = embeddings(np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(DataError):
        reconstruction_loss(g, E, 1, np.random.default_rng(0))


def test_reconstruction_gradient_finite_diff():
    g = Graph.from_pairs(5, [(0, 1), (1, 2), (3, 4)])
    rng = np.random.default_rng(2)
    hd = ad.parameter(rng.normal(size=(5, 3)))
    ho = ad.parameter(rng.normal(size=(5, 2)))

    def loss():
        E = DecoupledEmbeddings(hd, ho)
        return reconstruction_loss(g, E, 1, np.random.default_rng(11))

    assert finite_diff_check(loss, [hd, ho]) < 1e-4


def test_reconstruction_decreases_on_toy_graph():
    # two 2-cliques: optimizing embeddings should reduce BCE
    g = Graph.from_pairs(4, [(0, 1), (2, 3)])
    rng = np.random.default_rng(4)
    hd = ad.parameter(rng.normal(size=(4, 4)) * 0.1)
    ho = ad.parameter(rng.normal(size=(4, 4)) * 0.1)
    opt = ad.Adam([hd, ho], lr=0.05)
    losses = []
    for step in range(200):
        opt.zero_grad()
        E = DecoupledEmbeddings(hd, ho)
        loss = reconstruction_loss(g, E, 1, np.random.default_rng(step))
        loss.backward()
        opt.step()
        losses.append(loss.item())
    assert losses[-1] < losses[0]


# discrepancy loss -------------------------------------------------------

def test_discrepancy_identical_ho_zero():
    E = embeddings(np.arange(8.0).reshape(4, 2), np.ones((4, 3)))
    a = hard_assignment([0, 0, 1, 1], 2)
    loss = discrepancy_loss(E, a, "l1", 16, np.random.default_rng(0))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_discrepancy_direct_ratio():
    # d(h_o) = 2, d(h_d) = 1 under l1 for every cross pair
    hd = np.array([[0.0], [0.0], [1.0], [1.0]])
    ho = np.array([[0.0], [0.0], [2.0], [2.0]])
    E = embeddings(hd, ho)
    a = hard_assignment([0, 0, 1, 1], 2)
    loss = discrepancy_loss(E, a, "l1", 8, np.random.default_rng(1))
    assert loss.item() == pytest.approx(2.0 / (1.0 + 1e-8), abs=1e-9)


def test_discrepancy_hand_computed_l2():
    hd = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
    ho = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    E = embeddings(hd, ho)
    a = hard_assignment([0, 0, 1, 1], 2)
    seed = 5
    # oracle: replay the sampling with the same stream, evaluate by hand
    rng = np.random.default_rng(seed)
    groups = [np.array([0, 1]), np.array([2, 3])]
    pairs = 6
    idx = rng.integers(1, size=pairs)  # only one class pair
    expected = []
    for _ in range(pairs):
        u = groups[0][rng.integers(2)]
        v = groups[1][rng.integers(2)]
        num = np.linalg.norm(ho[u] - ho[v])
        den = np.linalg.norm(hd[u] - hd[v])
        expected.append(num / (den + 1e-8))
    loss = discrepancy_loss(E, a, "l2", pairs, np.random.default_rng(seed))
    assert loss.item() == pytest.approx(float(np.mean(expected)), abs=1e-12)


def test_discrepancy_requires_two_classes():
    E = embeddings(np.zeros((3, 2)), np.zeros((3, 2)))
    R = np.column_stack([np.full(3, 0.9), np.full(3, 0.1)])
    a = Assignment(R=R)
    with pytest.raises(DataError):
        discrepancy_loss(E, a, "l1", 4, np.random.default_rng(0))


@pytest.mark.parametrize("metric", ["l1", "l2", "cosine", "l_inf"])
def test_discrepancy_nonnegative_and_differentiable(metric, rng):
    hd = ad.parameter(rng.normal(size=(6, 3)))
    ho = ad.parameter(rng.normal(size=(6, 4)))
    a = hard_assignment([0, 0, 0, 1, 1, 1], 2)

    def loss():
        E = DecoupledEmbeddings(hd, ho)
        return discrepancy_loss(E, a, metric, 12, np.random.default_rng(3))

    val = loss()
    if metric != "cosine":
        assert val.item() >= 0.0
    assert finite_diff_check(loss, [hd, ho]) < 1e-4


@pytest.mark.parametrize("metric", ["l1", "l2"])
def test_discrepancy_homogeneity(metric, rng):
    hd = rng.normal(size=(6, 3))
    ho = rng.normal(size=(6, 4))
    a = hard_assignment([0, 0, 0, 1, 1, 1], 2)
    c = 3.7
    base = discrepancy_loss(embeddings(hd, ho), a, metric, 20,
                            np.random.default_rng(9)).item()
    scaled = discrepancy_loss(embeddings(hd, c * ho), a, metric, 20,
                              np.random.default_rng(9)).item()
    assert scaled == pytest.approx(c * base, rel=1e-9)


def ref_discrepancy_loss(E, assignment, metric, pairs, rng):
    """`discrepancy_loss` as it was with two scalar draws per pair."""
    nonempty = [g for g in assignment.classes if g.size > 0]
    class_pairs = [(i, j) for i in range(len(nonempty))
                   for j in range(i + 1, len(nonempty))]
    idx = rng.integers(len(class_pairs), size=pairs)
    left = np.empty(pairs, dtype=np.int64)
    right = np.empty(pairs, dtype=np.int64)
    for t, ci in enumerate(idx):
        g1, g2 = class_pairs[ci]
        left[t] = nonempty[g1][rng.integers(nonempty[g1].size)]
        right[t] = nonempty[g2][rng.integers(nonempty[g2].size)]
    num = dc._metric_tensor(ad.take_rows(E.H_o, left),
                            ad.take_rows(E.H_o, right), metric)
    den = dc._metric_tensor(ad.take_rows(E.H_d, left),
                            ad.take_rows(E.H_d, right), metric)
    return ad.tmean(ad.div(num, ad.add(den, dc.EPS)))


@pytest.mark.parametrize("seed", range(6))
def test_discrepancy_bit_equal_to_scalar_draws(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n, K = int(rng.integers(4, 200)), int(rng.integers(2, 7))
        hard = rng.integers(0, K, size=n)
        hard[:2] = [0, 1]  # at least two classes
        # uneven classes; at small n some have one member or none
        hard[rng.random(n) < 0.2] = K - 1
        a = hard_assignment(hard, K)
        E = embeddings(rng.normal(size=(n, 3)), rng.normal(size=(n, 4)))
        metric = ("l1", "l2", "cosine", "l_inf")[seed % 4]
        pairs = int(rng.integers(1, 300))
        got_rng = np.random.default_rng(seed + 50)
        ref_rng = np.random.default_rng(seed + 50)
        got = discrepancy_loss(E, a, metric, pairs, got_rng)
        want = ref_discrepancy_loss(E, a, metric, pairs, ref_rng)
        assert got.values.tobytes() == want.values.tobytes()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


# rewire -----------------------------------------------------------------

def ho_for_eo(target):
    """1-dim invariant embeddings giving sigma(ho_u . ho_v) == target."""
    logit = np.log(target / (1 - target))
    return np.array([[1.0], [logit]])


def test_rewire_trivial_cases():
    g = Graph.from_pairs(2, [(0, 1)])
    for e_o, eta, expected in [(0.5, 4.0, None), (0.1, 4.0, None),
                               (0.9999, 4.0, None)]:
        ho = ho_for_eo(e_o)
        E = embeddings(np.zeros((2, 1)), ho)
        actual_eo = sigmoid(float(ho[0] @ ho[1]))
        want = min(eta, 1.0 / max(actual_eo, 1e-8))
        rw = rewire(g, E, eta)
        assert rw.edges[0][2] == want  # bit-exact against the formula


def test_rewire_cap_binds():
    g = Graph.from_pairs(2, [(0, 1)])
    E = embeddings(np.zeros((2, 1)), ho_for_eo(0.1))
    rw = rewire(g, E, 4.0)
    assert rw.edges[0][2] == 4.0


def test_rewire_preserves_topology_and_bounds(rng):
    pairs = {(int(min(u, v)), int(max(u, v)))
             for u, v in rng.integers(0, 20, size=(40, 2)) if u != v}
    g = Graph.from_pairs(20, pairs)
    E = embeddings(rng.normal(size=(20, 3)), rng.normal(size=(20, 3)))
    eta = 2.5
    rw = rewire(g, E, eta)
    assert [(u, v) for u, v, _ in rw.edges] == [(u, v) for u, v, _ in g.edges]
    for _, _, w in rw.edges:
        assert 0 < w <= eta
    dense = rw.adjacency.toarray()
    assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("dim_o", [3, 32])
def test_rewire_blocks_bit_equal_to_one_stacked_product(dim_o, monkeypatch):
    rng = np.random.default_rng(dim_o)
    pairs = {(int(min(u, v)), int(max(u, v)))
             for u, v in rng.integers(0, 60, size=(200, 2)) if u != v}
    g = Graph.from_pairs(60, pairs)
    step = g.num_edges // 3 - 1  # three full blocks and a short fourth
    monkeypatch.setattr(ad, "PAIR_BUDGET", step * dim_o)
    assert g.num_edges // step == 3 and g.num_edges % step
    E = embeddings(rng.normal(size=(60, 4)), rng.normal(size=(60, dim_o)))
    dots = np.matmul(E.ho[g.u][:, None, :], E.ho[g.v][:, :, None])
    e_o = ad.sigmoid_array(dots.reshape(-1))
    want = np.minimum(2.5, g.w / np.maximum(e_o, dc.EPS))
    assert rewire(g, E, 2.5).w.tobytes() == want.tobytes()


# encoder ------------------------------------------------------------------

def test_encoder_zero_weights_zero_embeddings():
    g = Graph.from_pairs(3, [(0, 1), (1, 2)])
    a_hat = ad.normalize_adjacency(g)
    enc = DecoupledEncoder(2, 4, 3, 2, 1, seed=0)
    for p in enc.parameters():
        p.values[:] = 0.0
    X = np.ones((3, 2))
    E = enc.encode([a_hat], [a_hat], X)
    assert np.array_equal(E.hd, np.zeros((3, 3)))
    assert np.array_equal(E.ho, np.zeros((3, 2)))


def test_encoder_deterministic():
    g = Graph.from_pairs(4, [(0, 1), (2, 3), (1, 2)])
    a_hat = ad.normalize_adjacency(g)
    X = np.random.default_rng(1).normal(size=(4, 3))
    enc = DecoupledEncoder(3, 8, 4, 4, 1, seed=7)
    E1 = enc.encode([a_hat], [a_hat], X)
    E2 = enc.encode([a_hat], [a_hat], X)
    assert np.array_equal(E1.hd, E2.hd)
    assert np.array_equal(E1.ho, E2.ho)


def test_encoder_gradient_finite_diff():
    g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    a_hat = ad.normalize_adjacency(g)
    X = np.random.default_rng(2).normal(size=(4, 2))
    enc = DecoupledEncoder(2, 3, 2, 2, 1, seed=3)

    def loss():
        E = enc.encode([a_hat], [a_hat], X)
        return ad.add(ad.tmean(ad.mul(E.H_d, E.H_d)),
                      ad.tmean(ad.mul(E.H_o, E.H_o)))

    assert finite_diff_check(loss, enc.parameters()) < 1e-4


def test_encoder_multichannel_mixing_gradient():
    g1 = Graph.from_pairs(4, [(0, 1), (1, 2)])
    g2 = Graph.from_pairs(4, [(2, 3), (0, 3)])
    hats = [ad.normalize_adjacency(g1), ad.normalize_adjacency(g2)]
    X = np.random.default_rng(5).normal(size=(4, 2))
    enc = DecoupledEncoder(2, 3, 2, 2, 2, seed=4)

    def loss():
        E = enc.encode(hats, hats, X)
        return ad.tmean(ad.mul(E.H_d, E.H_d))

    assert finite_diff_check(loss, enc.parameters()) < 1e-4
