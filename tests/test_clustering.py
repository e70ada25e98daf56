import itertools
import pickle

import numpy as np
import pytest

from mecole import autodiff as ad
from mecole.clustering import Assignment, _fit_logistic, \
    init_assignments, modularity, modularity_init_loss, soft_modularity, \
    update_assignments
from mecole.config import ExperimentConfig
from mecole.decoupling import DecoupledEmbeddings
from mecole.errors import ConfigError, DataError, NumericError
from mecole.graphs import Graph, GraphBundle


def clique(nodes):
    return [(u, v) for u, v in itertools.combinations(nodes, 2)]


def two_triangles():
    """Two triangles joined by one bridge edge."""
    return Graph.from_pairs(6, clique([0, 1, 2]) + clique([3, 4, 5]) +
                            [(2, 3)])


def soft_from_hard(hard, K):
    R = np.zeros((len(hard), K))
    R[np.arange(len(hard)), hard] = 1.0
    return R


# modularity ------------------------------------------------------------

def test_modularity_single_cluster_is_zero():
    g = two_triangles()
    assert modularity(g, np.zeros(6, dtype=int)) == pytest.approx(0.0,
                                                                  abs=1e-12)


def test_modularity_two_triangles_hand_value():
    # natural split of the bridged triangles: each cluster has 3 internal
    # edges of 7, and degree sums 7 each -> Q = 2*(3/7 - (7/14)^2)
    g = two_triangles()
    q = modularity(g, np.array([0, 0, 0, 1, 1, 1]))
    assert q == pytest.approx(2 * (3 / 7 - 0.25), abs=1e-12)


def test_modularity_pairwise_oracle(rng):
    # aggregate per-cluster form must match the pairwise definition
    # (1/2m) sum_ij (A_ij - d_i d_j / 2m) delta(c_i, c_j)
    pairs = {(int(min(u, v)), int(max(u, v)))
             for u, v in rng.integers(0, 15, size=(40, 2)) if u != v}
    g = Graph.from_pairs(15, pairs)
    A = g.adjacency.toarray()
    deg = A.sum(axis=1)
    m2 = deg.sum()
    for trial in range(5):
        labels = rng.integers(0, 3, size=15)
        same = labels[:, None] == labels[None, :]
        q_pair = ((A - np.outer(deg, deg) / m2) * same).sum() / m2
        assert modularity(g, labels) == pytest.approx(float(q_pair),
                                                      abs=1e-12)


def test_soft_modularity_matches_hard_on_onehot(rng):
    g = two_triangles()
    hard = np.array([0, 0, 0, 1, 1, 1])
    assert soft_modularity(g, soft_from_hard(hard, 2)) == \
        pytest.approx(modularity(g, hard), abs=1e-12)


def test_soft_modularity_bounded_by_best_hard_on_4clique(rng):
    # on a 4-clique every bipartition has Q <= 0; any soft C must not beat
    # the exhaustively best hard bipartition by more than vanishing slack
    g = Graph.from_pairs(4, clique([0, 1, 2, 3]))
    best = max(modularity(g, np.array(labels))
               for labels in itertools.product([0, 1], repeat=4))
    for _ in range(20):
        raw = rng.random((4, 2))
        C = raw / raw.sum(axis=1, keepdims=True)
        assert soft_modularity(g, C) <= best + 1e-9


def test_modularity_empty_graph_errors():
    with pytest.raises(DataError):
        modularity(Graph.from_pairs(3, []), np.zeros(3, dtype=int))


# assignment container -----------------------------------------------------

def test_assignment_rejects_non_simplex():
    with pytest.raises(DataError):
        Assignment(R=np.array([[0.5, 0.6]]))


def test_assignment_classes_are_the_hard_label_members():
    R = np.array([[0.9, 0.1, 0.0], [0.2, 0.1, 0.7], [0.6, 0.3, 0.1],
                  [0.3, 0.3, 0.4]])
    a = Assignment(R=R)
    assert [c.tolist() for c in a.classes] == [[0, 2], [], [1, 3]]
    # built once per assignment
    assert a.classes is a.classes
    for members in a.classes[0], a.classes[2]:
        with pytest.raises(ValueError, match="read-only"):
            members[0] = members[-1]


def test_assignment_arrays_are_read_only_copies():
    R = np.array([[0.9, 0.1], [0.2, 0.8]])
    a = Assignment(R=R)
    with pytest.raises(ValueError, match="read-only"):
        a.R[0] = a.R[1]
    # the caller's array stays writable and is not aliased
    R[0] = [0.5, 0.5]
    assert a.R[0].tolist() == [0.9, 0.1]
    # so is an unpickled copy, as an ablation cell's worker returns it, and
    # the cached classes are not sent
    assert len(a.classes) == 2
    b = pickle.loads(pickle.dumps(a))
    assert b.R.tobytes() == a.R.tobytes() and "classes" not in vars(b)
    with pytest.raises(ValueError, match="read-only"):
        b.R[0] = b.R[1]


# init ----------------------------------------------------------------------

def accuracy_of(a, labels):
    from mecole.metrics import clustering_accuracy
    return clustering_accuracy(a.hard, labels)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_init_separates_two_cliques(seed):
    g = Graph.from_pairs(20, clique(range(10)) + clique(range(10, 20)) +
                         [(9, 10)])
    labels = np.array([0] * 10 + [1] * 10)
    cfg = ExperimentConfig(K=2, init_epochs=200, init_lr=0.05, hidden=16,
                           collapse_weight=1.0, seed=seed)
    a = init_assignments(g, None, cfg)
    assert np.allclose(a.R.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(a.R >= 0)
    assert accuracy_of(a, labels) == 1.0


def test_init_accepts_features_and_bundle():
    g = Graph.from_pairs(8, clique(range(4)) + clique(range(4, 8)) +
                         [(3, 4)])
    bundle = GraphBundle(primary=g, auxiliary={})
    X = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4)
    cfg = ExperimentConfig(K=2, init_epochs=150, init_lr=0.05, hidden=8,
                           collapse_weight=1.0, seed=1)
    a = init_assignments(bundle.primary, X, cfg)
    assert accuracy_of(a, np.array([0] * 4 + [1] * 4)) == 1.0


def test_init_objective_improves():
    g = two_triangles()
    cfg = ExperimentConfig(K=2, init_epochs=200, init_lr=0.05, hidden=8,
                           collapse_weight=1.0, seed=3)
    a = init_assignments(g, None, cfg)
    uniform = np.full((6, 2), 0.5)
    assert modularity_init_loss(g, a.R) < modularity_init_loss(g, uniform)


def test_init_k_validation():
    with pytest.raises(ConfigError, match="K must be >= 2"):
        ExperimentConfig(K=1)


def test_init_stays_off_the_tape(monkeypatch):
    """The init's step is closed-form NumPy: it builds a fixed number of
    tensors whatever the epoch count, and never runs `backward`."""
    g = Graph.from_pairs(8, clique(range(4)) + clique(range(4, 8)) +
                         [(3, 4)])
    X = np.random.default_rng(0).normal(size=(8, 3))
    counts = {"tensors": 0, "backward": 0}
    tensor_init, backward = ad.Tensor.__init__, ad.Tensor.backward

    def counting_init(self, *args, **kwargs):
        counts["tensors"] += 1
        tensor_init(self, *args, **kwargs)

    def counting_backward(self):
        counts["backward"] += 1
        backward(self)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    monkeypatch.setattr(ad.Tensor, "backward", counting_backward)
    made = []
    for epochs in (5, 50):
        counts.update(tensors=0, backward=0)
        init_assignments(g, X, ExperimentConfig(
            K=2, init_epochs=epochs, init_lr=0.01, hidden=4,
            collapse_weight=1.0, seed=0))
        made.append(counts["tensors"])
        assert counts["backward"] == 0
    assert made[0] == made[1]

    X[2, 1] = np.nan
    with pytest.raises(NumericError):
        init_assignments(g, X, ExperimentConfig(
            K=2, init_epochs=5, init_lr=0.01, hidden=64, collapse_weight=1.0,
            seed=0))


# self-training update --------------------------------------------------------

def separable_embeddings():
    hd = np.vstack([np.random.default_rng(0).normal(size=(5, 2)) + [4, 0],
                    np.random.default_rng(1).normal(size=(5, 2)) + [-4, 0]])
    return DecoupledEmbeddings.from_arrays(hd, np.zeros((10, 1)))


def noisy_prev(hard, K, conf=0.7):
    n = len(hard)
    R = np.full((n, K), (1 - conf) / (K - 1))
    R[np.arange(n), hard] = conf
    return Assignment(R=R)


def test_update_recovers_separable_classes():
    E = separable_embeddings()
    prev = noisy_prev([0] * 5 + [1] * 5, 2)
    out, _ = update_assignments(E, prev, q=0.6)
    assert out.hard.tolist() == [0] * 5 + [1] * 5
    assert np.allclose(out.R.sum(axis=1), 1.0)


def test_update_sharpens_confidence():
    E = separable_embeddings()
    prev = noisy_prev([0] * 5 + [1] * 5, 2, conf=0.55)
    out, _ = update_assignments(E, prev, q=1.0)
    assert out.R.max(axis=1).mean() > prev.R.max(axis=1).mean()


def test_update_deterministic_in_seed_free_path():
    E = separable_embeddings()
    prev = noisy_prev([0] * 5 + [1] * 5, 2)
    a, _ = update_assignments(E, prev, 0.6)
    b, _ = update_assignments(E, prev, 0.6)
    assert np.array_equal(a.R, b.R)


def test_update_label_permutation_equivariance():
    E = separable_embeddings()
    hard = [0] * 5 + [1] * 5
    prev = noisy_prev(hard, 2)
    prev_swapped = noisy_prev([1 - h for h in hard], 2)
    out, _ = update_assignments(E, prev, 0.6)
    out_swapped, _ = update_assignments(E, prev_swapped, 0.6)
    assert np.allclose(out.R, out_swapped.R[:, ::-1])


def test_update_empty_class_keeps_previous_regressor():
    E = separable_embeddings()
    prev_full = noisy_prev([0] * 5 + [1] * 5, 2)
    _, weights = update_assignments(E, prev_full, 0.6)
    prev_collapsed = noisy_prev([0] * 10, 2)
    kept, _ = update_assignments(E, prev_collapsed, 0.6, prev_weights=weights)
    # class 1 regressor carried over: separable structure still recovered
    assert len(set(kept.hard.tolist())) == 2


def test_update_invalid_q():
    E = separable_embeddings()
    prev = noisy_prev([0] * 5 + [1] * 5, 2)
    with pytest.raises(ConfigError):
        update_assignments(E, prev, q=0.0)


def test_update_never_touches_graph():
    # structural guarantee: the updater signature takes no graph; scores
    # depend only on class-dependent embeddings
    import inspect
    from mecole.clustering import update_assignments as ua
    params = inspect.signature(ua).parameters
    assert "graph" not in params and "bundle" not in params


def _fit_logistic_reference(X, y, steps=500, lr=0.5, l2=1e-4):
    """The plain-expression form of the fit, one temporary per operation."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(steps):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        err = p - y
        gw = X.T @ err / n + l2 * w
        gb = err.mean()
        w -= lr * gw
        b -= lr * gb
    return w, b


@pytest.mark.parametrize("trial", range(12))
def test_fit_logistic_matches_reference_columns(trial):
    # each column of the d x K fit is the one-class fit of that column;
    # only rounding separates them (sigmoid form, gemm against gemv)
    rng = np.random.default_rng(trial)
    n = int(rng.integers(1, 200))
    d = int(rng.integers(1, 20))
    K = int(rng.integers(1, 8))
    X = rng.normal(size=(n, d))
    Y = rng.integers(0, K, size=n)[:, None] == np.arange(K)
    W, b = _fit_logistic(X, Y)
    assert W.shape == (d, K) and b.shape == (K,)
    for k in range(K):
        w_ref, b_ref = _fit_logistic_reference(X, Y[:, k].astype(float))
        np.testing.assert_allclose(W[:, k], w_ref, rtol=0, atol=1e-12)
        assert abs(b[k] - b_ref) <= 1e-12


def test_fit_logistic_stays_finite_on_extreme_logits():
    X = np.array([[1e6, 0.0], [-1e6, 1.0], [3.0, -2.0]])
    Y = np.array([[1, 0], [0, 1], [1, 0]], dtype=bool)
    with np.errstate(all="raise"):
        W, b = _fit_logistic(X, Y, steps=5)
    assert np.isfinite(W).all() and np.isfinite(b).all()
    assert np.abs(X @ W + b).max() > 500


def _update_assignments_reference(E, prev, q, prev_weights=None):
    """`update_assignments` written per class: one `_fit_logistic_reference`
    fit and one score column per class, the probes kept as a list of
    `(w, b)`, or None for a class never fit."""
    hd = E.hd
    n, K = prev.R.shape
    hard = prev.hard
    weights = list(prev_weights) if prev_weights is not None else [None] * K
    pseudo = []
    for k in range(K):
        members = np.flatnonzero(hard == k)
        if members.size == 0:
            continue
        take = max(1, int(np.ceil(q * members.size)))
        order = np.argsort(-prev.R[members, k], kind="stable")
        pseudo.append(members[order[:take]])
    pseudo = np.sort(np.concatenate(pseudo))
    for k in range(K):
        if np.any(hard[pseudo] == k):
            y = (hard[pseudo] == k).astype(np.float64)
            weights[k] = _fit_logistic_reference(hd[pseudo], y)
    scores = np.zeros((n, K))
    for k in range(K):
        if weights[k] is not None:
            w, b = weights[k]
            scores[:, k] = hd @ w + b
    R = ad.softmax_array(scores)
    return Assignment(R=R), weights


@pytest.mark.parametrize("q", [0.5, 1.0])
@pytest.mark.parametrize("K", range(2, 8))
def test_update_matches_per_class_reference(K, q):
    rng = np.random.default_rng(10 * K + int(2 * q))
    n, d = 20 * K, 6
    hd = rng.normal(size=(n, d)) + 2.0 * rng.normal(size=(K, d))[
        rng.integers(0, K, size=n)]
    E = DecoupledEmbeddings.from_arrays(hd, np.zeros((n, 1)))
    prev = Assignment(R=rng.dirichlet(np.ones(K), size=n))
    got, weights = update_assignments(E, prev, q)
    want, ref_weights = _update_assignments_reference(E, prev, q)
    # then empty the last class: its probe is carried over, not refit
    R = got.R.copy()
    R[:, -1] = 0.0
    R /= R.sum(axis=1, keepdims=True)
    emptied = Assignment(R=R)
    got2, weights2 = update_assignments(E, emptied, q, prev_weights=weights)
    want2, _ = _update_assignments_reference(E, emptied, q,
                                             prev_weights=ref_weights)
    for a, b in ((got, want), (got2, want2)):
        assert np.array_equal(a.hard, b.hard)
        np.testing.assert_allclose(a.R, b.R, rtol=0, atol=1e-12)
    assert weights2[0][:, -1].tobytes() == weights[0][:, -1].tobytes()
    assert weights2[1][-1] == weights[1][-1]
