import gc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import finite_diff_check
from mecole import autodiff as ad
from mecole.errors import NumericError
from mecole.graphs import Graph


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
        h = ad.gcn_layer(a_hat, x, w, activation="tanh")
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


# gcn_layer -----------------------------------------------------------

def test_gcn_layer_identity_adjacency():
    a = sp.identity(2, format="csr")
    h = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    w = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    out = ad.gcn_layer(a, h, w)
    assert out.values == pytest.approx(h.values)


def test_gcn_layer_relu():
    a = sp.identity(1, format="csr")
    h = ad.constant([[-1.0, 2.0]])
    w = ad.constant(np.eye(2))
    out = ad.gcn_layer(a, h, w, activation="relu")
    assert np.allclose(out.values, [[0.0, 2.0]])


def test_two_layer_gcn_gradient():
    g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    a_hat = ad.normalize_adjacency(g)
    rng = np.random.default_rng(3)
    h0 = ad.constant(rng.normal(size=(4, 3)))
    w1 = ad.parameter(rng.normal(size=(3, 5)))
    w2 = ad.parameter(rng.normal(size=(5, 2)))

    def loss():
        h1 = ad.gcn_layer(a_hat, h0, w1, activation="tanh")
        h2 = ad.gcn_layer(a_hat, h1, w2)
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


# checkpoints ----------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, rng):
    arrays = {"w1": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4))}
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, arrays)
    loaded = ad.load_checkpoint(path)
    for name in arrays:
        assert np.array_equal(arrays[name], loaded[name])


def test_checkpoint_bad_magic(tmp_path):
    from mecole.errors import DataError
    path = tmp_path / "bad.ckpt"
    path.write_text("NOT-A-CHECKPOINT\n")
    with pytest.raises(DataError):
        ad.load_checkpoint(path)


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
