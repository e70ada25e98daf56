import numpy as np
import pytest

from conftest import finite_diff_check
from mecole import autodiff as ad
from mecole import contrastive as ct
from mecole.clustering import Assignment
from mecole.contrastive import ContrastiveBatch, anchor_weights, \
    contrastive_loss, draw_virtual_node, sample_anchors, sample_negatives, \
    sample_positives, synthesize_virtual_node, uniform_negatives
from mecole.decoupling import DecoupledEmbeddings, predict_links_against
from mecole.errors import ConfigError, DataError
from mecole.graphs import Graph


def assignment_from_conf(conf, K=2, hard=None):
    """Two-class assignment whose class-0 confidences are `conf`."""
    n = len(conf)
    R = np.zeros((n, K))
    if hard is None:
        hard = [0] * n
    for i, (c, k) in enumerate(zip(conf, hard)):
        R[i, k] = c
        rest = (1.0 - c) / (K - 1)
        for j in range(K):
            if j != k:
                R[i, j] = rest
    return Assignment(R=R)


def embeddings(hd, ho):
    return DecoupledEmbeddings.from_arrays(hd, ho)


# anchor selection ----------------------------------------------------------

def test_anchor_weights_prefer_low_confidence():
    a = assignment_from_conf([0.99, 0.99, 0.99, 0.51])
    members, w = anchor_weights(a, 0)
    assert members.tolist() == [0, 1, 2, 3]
    assert w[3] > w[0]
    assert w.sum() == pytest.approx(1.0)


def test_anchor_weights_uniform_when_equal_confidence():
    a = assignment_from_conf([0.9, 0.9, 0.9])
    _, w = anchor_weights(a, 0)
    assert np.allclose(w, 1.0 / 3.0)


def test_sample_anchors_takes_all_small_classes():
    a = assignment_from_conf([0.9, 0.8], hard=[0, 1])
    anchors = sample_anchors(a, 5, np.random.default_rng(0))
    assert sorted(anchors) == [0, 1]


def test_sample_anchors_monte_carlo_frequency():
    # one boundary node (r = 0.51) among confident ones (r = 0.99): over
    # many draws of one anchor it must be chosen at its closed-form rate
    conf = [0.99, 0.99, 0.99, 0.99, 0.51]
    a = assignment_from_conf(conf)
    members, w = anchor_weights(a, 0)
    rng = np.random.default_rng(7)
    trials = 20000
    hits = sum(4 in sample_anchors(a, 1, rng) for _ in range(trials))
    p = w[4]
    sd = np.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 4 * sd


def test_sample_anchors_no_duplicates_within_class():
    conf = np.linspace(0.51, 0.99, 12)
    a = assignment_from_conf(list(conf))
    anchors = sample_anchors(a, 6, np.random.default_rng(3))
    assert len(anchors) == 6
    assert len(set(anchors)) == 6


# virtual node synthesis ------------------------------------------------------

def test_virtual_node_full_swap_at_pce_one():
    hd = np.array([[1.0, 2.0], [10.0, 20.0]])
    ho = np.array([[5.0], [6.0]])
    a = assignment_from_conf([0.9, 0.9], hard=[0, 1])
    virt = synthesize_virtual_node(0, a, embeddings(hd, ho), 1.0,
                                   np.random.default_rng(0))
    assert virt.donor == 1
    assert virt.mask.all()
    assert np.array_equal(virt.h_d, hd[1])
    assert np.array_equal(virt.h_o, ho[0])


def test_virtual_node_blend_respects_mask():
    rng = np.random.default_rng(1)
    hd = rng.normal(size=(4, 6))
    ho = rng.normal(size=(4, 3))
    a = assignment_from_conf([0.9] * 4, hard=[0, 0, 1, 1])
    for _ in range(50):
        virt = synthesize_virtual_node(0, a, embeddings(hd, ho), 0.4, rng)
        assert virt.donor in (2, 3)
        assert virt.mask.any()
        assert np.array_equal(virt.h_d[virt.mask], hd[virt.donor][virt.mask])
        assert np.array_equal(virt.h_d[~virt.mask], hd[0][~virt.mask])
        assert np.array_equal(virt.h_o, ho[0])


def test_virtual_node_mask_rate_within_3_sigma():
    # Bernoulli(p_ce) per dim, conditioned on at least one success; with
    # 64 dims and p = 0.3 the conditioning correction is negligible
    dim = 64
    hd = np.random.default_rng(0).normal(size=(3, dim))
    ho = np.zeros((3, 1))
    a = assignment_from_conf([0.9] * 3, hard=[0, 1, 1])
    rng = np.random.default_rng(5)
    p = 0.3
    trials = 2000
    total = sum(synthesize_virtual_node(0, a, embeddings(hd, ho), p,
                                        rng).mask.sum()
                for _ in range(trials))
    n = trials * dim
    sd = np.sqrt(p * (1 - p) / n)
    assert abs(total / n - p) < 3 * sd


def test_virtual_node_mask_dims_independent():
    # sample covariance between two mask dims should vanish
    dim = 8
    hd = np.zeros((2, dim))
    ho = np.zeros((2, 1))
    a = assignment_from_conf([0.9, 0.9], hard=[0, 1])
    rng = np.random.default_rng(9)
    masks = np.array([synthesize_virtual_node(0, a, embeddings(hd, ho),
                                              0.5, rng).mask
                      for _ in range(20000)], dtype=float)
    corr = np.corrcoef(masks[:, 0], masks[:, 1])[0, 1]
    assert abs(corr) < 0.02


def test_virtual_node_requires_opposing_class():
    a = assignment_from_conf([0.9, 0.9], hard=[0, 0])
    E = embeddings(np.zeros((2, 2)), np.zeros((2, 1)))
    with pytest.raises(DataError):
        synthesize_virtual_node(0, a, E, 0.5, np.random.default_rng(0))


def test_virtual_node_mask_draw_has_a_budget(monkeypatch):
    # one dim at p_ce = 0.001, the lowest rate the floor of 1/1024 admits
    a = assignment_from_conf([0.9, 0.9], hard=[0, 1])
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    donor, mask = draw_virtual_node(0, a, 1, 0.001, rng)
    assert (donor, mask.tolist()) == (1, [True])
    ref.integers(0, 1)  # the donor, the only node of the opposing class
    tries = 1
    while not ref.random(1)[0] < 0.001:
        tries += 1
    assert tries > 8 and rng.bit_generator.state == ref.bit_generator.state
    # the same draw with a budget below its tries gives up after the budget
    monkeypatch.setattr(ct, "MASK_DRAW_BUDGET", 8)
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    with pytest.raises(ConfigError, match="p_ce=0.001 with dim_d=1 drew 8"):
        draw_virtual_node(0, a, 1, 0.001, rng)
    ref.integers(0, 1)
    ref.random(8)
    assert rng.bit_generator.state == ref.bit_generator.state


# negative sampling -----------------------------------------------------------

def star_fixture(rng):
    """Node 0 adjacent to 1 and 2; nodes 3..7 are non-neighbors."""
    g = Graph.from_pairs(8, [(0, 1), (0, 2)])
    hd = rng.normal(size=(8, 4))
    ho = rng.normal(size=(8, 3))
    E = embeddings(hd, ho)
    a = assignment_from_conf([0.9] * 8, hard=[0] * 4 + [1] * 4)
    virt = synthesize_virtual_node(0, a, E, 0.5, rng)
    return g, E, virt


def test_negatives_exclude_anchor_and_neighbors(rng):
    g, E, virt = star_fixture(rng)
    for seed in range(30):
        chosen, p = sample_negatives(virt, E, g, 3,
                                     np.random.default_rng(seed))
        assert not set(chosen.tolist()) & {0, 1, 2}
        assert p.sum() == pytest.approx(1.0)
        assert len(chosen) == len(set(chosen.tolist())) == 3


def test_negatives_probabilities_proportional_to_z(rng):
    g, E, virt = star_fixture(rng)
    chosen, p = sample_negatives(virt, E, g, 3, np.random.default_rng(4))
    z = predict_links_against(virt.h_d, virt.h_o, E)
    expected = z[chosen] / z[chosen].sum()
    assert np.allclose(p, expected, atol=1e-12)


def test_negatives_pool_smaller_than_m_takes_all(rng):
    g, E, virt = star_fixture(rng)
    chosen, p = sample_negatives(virt, E, g, 5, np.random.default_rng(0))
    assert sorted(chosen.tolist()) == [3, 4, 5, 6, 7]


def test_negatives_uniform_ablation(rng):
    g, E, virt = star_fixture(rng)
    counts = np.zeros(8)
    for seed in range(3000):
        chosen, p = uniform_negatives(g, virt.anchor, 1,
                                      np.random.default_rng(seed))
        assert np.allclose(p, 1.0)
        counts[chosen[0]] += 1
    assert counts[:3].sum() == 0
    # uniform over the 5 candidates: each near 600
    assert np.all(np.abs(counts[3:] - 600) < 4 * np.sqrt(3000 * 0.2 * 0.8))


def test_negatives_first_draw_proportional_to_z(rng):
    # chi-square on the first (and only) draw against Z-proportional law
    g, E, virt = star_fixture(rng)
    z = predict_links_against(virt.h_d, virt.h_o, E)
    cand = np.array([3, 4, 5, 6, 7])
    probs = z[cand] / z[cand].sum()
    counts = dict.fromkeys(cand.tolist(), 0)
    trials = 20000
    master = np.random.default_rng(11)
    for _ in range(trials):
        chosen, _ = sample_negatives(virt, E, g, 1, master)
        counts[int(chosen[0])] += 1
    obs = np.array([counts[int(u)] for u in cand], dtype=float)
    exp = probs * trials
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    from scipy.stats import chi2 as chi2_dist
    assert chi2 < chi2_dist.ppf(0.99, df=len(cand) - 1)


def test_positives_uniform_from_neighborhood():
    g = Graph.from_pairs(5, [(0, 1), (0, 2), (0, 3)])
    chosen, p = sample_positives(0, g, 2, np.random.default_rng(1))
    assert set(chosen.tolist()) <= {1, 2, 3}
    assert np.allclose(p, 0.5)
    with pytest.raises(DataError):
        sample_positives(4, g, 1, np.random.default_rng(0))


def test_positives_sorted_like_the_python_sort():
    g = Graph.from_pairs(30, [(0, v) for v in range(1, 30)])
    for seed in range(20):
        chosen, _ = sample_positives(0, g, 8, np.random.default_rng(seed))
        draws = np.random.default_rng(seed).choice(g.neighbors(0), size=8,
                                                   replace=False)
        want = np.asarray(sorted(int(u) for u in draws))
        assert chosen.dtype == want.dtype and np.array_equal(chosen, want)


# contrastive loss ------------------------------------------------------------

def batch(anchor, pos, neg):
    return ContrastiveBatch(anchor=anchor,
                            positives=np.asarray(pos),
                            pos_p=np.full(len(pos), 1.0 / len(pos)),
                            negatives=np.asarray(neg),
                            neg_p=np.full(len(neg), 1.0 / len(neg)))


def test_loss_equal_similarities_is_ln_k():
    # all embeddings identical: every score equal, loss = ln K exactly
    for K in (1, 3, 7):
        E = embeddings(np.ones((K + 2, 3)), np.ones((K + 2, 1)))
        b = batch(0, [1], list(range(2, 2 + K)))
        loss = contrastive_loss([b], E, tau=0.5)
        assert loss.item() == pytest.approx(np.log(K), abs=1e-12)


def test_loss_hand_computed_single_term():
    # s+ = 2, s- = 1, tau = 1: loss = log(e^1) - 2 = -1
    hd = np.array([[1.0, 1.0], [2.0, 0.0], [1.0, 0.0]])
    E = embeddings(hd, np.zeros((3, 1)))
    b = batch(0, [1], [2])
    loss = contrastive_loss([b], E, tau=1.0)
    assert loss.item() == pytest.approx(-1.0, abs=1e-12)


def test_loss_duplicating_negatives_adds_ln_c(rng):
    hd = rng.normal(size=(8, 4))
    E = embeddings(hd, np.zeros((8, 1)))
    base = contrastive_loss([batch(0, [1], [2, 3, 4])], E, 0.7).item()
    doubled = contrastive_loss([batch(0, [1], [2, 3, 4, 2, 3, 4])],
                               E, 0.7).item()
    assert doubled == pytest.approx(base + np.log(2.0), abs=1e-10)


def test_loss_can_be_negative():
    hd = np.array([[3.0], [3.0], [-3.0]])
    E = embeddings(hd, np.zeros((3, 1)))
    loss = contrastive_loss([batch(0, [1], [2])], E, 1.0)
    assert loss.item() < 0.0


def test_loss_standard_form_nonnegative_single_negative(rng):
    hd = rng.normal(size=(5, 3))
    E = embeddings(hd, np.zeros((5, 1)))
    b = batch(0, [1], [2])
    loss = contrastive_loss([b], E, 0.5,
                            include_positive_in_denominator=True)
    assert loss.item() > 0.0


def test_loss_standard_form_hand_computed():
    hd = np.array([[1.0, 1.0], [2.0, 0.0], [1.0, 0.0]])
    E = embeddings(hd, np.zeros((3, 1)))
    b = batch(0, [1], [2])
    loss = contrastive_loss([b], E, 1.0,
                            include_positive_in_denominator=True)
    expected = np.log(np.exp(1.0) + np.exp(2.0)) - 2.0
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_loss_mean_over_batches_and_positives(rng):
    hd = rng.normal(size=(10, 3))
    E = embeddings(hd, np.zeros((10, 1)))
    b1 = batch(0, [1, 2], [3, 4])
    b2 = batch(5, [6], [7, 8, 9])
    combined = contrastive_loss([b1, b2], E, 0.5).item()
    # oracle: per-(batch, positive) terms averaged
    terms = []
    for b in (b1, b2):
        denom = np.sum(np.exp(hd[b.negatives] @ hd[b.anchor] / 0.5))
        for u in b.positives:
            terms.append(np.log(denom) - hd[u] @ hd[b.anchor] / 0.5)
    assert combined == pytest.approx(float(np.mean(terms)), abs=1e-10)


def test_loss_gradient_finite_diff(rng):
    hd = ad.parameter(rng.normal(size=(8, 3)) * 0.5)
    ho = ad.parameter(rng.normal(size=(8, 2)))
    b1 = batch(0, [1], [2, 3, 4])
    b2 = batch(5, [6, 7], [1, 2])

    def loss():
        E = DecoupledEmbeddings(hd, ho)
        return contrastive_loss([b1, b2], E, 0.6)

    assert finite_diff_check(loss, [hd]) < 1e-4


def test_batch_validation():
    with pytest.raises(DataError):
        ContrastiveBatch(anchor=0, positives=np.array([], dtype=int),
                         pos_p=np.array([]), negatives=np.array([1]),
                         neg_p=np.array([1.0]))
    with pytest.raises(DataError):
        ContrastiveBatch(anchor=0, positives=np.array([1]),
                         pos_p=np.array([0.7]), negatives=np.array([2]),
                         neg_p=np.array([1.0]))
