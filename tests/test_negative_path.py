"""The array path of the counterfactual hard-negative sampler against the
per-node code it replaced.

Each reference below is a copy of the earlier implementation; the array
versions must reproduce it exactly (same nodes, same generator state
afterwards), so seeded runs stay byte-identical.
The references make their draws in the order of the batch builder: a row
draws its uniforms before its pool is scored, and an anchor draws its
positives whether or not its rows underflow.
"""

import tracemalloc

import numpy as np
import pytest

from mecole import autodiff as ad
from mecole import contrastive as ct
from mecole.clustering import Assignment
from mecole.config import ExperimentConfig
from mecole.contrastive import VirtualNode, _drop_edges, \
    augment_batches as _build_augment_batches, \
    epoch_batches as _build_batches, sample_negatives, \
    synthesize_virtual_node, uniform_negatives
from mecole.decoupling import DecoupledEmbeddings, predict_links_against
from mecole.errors import ConfigError, DataError, NumericError
from mecole.graphs import Graph, SBMConfig, generate_sbm
from mecole.training import run_training


# references: the per-node code the array path replaced -----------------------

def ref_synthesize_virtual_node(v, assignment, E, p_ce, rng):
    if not 0.0 < p_ce <= 1.0:
        raise ConfigError("p_ce must lie in (0, 1]")
    hard = assignment.R.argmax(axis=1)
    opposing = np.flatnonzero(hard != hard[v])
    if opposing.size == 0:
        raise DataError("no opposing class to draw a donor from")
    donor = int(rng.choice(opposing))
    dim_d = E.hd.shape[1]
    mask = rng.random(dim_d) < p_ce
    while not mask.any():
        mask = rng.random(dim_d) < p_ce
    h_d = np.where(mask, E.hd[donor], E.hd[v])
    return VirtualNode(h_d=h_d, h_o=E.ho[v].copy(), anchor=int(v),
                       donor=donor, mask=mask)


def ref_weighted_draw_without_replacement(items, weights, m, rng):
    items = list(items)
    weights = np.asarray(weights, dtype=np.float64).copy()
    out = []
    for _ in range(m):
        p = weights / weights.sum()
        i = int(rng.choice(len(items), p=p))
        out.append(items.pop(i))
        weights = np.delete(weights, i)
    return out


def ref_sample_negatives(virt, E, graph, m, rng, pool_factor=10,
                         uniform=False):
    if m < 1:
        raise ConfigError("m must be >= 1")
    v = virt.anchor
    excluded = set(graph.neighbors(v).tolist())
    excluded.add(v)
    candidates = np.array([u for u in range(graph.n) if u not in excluded])
    if candidates.size == 0:
        raise DataError("no candidate negatives: anchor neighborhood is full")
    if uniform:
        take = min(m, candidates.size)
        return np.asarray(sorted(int(u) for u in
                                 rng.choice(candidates, size=take,
                                            replace=False)))
    z = predict_links_against(virt.h_d, virt.h_o, E)[candidates]
    c = min(pool_factor * m, candidates.size)
    pool_idx = np.argsort(-z, kind="stable")[:c]
    pool = candidates[pool_idx]
    pool_z = z[pool_idx]
    # scores can underflow to 0: raise when fewer than m are above 0
    # (fewer than one if the pool is taken whole), after the draw's
    # uniforms are used up
    need = m if pool.size > m else 1
    if np.count_nonzero(pool_z) < need:
        if pool.size > m:
            rng.random(m)  # one uniform per rng.choice(size, p=p)
        raise NumericError("hard-negative pool underflows")
    if pool.size <= m:
        chosen = [int(u) for u in pool]
    else:
        chosen = ref_weighted_draw_without_replacement(pool, pool_z, m, rng)
    return np.asarray(chosen)


def ref_build_batches(cfg, assignment, E, graph, p_ce, rng):
    anchors = ct.sample_anchors(assignment, cfg.per_class_anchors, rng)
    hard = assignment.R.argmax(axis=1)
    batches = []
    for v in anchors:
        if graph.neighbors(v).size in (0, graph.n - 1) or \
                (hard == hard[v]).all():
            continue
        neg_nodes = []
        for _ in range(cfg.virtual_per_anchor):
            virt = ref_synthesize_virtual_node(v, assignment, E, p_ce, rng)
            try:
                nodes = ref_sample_negatives(
                    virt, E, graph, cfg.negatives_m, rng,
                    pool_factor=cfg.pool_factor, uniform=cfg.neg_uniform)
            except NumericError:
                continue
            neg_nodes.extend(int(u) for u in nodes)
        pos = ct.sample_positives(v, graph, cfg.positives, rng)
        if not neg_nodes:
            continue
        batches.append(ct.ContrastiveBatch(
            anchor=int(v), positives=pos, negatives=np.asarray(neg_nodes)))
    return batches


def ref_build_augment_batches(cfg, assignment, graph, rng):
    view = _drop_edges(graph, 0.2, rng)
    anchors = ct.sample_anchors(assignment, cfg.per_class_anchors, rng)
    batches = []
    for v in anchors:
        nbrs = view.neighbors(v)
        excluded = set(graph.neighbors(v).tolist()) | {v}
        candidates = np.array([u for u in range(graph.n)
                               if u not in excluded])
        if nbrs.size == 0 or candidates.size == 0:
            continue
        pos = ct.sample_positives(v, view, cfg.positives, rng)
        take = min(cfg.negatives_m * cfg.virtual_per_anchor, candidates.size)
        negs = np.asarray(sorted(int(u) for u in
                                 rng.choice(candidates, size=take,
                                            replace=False)))
        batches.append(ct.ContrastiveBatch(anchor=int(v), positives=pos,
                                           negatives=negs))
    return batches


# helpers ---------------------------------------------------------------------

def same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def same_batches(a, b):
    return len(a) == len(b) and all(
        x.anchor == y.anchor and all(
            same_array(getattr(x, f), getattr(y, f))
            for f in ("positives", "negatives"))
        for x, y in zip(a, b))


def pair_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def fixture(seed, n_blocks=4, size=40, dim=6):
    """A planted graph, random embeddings and a noisy soft assignment."""
    rng = np.random.default_rng(seed)
    graph, _, labels = generate_sbm(SBMConfig(
        blocks=n_blocks, block_sizes=(size,) * n_blocks, p_in=0.15,
        p_out=0.02, seed=seed))
    E = DecoupledEmbeddings.from_arrays(rng.normal(size=(graph.n, dim)),
                                        rng.normal(size=(graph.n, dim)))
    scores = np.eye(n_blocks)[labels] * 2.0 + \
        rng.normal(size=(graph.n, n_blocks))
    R = np.exp(scores)
    R /= R.sum(axis=1, keepdims=True)
    return graph, E, Assignment(R=R)


def virtual_nodes(graph, assignment, E, rng, count=12):
    anchors = [v for v in range(graph.n) if graph.neighbors(v).size][:count]
    return [synthesize_virtual_node(v, assignment, E, 0.5, rng)
            for v in anchors]


# sampler equivalence ---------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m, pool_factor", [(5, 10), (3, 2), (1, 10)])
def test_hard_path_matches_reference(seed, m, pool_factor):
    graph, E, a = fixture(seed)
    for virt in virtual_nodes(graph, a, E, np.random.default_rng(seed)):
        new_rng, ref_rng = pair_rngs(seed + 100)
        got = sample_negatives(virt, E, graph, m, new_rng,
                               pool_factor=pool_factor)
        want = ref_sample_negatives(virt, E, graph, m, ref_rng,
                                    pool_factor=pool_factor)
        assert same_array(got, want)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m", [1, 5, 500])
def test_uniform_path_matches_reference(seed, m):
    graph, E, a = fixture(seed)
    for virt in virtual_nodes(graph, a, E, np.random.default_rng(seed)):
        new_rng, ref_rng = pair_rngs(seed + 200)
        got = uniform_negatives(graph, virt.anchor, m, new_rng)
        want = ref_sample_negatives(virt, E, graph, m, ref_rng, uniform=True)
        assert same_array(got, want)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(4))
def test_pool_no_larger_than_m_matches_reference(seed):
    # 8 nodes, anchor 0 adjacent to 1 and 2: five candidates, m >= 5
    rng = np.random.default_rng(seed)
    graph = Graph.from_pairs(8, [(0, 1), (0, 2), (3, 4)])
    E = DecoupledEmbeddings.from_arrays(rng.normal(size=(8, 3)),
                                        rng.normal(size=(8, 2)))
    a = Assignment(R=np.eye(2)[[0, 0, 0, 0, 1, 1, 1, 1]] * 0.8 + 0.1)
    virt = synthesize_virtual_node(0, a, E, 0.5, rng)
    for m, pool_factor in [(5, 10), (7, 1), (2, 2)]:
        new_rng, ref_rng = pair_rngs(seed)
        got = sample_negatives(virt, E, graph, m, new_rng,
                               pool_factor=pool_factor)
        want = ref_sample_negatives(virt, E, graph, m, ref_rng,
                                    pool_factor=pool_factor)
        assert same_array(got, want)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(6))
def test_ties_across_the_pool_boundary_match_reference(seed):
    # three groups of 11+ candidates share one class-dependent row each
    # and all share one invariant row, so Z takes three values; a pool of
    # 15 takes all of the top group and cuts through the next one
    rng = np.random.default_rng(seed)
    n = 40
    graph = Graph.from_pairs(n, [(0, 1), (0, 2), (5, 6)])
    hd = rng.normal(size=(3, 4))[rng.permutation(np.arange(n) % 3)]
    ho = np.tile(rng.normal(size=3), (n, 1))
    E = DecoupledEmbeddings.from_arrays(hd, ho)
    virt = VirtualNode(h_d=hd[0], h_o=ho[0], anchor=0, donor=3,
                       mask=np.ones(4, dtype=bool))
    m, pool_factor = 3, 5
    z = predict_links_against(virt.h_d, virt.h_o, E)[3:]
    boundary = np.sort(z)[::-1][m * pool_factor - 1]
    inside = np.sort(z)[::-1][:m * pool_factor]
    assert (z == boundary).sum() > (inside == boundary).sum()
    for draw_seed in range(5):
        new_rng, ref_rng = pair_rngs(draw_seed)
        got = sample_negatives(virt, E, graph, m, new_rng,
                               pool_factor=pool_factor)
        want = ref_sample_negatives(virt, E, graph, m, ref_rng,
                                    pool_factor=pool_factor)
        assert same_array(got, want)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def test_top_stable_matches_full_stable_sort():
    rng = np.random.default_rng(0)
    for case in range(400):
        size = int(rng.integers(1, 60))
        if case % 2:
            # negated scores, rounded so that some tie, with the closed
            # neighborhood masked to +inf as `_hard_pools` masks it
            keys = -rng.random((4, size)).round(int(rng.integers(1, 4)))
            keys[rng.random(keys.shape) < 0.3] = np.inf
        else:
            keys = rng.integers(0, 6, size=(4, size)).astype(np.float64)
            keys[rng.random(keys.shape) < 0.2] = -0.0
        keys[1] = keys[1, 0]  # all ties: every key is a candidate
        keys[2] = rng.permutation(size)  # no tie: exactly c candidates
        # c up to the row size, or the first row's count of finite keys
        finite = int(np.isfinite(keys[0]).sum())
        c = int(rng.integers(1, size + 1)) if case % 3 else max(finite, 1)
        before = keys.tobytes()
        want = ct._top_stable(keys, c)
        for got, row in zip(want, keys):
            assert np.array_equal(got, np.argsort(row, kind="stable")[:c])
        got = ct._top_stable(keys, c, np.full_like(keys, np.nan))
        assert np.array_equal(got, want) and keys.tobytes() == before


def test_weighted_draw_matches_choice_loop():
    # rows drawn together, against one choice loop per row in row order
    rng = np.random.default_rng(1)
    for case in range(300):
        size = int(rng.integers(2, 60))
        w = rng.random((int(rng.integers(1, 4)), size)) ** 3
        m = int(rng.integers(1, size))
        items = np.arange(100, 100 + size)
        new_rng, ref_rng = pair_rngs(case)
        picks = ct._weighted_draw_without_replacement(
            w, new_rng.random((len(w), m)))
        for got, row in zip(picks, w):
            want = ref_weighted_draw_without_replacement(items, row, m,
                                                         ref_rng)
            assert items[got].tolist() == want
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def boundary_draws(w, m, rng):
    """Uniforms on the steps of each draw's cdf, as the per-node loop
    computes it over the weights left, and the positions they pick."""
    left_w, left, u, picks = w, list(range(w.size)), [], []
    for _ in range(m):
        cdf = (left_w / left_w.sum()).cumsum()
        cdf /= cdf[-1]
        u.append(cdf[int(rng.integers(0, cdf.size - 1))])
        i = int(cdf.searchsorted(u[-1], side="right"))
        picks.append(left.pop(i))
        left_w = np.delete(left_w, i)
    return u, picks


def test_weighted_draw_on_cdf_steps_matches_per_node_sums():
    # a uniform equal to a step of the cdf picks the next weight only if
    # every sum adds the weights left in the per-node order; summing them
    # in another order moves some steps by an ulp
    rng = np.random.default_rng(2)
    for _ in range(300):
        size = int(rng.integers(9, 60))
        w = rng.random((3, size)) ** 3 * 10.0 ** rng.integers(-3, 4, (3, size))
        m = int(rng.integers(2, 8))
        u, want = zip(*(boundary_draws(row, m, rng) for row in w))
        got = ct._weighted_draw_without_replacement(w, np.array(u))
        assert got.tolist() == list(want)


@pytest.mark.parametrize("seed", range(3))
def test_virtual_node_matches_reference(seed):
    graph, E, a = fixture(seed)
    new_rng, ref_rng = pair_rngs(seed)
    for v in range(0, graph.n, 7):
        got = synthesize_virtual_node(v, a, E, 0.3, new_rng)
        want = ref_synthesize_virtual_node(v, a, E, 0.3, ref_rng)
        assert got.anchor == want.anchor and got.donor == want.donor
        for f in ("h_d", "h_o", "mask"):
            assert same_array(getattr(got, f), getattr(want, f))
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("size", [1, 2, 7, 300, 2708])
def test_donor_draw_equals_choice(size):
    # draw_virtual_node draws its donor as pool[rng.integers(0, pool.size)]
    # in place of rng.choice(pool): same value, same generator state
    pool = np.arange(size, dtype=np.int64) * 3 + 1
    new_rng, ref_rng = pair_rngs(size)
    for _ in range(200):
        got = pool[new_rng.integers(0, pool.size)]
        want = ref_rng.choice(pool)
        assert got == want and type(got) is type(want)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


# batch builders --------------------------------------------------------------

def noisy_assignment(labels, rng):
    K = labels.max() + 1
    R = np.exp(np.eye(K)[labels] * 2.0 + rng.normal(size=(len(labels), K)))
    R /= R.sum(axis=1, keepdims=True)
    return Assignment(R=R)


def ragged_fixture():
    """48 nodes, so every pool is cut by the candidate count rather than
    pool_factor * m, and three hubs left with 3, 5 and 7 candidates (pools
    no larger than m = 5)."""
    rng = np.random.default_rng(7)
    sbm, _, labels = generate_sbm(SBMConfig(
        blocks=4, block_sizes=(12,) * 4, p_in=0.3, p_out=0.05, seed=7))
    pairs = set(zip(sbm.u.tolist(), sbm.v.tolist()))
    for hub, left in ((0, 3), (12, 5), (24, 7)):
        others = [u for u in range(48) if u != hub][:-left]
        pairs |= {(min(hub, u), max(hub, u)) for u in others}
    graph = Graph.from_pairs(48, sorted(pairs))
    E = DecoupledEmbeddings.from_arrays(rng.normal(size=(48, 6)),
                                        rng.normal(size=(48, 6)))
    return graph, E, noisy_assignment(labels, rng)


def underflow_batch_fixture():
    """Class 0 is nodes 0 and 1, adjacent to each other and to all of
    class 1 (nodes 2-9). With a class-1 donor, their virtual nodes score
    every candidate (classes 2 and 3) at sigmoid(-500)^2, which is 0, so
    those pools underflow; other pools mix 0 and tiny nonzero scores."""
    labels = np.repeat([0, 1, 2, 3], [2, 8, 15, 15])
    pairs = [(0, 1)] + [(a, u) for a in (0, 1) for u in range(2, 10)]
    pairs += [(u, u + 1) for u in range(10, 39)]
    graph = Graph.from_pairs(40, pairs)
    hd = np.where(labels == 1, -40.0, 20.0)[:, None]
    ho = np.where(labels == 0, -40.0, 20.0)[:, None]
    E = DecoupledEmbeddings.from_arrays(hd, ho)
    a = Assignment(R=np.eye(4)[labels] * 0.7 + 0.075)
    return graph, E, a


def cora_fixture():
    """One epoch's inputs at Cora's size: 2,708 nodes in 7 classes."""
    rng = np.random.default_rng(11)
    graph, _, labels = generate_sbm(SBMConfig(
        blocks=7, block_sizes=(351, 217, 418, 818, 426, 298, 180),
        p_in=0.0064, p_out=0.00033, seed=11))
    E = DecoupledEmbeddings.from_arrays(rng.normal(size=(graph.n, 16)),
                                        rng.normal(size=(graph.n, 32)))
    return graph, E, noisy_assignment(labels, rng)


def batch_case(case):
    """Graph, embeddings, assignment and config overrides of one input."""
    if case == "ragged":
        return (*ragged_fixture(), dict(K=4, per_class_anchors=12))
    if case in ("blocks", "many_blocks"):
        # 4 classes x 20 anchors x 6 virtual nodes: 480 rows of one size
        return (*fixture(3), dict(K=4, per_class_anchors=20,
                                  virtual_per_anchor=6))
    if case == "underflow":
        return (*underflow_batch_fixture(), dict(K=4))
    if case == "cora":
        return (*cora_fixture(), dict(K=7))
    return (*fixture(case), dict(K=4))


@pytest.mark.parametrize("case", [0, 1, 2, "ragged", "blocks", "many_blocks",
                                  "underflow", "cora"])
@pytest.mark.parametrize("neg_uniform", [False, True])
def test_build_batches_matches_reference(case, neg_uniform, monkeypatch):
    graph, E, a, overrides = batch_case(case)
    if case == "many_blocks":
        # blocks of 100 rows, so the epoch spans at least 3 of them
        monkeypatch.setattr(ct, "SCORE_BUDGET", 100 * graph.n)
    block = max(32, ct.SCORE_BUDGET // graph.n)
    seed = case if isinstance(case, int) else 5
    cfg = ExperimentConfig(seed=seed, neg_uniform=neg_uniform, **overrides)
    new_rng, ref_rng = pair_rngs(seed)
    got = _build_batches(cfg, a, E, graph, 0.5, new_rng)
    want = ref_build_batches(cfg, a, E, graph, 0.5, ref_rng)
    assert got and same_batches(got, want)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    if neg_uniform:
        return
    counts = [len(b.negatives) for b in got]
    full = cfg.virtual_per_anchor * cfg.negatives_m
    if case == "ragged":
        # pools of every size from the hubs' 3 up to the 47 of the others
        assert min(counts) < full
    if case == "blocks":
        # one block per epoch, as on small graphs
        assert sum(counts) <= block * cfg.negatives_m
    if case == "many_blocks":
        assert sum(counts) > 2 * block * cfg.negatives_m
    if case == "underflow":
        # a class-0 anchor lost the rows of its class-1 donors
        assert any(b.anchor in (0, 1) and 0 < len(b.negatives) < full
                   for b in got)


def test_one_scoring_pass_matches_rows_sampled_alone():
    # the ragged fixture's pools range from 3 (taken whole) to 47 nodes
    graph, E, a = ragged_fixture()
    m, pool_factor = 5, 10
    virts = virtual_nodes(graph, a, E, np.random.default_rng(0), count=48)
    anchors = np.array([virt.anchor for virt in virts])
    sizes = ct.pool_size(graph, anchors, m, pool_factor)
    assert min(sizes) <= m and len(set(sizes.tolist())) > 3
    new_rng, ref_rng = pair_rngs(1)
    uniforms = new_rng.random((np.count_nonzero(sizes > m), m))
    rows = ct.hard_negatives(anchors, np.array([virt.h_d for virt in virts]),
                             np.array([virt.h_o for virt in virts]),
                             uniforms, E, graph, m, sizes)
    for virt, row in zip(virts, rows):
        assert same_array(row, sample_negatives(virt, E, graph, m, ref_rng,
                                                pool_factor=pool_factor))
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def test_scoring_pass_peaks_below_three_blocks_and_the_anchor_scores(
        monkeypatch):
    # 30 anchors x 4 virtual nodes, all with pools of pool_factor * m, in
    # 40-row blocks: the 120 rows span 3 of them
    graph, E, _ = fixture(0, size=250)
    m, pool_factor, step = 5, 10, 40
    monkeypatch.setattr(ct, "SCORE_BUDGET", step * graph.n)
    rng = np.random.default_rng(0)
    owners = np.repeat(rng.choice(graph.n, size=30, replace=False), 4)
    h_d = np.where(rng.random((owners.size, E.hd.shape[1])) < 0.5,
                   E.hd[rng.integers(0, graph.n, owners.size)], E.hd[owners])
    h_o = E.ho[owners]
    sizes = ct.pool_size(graph, owners, m, pool_factor)
    assert (sizes == pool_factor * m).all()
    uniforms = rng.random((owners.size, m))
    block_bytes = min(step, owners.size) * graph.n * 8
    zo_bytes = np.unique(owners).size * graph.n * 8
    tracemalloc.start()
    try:
        rows = ct.hard_negatives(owners, h_d, h_o, uniforms, E, graph, m,
                                 sizes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(row is not None for row in rows)
    assert peak < zo_bytes + 3 * block_bytes


def test_anchor_scores_in_blocks_bit_equal_to_one_product(monkeypatch):
    # 70 distinct anchors in blocks of 32 rows: two full and a short one
    graph, E, _ = fixture(2)
    m, pool_factor = 5, 10
    monkeypatch.setattr(ct, "SCORE_BUDGET", 32 * graph.n)
    rng = np.random.default_rng(0)
    owners = rng.permutation(np.repeat(
        rng.choice(graph.n, size=70, replace=False), 2))
    h_d, h_o = E.hd[rng.integers(0, graph.n, owners.size)], E.ho[owners]
    sizes = ct.pool_size(graph, owners, m, pool_factor)
    uniforms = rng.random((np.count_nonzero(sizes > m), m))
    outs = []
    sigmoid = ad.sigmoid_array

    def recording_sigmoid(x, out=None):
        outs.append(out)
        return sigmoid(x, out=out)

    monkeypatch.setattr(ad, "sigmoid_array", recording_sigmoid)
    ct.hard_negatives(owners, h_d, h_o, uniforms, E, graph, m, sizes)
    zo = outs[0].base
    assert zo.shape == (70, graph.n)
    assert sum(out.base is zo for out in outs) == 3
    _, first = np.unique(owners, return_index=True)
    want = sigmoid(np.matmul(E.ho, h_o[first][:, :, None])[:, :, 0])
    assert zo.tobytes() == want.tobytes()


def test_hard_negatives_reject_rows_of_one_anchor_that_differ_in_h_o():
    # every row of an anchor is scored with its first row's h_o, so a
    # later row with another h_o would be scored with the wrong one
    graph, E, _ = fixture(0)
    m, pool_factor = 5, 10
    owners = np.array([5, 7, 5])
    h_d, h_o = E.hd[owners], E.ho[owners].copy()
    sizes = ct.pool_size(graph, owners, m, pool_factor)
    uniforms = np.random.default_rng(0).random(
        (np.count_nonzero(sizes > m), m))
    h_o[2, 0] += 1.0
    with pytest.raises(DataError, match="differ in h_o"):
        ct.hard_negatives(owners, h_d, h_o, uniforms, E, graph, m, sizes)
    h_o[2] = h_o[0]
    rows = ct.hard_negatives(owners, h_d, h_o, uniforms, E, graph, m, sizes)
    assert all(row is not None for row in rows)


def test_builders_skip_an_anchor_adjacent_to_every_node():
    graph, E, a = fixture(4)
    pairs = set(zip(graph.u.tolist(), graph.v.tolist()))
    graph = Graph.from_pairs(graph.n, sorted(
        pairs | {(0, u) for u in range(1, graph.n)}))
    # every node is an anchor, the hub 0 included
    cfg = ExperimentConfig(K=4, seed=4, per_class_anchors=graph.n)
    new_rng, ref_rng = pair_rngs(4)
    got = _build_batches(cfg, a, E, graph, 0.5, new_rng)
    got_aug = _build_augment_batches(cfg, a, graph, new_rng)
    want = ref_build_batches(cfg, a, E, graph, 0.5, ref_rng)
    want_aug = ref_build_augment_batches(cfg, a, graph, ref_rng)
    assert got and got_aug and 0 not in {b.anchor for b in got + got_aug}
    assert same_batches(got, want) and same_batches(got_aug, want_aug)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("case", [0, "ragged", "underflow", "cora"])
def test_hard_negatives_lie_outside_the_closed_neighborhood(case):
    graph, E, a, overrides = batch_case(case)
    cfg = ExperimentConfig(seed=0, **overrides)
    batches = _build_batches(cfg, a, E, graph, 0.5,
                             np.random.default_rng(3))
    assert batches
    for b in batches:
        closed = set(graph.neighbors(b.anchor).tolist()) | {b.anchor}
        assert not closed & set(b.negatives.tolist())


@pytest.mark.parametrize("seed", range(3))
def test_build_augment_batches_matches_reference(seed):
    graph, E, a = fixture(seed)
    cfg = ExperimentConfig(K=4, seed=seed, graph_augment=True)
    new_rng, ref_rng = pair_rngs(seed)
    got = _build_augment_batches(cfg, a, graph, new_rng)
    want = ref_build_augment_batches(cfg, a, graph, ref_rng)
    assert got and same_batches(got, want)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def test_non_neighbors_excludes_closed_neighborhood():
    graph = Graph.from_pairs(6, [(0, 1), (0, 4), (2, 3)])
    assert graph.non_neighbors(0).tolist() == [2, 3, 5]
    assert graph.non_neighbors(5).tolist() == [0, 1, 2, 3, 4]


def test_hard_labels_computed_once_and_read_only():
    _, _, a = fixture(0)
    assert a.hard is a.hard
    assert np.array_equal(a.hard, a.R.argmax(axis=1))
    with pytest.raises(ValueError):
        a.hard[0] = 1


def test_donor_pools_built_once_per_class_and_read_only():
    _, _, a = fixture(1)
    assert a.opposing is a.opposing and len(a.opposing) == a.K
    for k, pool in enumerate(a.opposing):
        assert same_array(pool, np.flatnonzero(a.hard != k))
        with pytest.raises(ValueError):
            pool[0] = 0


# degenerate pools ------------------------------------------------------------

def underflow_fixture():
    """Anchor 0 adjacent to 1; every candidate's Z underflows to 0: both
    factors clip to about exp(-500), and their product is below the
    smallest subnormal."""
    graph = Graph.from_pairs(6, [(0, 1)])
    E = DecoupledEmbeddings.from_arrays(np.full((6, 1), 20.0),
                                        np.full((6, 1), 20.0))
    virt = VirtualNode(h_d=np.array([-40.0]), h_o=np.array([-40.0]),
                       anchor=0, donor=2, mask=np.array([True]))
    return graph, E, virt


@pytest.mark.parametrize("m", [1, 2, 4, 5])
def test_all_zero_pool_raises_numeric_error(m):
    graph, E, virt = underflow_fixture()
    assert not predict_links_against(virt.h_d, virt.h_o, E).any()
    rng, ref_rng = pair_rngs(0)
    with pytest.raises(NumericError):
        sample_negatives(virt, E, graph, m, rng)
    if m < 4:  # the pool of 4 candidates is drawn from: m uniforms
        ref_rng.random(m)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pool_with_fewer_nonzero_scores_than_m_raises_numeric_error():
    graph, E, virt = underflow_fixture()
    hd = E.hd.copy()
    hd[3] = 0.0  # zd = 1/2, so Z of node 3 is tiny but above 0
    E = DecoupledEmbeddings.from_arrays(hd, E.ho)
    z = predict_links_against(virt.h_d, virt.h_o, E)
    assert np.count_nonzero(z) == 1
    rng, ref_rng = pair_rngs(0)
    with pytest.raises(NumericError):
        sample_negatives(virt, E, graph, 2, rng)
    ref_rng.random(2)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    chosen = sample_negatives(virt, E, graph, 1, rng)
    assert chosen.tolist() == [3]


def test_pool_factor_below_one_is_a_config_error():
    graph, E, virt = underflow_fixture()
    with pytest.raises(ConfigError):
        sample_negatives(virt, E, graph, 2, np.random.default_rng(0),
                         pool_factor=0)


# the standard InfoNCE form through a full run --------------------------------

def test_standard_infonce_run_losses_finite_and_nonnegative():
    cfg = ExperimentConfig(sbm_blocks=4, sbm_block_size=50, sbm_p_in=0.15,
                           sbm_p_out=0.01, K=4, epochs=12, init_epochs=50,
                           infonce_standard=True, seed=0)
    report = run_training(cfg)
    lce = np.array([row["LCE"] for row in report.epoch_losses])
    assert len(lce) == cfg.epochs
    assert np.all(np.isfinite(lce)) and np.all(lce >= 0)
    assert np.any(lce > 0)
