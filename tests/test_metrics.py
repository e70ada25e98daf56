import itertools

import numpy as np
import pytest

from mecole import metrics
from mecole.errors import DataError
from mecole.metrics import MetricsReport, clustering_accuracy, nmi


def brute_force_accuracy(pred, truth, K):
    best = 0.0
    for perm in itertools.permutations(range(K)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, float((mapped == truth).mean()))
    return best


def test_accuracy_perfect_after_relabeling():
    pred = np.array([1, 1, 0, 0])
    truth = np.array([0, 0, 1, 1])
    assert clustering_accuracy(pred, truth) == 1.0


def test_accuracy_matches_brute_force_permutations(rng):
    for K in (2, 3, 4):
        for _ in range(25):
            pred = rng.integers(0, K, size=30)
            truth = rng.integers(0, K, size=30)
            assert clustering_accuracy(pred, truth) == pytest.approx(
                brute_force_accuracy(pred, truth, K), abs=1e-12)


def test_accuracy_excludes_unlabeled():
    pred = np.array([0, 1, 0])
    truth = np.array([0, 1, -1])
    assert clustering_accuracy(pred, truth) == 1.0


def test_accuracy_shape_mismatch():
    with pytest.raises(DataError):
        clustering_accuracy(np.array([0, 1]), np.array([0]))


def test_nmi_identical_partitions_is_one():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(labels, labels) == pytest.approx(1.0)
    assert nmi(1 - np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1])) == \
        pytest.approx(1.0)


def test_nmi_hand_computed_four_nodes():
    # pred = (0,0,1,1), truth = (0,1,0,1): joint is uniform over 4 cells,
    # MI = 0, so NMI = 0
    assert nmi(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) == \
        pytest.approx(0.0, abs=1e-12)


def test_nmi_hand_computed_partial_overlap():
    # pred = (0,0,0,1), truth = (0,0,1,1): compute by hand
    pred = np.array([0, 0, 0, 1])
    truth = np.array([0, 0, 1, 1])
    # joint: p(0,0)=1/2, p(0,1)=1/4, p(1,1)=1/4
    mi = (0.5 * np.log(0.5 / (0.75 * 0.5))
          + 0.25 * np.log(0.25 / (0.75 * 0.5))
          + 0.25 * np.log(0.25 / (0.25 * 0.5)))
    h_pred = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    h_truth = np.log(2)
    expected = mi / ((h_pred + h_truth) / 2)
    assert nmi(pred, truth) == pytest.approx(expected, abs=1e-12)


def test_nmi_degenerate_single_cluster_zero():
    assert nmi(np.zeros(5, dtype=int), np.array([0, 0, 1, 1, 1])) == 0.0


def ref_nmi(pred, truth):
    """The per-pair loop `nmi` computed before it read the contingency
    table."""
    keep = truth >= 0
    pred, truth = pred[keep], truth[keep]
    n = pred.size

    def entropy(labels):
        _, counts = np.unique(labels, return_counts=True)
        p = counts / n
        return float(-(p * np.log(p)).sum())

    h_p, h_t = entropy(pred), entropy(truth)
    if h_p == 0.0 or h_t == 0.0:
        return 0.0
    mi = 0.0
    for a in np.unique(pred):
        for b in np.unique(truth):
            joint = np.sum((pred == a) & (truth == b)) / n
            if joint > 0:
                pa = np.sum(pred == a) / n
                pb = np.sum(truth == b) / n
                mi += joint * np.log(joint / (pa * pb))
    return float(mi / ((h_p + h_t) / 2.0))


@pytest.mark.parametrize("seed", range(4))
def test_nmi_bit_equal_to_pair_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 400))
        pred = rng.integers(0, rng.integers(1, 9), size=n)
        truth = rng.integers(-1, rng.integers(1, 9), size=n)
        truth[0] = max(truth[0], 0)  # at least one labeled node
        assert nmi(pred, truth) == ref_nmi(pred, truth)


def square_contingency(pred, truth):
    """The table before labels were remapped: (largest label + 1)^2."""
    keep = truth >= 0
    pred, truth = pred[keep], truth[keep]
    k = int(max(pred.max(), truth.max())) + 1
    return np.bincount(pred * k + truth, minlength=k * k).reshape(k, k)


@pytest.mark.parametrize("seed", range(4))
def test_scores_bit_equal_to_square_table(monkeypatch, seed):
    # sparse label sets with gaps, some unlabeled nodes
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(50):
        n = int(rng.integers(1, 300))
        pred = rng.choice(rng.choice(40, size=rng.integers(1, 9),
                                     replace=False), size=n)
        truth = rng.choice(np.append(rng.choice(40, size=rng.integers(1, 9),
                                                replace=False), -1), size=n)
        truth[0] = max(truth[0], 0)  # at least one labeled node
        cases.append((pred, truth))
    remapped = [(clustering_accuracy(p, t), nmi(p, t)) for p, t in cases]
    monkeypatch.setattr(metrics, "_contingency", square_contingency)
    assert remapped == [(clustering_accuracy(p, t), nmi(p, t))
                        for p, t in cases]


def test_scores_of_a_huge_label_need_no_huge_table():
    pred, truth = np.array([0, 1, 1]), np.array([0, 10**9, 10**9])
    assert clustering_accuracy(pred, truth) == 1.0
    assert nmi(pred, truth) == 1.0
    assert metrics._contingency(pred, truth).shape == (2, 2)


def test_nmi_rejects_what_accuracy_rejects():
    for pred, truth in (([0, 1], [0]), ([0, 1], [-1, -1]), ([-1, 0], [0, 1])):
        with pytest.raises(DataError):
            nmi(np.array(pred), np.array(truth))


def test_metrics_report_json_bytes_match_hand_listed_dict():
    import json
    r = MetricsReport(seed=3, config={"K": 2, "tau": 0.5}, variant="x",
                      accuracy=0.25, nmi=0.5, modularity=0.125,
                      init_accuracy=0.75, wall_clock_s=1.5, error="e")
    r.epoch_losses.append({"epoch": 0, "L1": 1.0, "L2": 0.1, "LCE": 0.2,
                           "L": 1.3})
    old = {"variant": r.variant, "seed": r.seed, "accuracy": r.accuracy,
           "nmi": r.nmi, "modularity": r.modularity,
           "init_accuracy": r.init_accuracy,
           "wall_clock_s": r.wall_clock_s, "epoch_losses": r.epoch_losses,
           "config": r.config, "error": r.error}
    assert r.to_json() == json.dumps(old, indent=2, sort_keys=True)


def test_metrics_report_json_roundtrip():
    import json
    r = MetricsReport(seed=3, config={"K": 2}, variant="baseline")
    r.accuracy = 0.5
    r.epoch_losses.append({"epoch": 0, "L1": 1.0, "L2": 0.1, "LCE": 0.2,
                           "L": 1.3})
    d = json.loads(r.to_json())
    assert d["seed"] == 3
    assert d["accuracy"] == 0.5
    assert d["epoch_losses"][0]["L"] == 1.3
