"""Each typed error a mecole function raises on bad input, and the early
exits that share those functions' guards."""

from unittest import mock

import numpy as np
import pytest

from mecole import autodiff as ad
from mecole import clustering
from mecole import contrastive as ct
from mecole.clustering import Assignment, init_assignments, modularity
from mecole.config import ExperimentConfig, apply_overrides
from mecole.contrastive import _drop_edges, contrastive_loss, \
    draw_virtual_node, epoch_batches as _build_batches, pool_size, \
    sample_anchors, uniform_negatives
from mecole.decoupling import DecoupledEmbeddings, DecoupledEncoder, \
    discrepancy_loss, predict_link, reconstruction_loss, rewire
from mecole.errors import ConfigError, DataError, NumericError
from mecole.graphs import Graph, SBMConfig, build_knn_similarity_graph, \
    load_edge_list
from mecole.training import load_dataset

PATH = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
PAIR = Graph.from_pairs(2, [(0, 1)])  # each node's neighbourhood is full
E = DecoupledEmbeddings.from_arrays(np.ones((4, 2)), np.ones((4, 2)))
TWO_CLASSES = Assignment(R=np.array([[0.9, 0.1]] * 2 + [[0.1, 0.9]] * 2))


def rng():
    return np.random.default_rng(0)


def written(name, text):
    """`name` in the working directory, which the test makes a fresh
    temporary one, holding `text`."""
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def encode_with_two_channels():
    a_hat = ad.normalize_adjacency(PATH)
    DecoupledEncoder(2, 3, 2, 2, n_channels=1, seed=0).encode(
        [a_hat, a_hat], [a_hat], np.ones((4, 2)))


def encode_with_overflowing_first_layer():
    # (Â X) W1 overflows to ±inf, which tanh would turn into a finite ±1
    enc = DecoupledEncoder(2, 3, 2, 2, n_channels=1, seed=0)
    enc.w1_d.values *= 1e300
    a_hat = ad.normalize_adjacency(PATH)
    enc.encode([a_hat], [a_hat], np.full((4, 2), 1e9))


def init_one_epoch(dtype, init_lr):
    # the one Adam step overflows the weights, and the final forward pass
    # turns them into a non-finite assignment
    with mock.patch.object(clustering, "INIT_DTYPE", dtype):
        init_assignments(PATH, None, ExperimentConfig(
            init_lr=init_lr, init_epochs=1, hidden=4))


CASES = {
    "backward_non_scalar": (
        lambda: ad.parameter(np.ones((2, 2))).backward(),
        ValueError, "requires a scalar"),
    "init_non_finite_layer": (
        lambda: init_assignments(PATH, np.ones((4, 2)), ExperimentConfig(
            init_lr=1e308, init_epochs=3, hidden=4)),
        NumericError, "non-finite layer"),
    # one Adam step takes the weights to about 3e38, finite in the init's
    # float32; Â W1 stays finite, and the output layer's sum overflows
    "init_non_finite_loss": (
        lambda: init_assignments(PATH, None, ExperimentConfig(
            init_lr=3e38, init_epochs=3, hidden=4)),
        NumericError, "non-finite loss"),
    "init_non_finite_assignment_float64": (
        lambda: init_one_epoch(np.float64, 1e308),
        NumericError, "non-finite assignment"),
    "init_non_finite_assignment_float32_2e38": (
        lambda: init_one_epoch(np.float32, 2e38),
        NumericError, "non-finite assignment"),
    "init_non_finite_assignment_float32_3e38": (
        lambda: init_one_epoch(np.float32, 3e38),
        NumericError, "non-finite assignment"),
    "init_empty_graph": (
        lambda: init_assignments(Graph.from_pairs(3, []), None,
                                 ExperimentConfig()),
        DataError, "empty graph"),
    "rewire_eta_zero": (lambda: rewire(PATH, E, 0.0), ConfigError,
                        "eta must be > 0"),
    "contrastive_tau_zero": (lambda: contrastive_loss([], E, 0.0),
                             ConfigError, "tau must be > 0"),
    "contrastive_no_batch": (lambda: contrastive_loss([], E, 0.5),
                             DataError, "at least one batch"),
    "discrepancy_no_pairs": (
        lambda: discrepancy_loss(E, TWO_CLASSES, "l1", 0, rng()),
        ConfigError, "pairs must be >= 1"),
    "discrepancy_unknown_metric": (
        lambda: discrepancy_loss(E, TWO_CLASSES, "l3", 4, rng()),
        ConfigError, "unknown discrepancy metric 'l3'"),
    "reconstruction_neg_ratio_zero": (
        lambda: reconstruction_loss(PATH, E, 0, rng()),
        ConfigError, "neg_ratio must be >= 1"),
    "encoder_dim_d_zero": (
        lambda: DecoupledEncoder(2, 3, 0, 2, n_channels=1, seed=0),
        ConfigError, "dim_d must be >= 1"),
    "encoder_channel_mismatch": (encode_with_two_channels, ConfigError,
                                 "channel count mismatch"),
    "encoder_first_layer_overflow": (encode_with_overflowing_first_layer,
                                     NumericError,
                                     "non-finite values produced by 'gcn'"),
    "anchors_per_class_zero": (
        lambda: sample_anchors(TWO_CLASSES, 0, rng()),
        ConfigError, "per_class must be >= 1"),
    "virtual_p_ce_zero": (
        lambda: draw_virtual_node(0, TWO_CLASSES, 2, 0.0, rng()),
        ConfigError, r"p_ce must lie in \(0, 1\]"),
    "virtual_p_ce_above_one": (
        lambda: draw_virtual_node(0, TWO_CLASSES, 2, 1.5, rng()),
        ConfigError, r"p_ce must lie in \(0, 1\]"),
    "virtual_p_ce_too_small": (
        lambda: draw_virtual_node(0, TWO_CLASSES, 2, 1e-9, rng()),
        ConfigError, "p_ce=1e-09 is too small for dim_d=2"),
    "assignment_one_class": (
        lambda: Assignment(R=np.ones((4, 1))),
        DataError, "K >= 2"),
    "assignment_entry_outside_unit": (
        lambda: Assignment(R=[[1.5, -0.5]]),
        DataError, r"entries must lie in \[0, 1\]"),
    "modularity_short_labels": (lambda: modularity(PATH, [0, 1]),
                                DataError, "labels must cover all nodes"),
    "config_eta_sim_above_one": (
        lambda: ExperimentConfig(eta_sim=2),
        ConfigError, r"eta_sim must lie in \[-1, 1\]"),
    "override_bad_boolean": (lambda: apply_overrides({}, ["no_cl=maybe"]),
                             ConfigError, "no_cl: expected boolean"),
    "override_bad_integer": (lambda: apply_overrides({}, ["hidden=1.5"]),
                             ConfigError, "hidden: expected integer"),
    "override_bad_float": (lambda: apply_overrides({}, ["tau=warm"]),
                           ConfigError, "tau: expected number"),
    "pool_size_m_zero": (lambda: pool_size(PATH, 0, 0, 10), ConfigError,
                         "m must be >= 1"),
    "pool_size_full_neighbourhood": (
        lambda: pool_size(PAIR, 0, 1, 10),
        DataError, "anchor neighborhood is full"),
    "uniform_negatives_full_neighbourhood": (
        lambda: uniform_negatives(PAIR, 0, 1, rng()),
        DataError, "anchor neighborhood is full"),
    "predict_link_same_node": (lambda: predict_link(1, 1, E), DataError,
                               "requires u != v"),
    "graph_arrays_differ_in_length": (
        lambda: Graph.from_arrays(3, [0, 1], [1]),
        DataError, "edge arrays differ in length"),
    "sbm_block_sizes_length": (
        lambda: SBMConfig(blocks=3, block_sizes=(5, 5), p_in=0.5, p_out=0.1),
        ConfigError, "block_sizes length must equal blocks"),
    "edge_list_negative_id": (
        lambda: load_edge_list(written("edges.txt", "0 1\n-2 1\n")),
        DataError, "edges.txt:2: negative node id"),
    "knn_k_negative": (
        lambda: build_knn_similarity_graph(np.ones((3, 2)), -1, 0.0),
        ConfigError, "k must be >= 0"),
    "knn_eta_sim_out_of_range": (
        lambda: build_knn_similarity_graph(np.ones((3, 2)), 1, -1.5),
        ConfigError, r"eta_sim must lie in \[-1, 1\]"),
    "dataset_bag_count": (
        lambda: load_dataset(ExperimentConfig(
            sbm_blocks=2, sbm_block_size=3,
            bags_path=written("bags.txt", "1 2\n3\n"),
            vocab_path="vocab.txt")),
        DataError, "attribute bag count does not match node count"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(),
                         ids=list(CASES))
def test_bad_input_raises_typed_error(call, error, message, tmp_path,
                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    # an overflow on the way to a numeric failure is no warning of its own
    with np.errstate(all="ignore"), pytest.raises(error, match=message):
        call()



def test_rewire_returns_the_graph_for_zero_width_ho():
    flat = DecoupledEmbeddings.from_arrays(np.ones((4, 2)), np.ones((4, 0)))
    assert rewire(PATH, flat, 4.0) is PATH


def test_build_batches_is_empty_with_one_class():
    one_class = Assignment(R=np.tile([0.9, 0.1], (4, 1)))
    cfg = ExperimentConfig(per_class_anchors=4)
    assert _build_batches(cfg, one_class, E, PATH, 0.5, rng()) == []


def test_drop_edges_keeps_the_first_edge_when_all_are_dropped():
    kept = _drop_edges(PATH, 1.0, rng())
    assert list(kept.edges) == [(0, 1, 1.0)]


def test_build_batches_gives_no_batch_to_an_anchor_whose_rows_underflow(
        monkeypatch):
    # anchor 0 is adjacent to all of class 1, so each of its donors gives
    # h_d = -40 and its candidates 1 and 2 score sigmoid(-500)^2 == 0;
    # anchor 1's candidates 3, 4 and 5 score about 1
    graph = Graph.from_pairs(6, [(0, 3), (0, 4), (0, 5), (1, 2)])
    flat = DecoupledEmbeddings.from_arrays(
        np.repeat([[20.0], [-40.0]], 3, axis=0),
        np.array([[-40.0]] + [[20.0]] * 5))
    labels = np.repeat([0, 1], 3)
    a = Assignment(R=np.eye(2)[labels] * 0.8 + 0.1)
    monkeypatch.setattr(ct, "sample_anchors", lambda *args: [0, 1])
    cfg = ExperimentConfig(dim_d=1, virtual_per_anchor=2)
    batches = _build_batches(cfg, a, flat, graph, 0.5, rng())
    assert [b.anchor for b in batches] == [1]
