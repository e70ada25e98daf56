"""Each typed error a mecole function raises on bad input, and the early
exits that share those functions' guards."""

import numpy as np
import pytest

from mecole import autodiff as ad
from mecole.clustering import Assignment, init_assignments
from mecole.config import ExperimentConfig
from mecole.contrastive import contrastive_loss, draw_virtual_node, \
    sample_anchors
from mecole.decoupling import DecoupledEmbeddings, DecoupledEncoder, \
    discrepancy_loss, reconstruction_loss, rewire
from mecole.errors import ConfigError, DataError, NumericError
from mecole.graphs import Graph
from mecole.training import _build_batches

PATH = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
E = DecoupledEmbeddings.from_arrays(np.ones((4, 2)), np.ones((4, 2)))
TWO_CLASSES = Assignment(R=np.array([[0.9, 0.1]] * 2 + [[0.1, 0.9]] * 2),
                         relevant=np.ones(4, dtype=bool))


def rng():
    return np.random.default_rng(0)


def encode_with_two_channels():
    a_hat = ad.normalize_adjacency(PATH)
    DecoupledEncoder(2, 3, 2, 2, n_channels=1, seed=0).encode(
        [a_hat, a_hat], [a_hat], np.ones((4, 2)))


CASES = {
    "backward_non_scalar": (
        lambda: ad.parameter(np.ones((2, 2))).backward(),
        ValueError, "requires a scalar"),
    "init_non_finite_layer": (
        lambda: init_assignments(PATH, np.ones((4, 2)), ExperimentConfig(
            init_lr=1e308, init_epochs=3, hidden=4)),
        NumericError, "non-finite layer"),
    "init_non_finite_loss": (
        lambda: init_assignments(PATH, None, ExperimentConfig(
            init_lr=1e308, init_epochs=3, hidden=4)),
        NumericError, "non-finite loss"),
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
}


@pytest.mark.parametrize("call, error, message", CASES.values(),
                         ids=list(CASES))
def test_bad_input_raises_typed_error(call, error, message):
    # an overflow on the way to a numeric failure is no warning of its own
    with np.errstate(all="ignore"), pytest.raises(error, match=message):
        call()


def test_rewire_returns_the_graph_for_zero_width_ho():
    flat = DecoupledEmbeddings.from_arrays(np.ones((4, 2)), np.ones((4, 0)))
    assert rewire(PATH, flat, 4.0) is PATH


def test_build_batches_is_empty_with_one_class():
    one_class = Assignment(R=np.tile([0.9, 0.1], (4, 1)),
                           relevant=np.ones(4, dtype=bool))
    cfg = ExperimentConfig(per_class_anchors=4)
    assert _build_batches(cfg, one_class, E, PATH, 0.5, rng()) == []
