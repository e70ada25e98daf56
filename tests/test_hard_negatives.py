"""The paper's headline effect: counterfactual hard negatives beat
negatives drawn uniformly beyond the neighbourhood.

Criterion 6 checks decoupling only, and on its fixture uniform negatives
do slightly better. `cora_third` shows the effect: Cora's seven class
sizes divided by 3 (901 nodes), with the default config.
"""

from dataclasses import replace

import numpy as np
import pytest

from mecole.clustering import init_assignments
from mecole.config import ExperimentConfig
from mecole.graphs import GraphBundle, SBMConfig, generate_sbm
from mecole.training import Dataset, run_training

CORA_SIZES = (351, 217, 418, 818, 426, 298, 180)
CORA_THIRD = SBMConfig(blocks=7, block_sizes=tuple(s // 3 for s in CORA_SIZES),
                       p_in=0.0192, p_out=0.001)


@pytest.mark.slow
def test_hard_negatives_beat_uniform_negatives_on_cora_third():
    # one init per seed, shared by both trainings, as the ablation grid does
    base, uniform = [], []
    for seed in range(5):
        graph, X, labels = generate_sbm(replace(CORA_THIRD, seed=seed))
        dataset = Dataset(bundle=GraphBundle(primary=graph), X=X,
                          labels=labels)
        cfg = ExperimentConfig(K=7, seed=seed)
        init = init_assignments(graph, X, cfg)
        base.append(run_training(cfg, dataset, init=init).accuracy)
        uniform.append(run_training(replace(cfg, neg_uniform=True), dataset,
                                    variant="neg_uniform",
                                    init=init).accuracy)
    assert np.mean(base) > np.mean(uniform), \
        f"baseline {np.mean(base):.4f} <= neg_uniform {np.mean(uniform):.4f}"
