"""Measure the paper's two effects on a benchmark workload: hard negatives
against plain ones, and decoupling.

    python3 tools/effects.py --workload cora_shape --seeds 0-4
    python3 tools/effects.py --workload sbm1600 --seeds 0-4

Builds each seed's inputs through perfbench/workloads.py with one BLAS
thread, as tools/fingerprint.py does, and trains one modularity init per
seed. From that init it trains the baseline and the `neg_uniform`, `no_cl`
and `no_decouple` variants (`run_training(..., init=...)`, as the
ablation grid does). It prints each variant's mean accuracy, NMI and
modularity over the seeds, then the baseline's margin over each other
variant. A change that moves scores can run it at both commits.
"""

import argparse
import sys

VARIANTS = ("baseline", "neg_uniform", "no_cl", "no_decouple")
SCORES = ("accuracy", "nmi", "modularity")


def summarize(runs):
    """`(means, margins)` from `{variant: [{score: value}, ...]}`: each
    variant's mean of each score, and the baseline's mean minus each other
    variant's, both as `{variant: {score: value}}`."""
    means = {name: {k: sum(run[k] for run in per_seed) / len(per_seed)
                    for k in SCORES}
             for name, per_seed in runs.items()}
    base = means["baseline"]
    margins = {name: {k: base[k] - mean[k] for k in SCORES}
               for name, mean in means.items() if name != "baseline"}
    return means, margins


def seed_scores(name, seed):
    """`{variant: {score: value}}` of one seed's four trainings."""
    from dataclasses import replace

    from mecole.clustering import init_assignments
    from mecole.config import ExperimentConfig
    from mecole.training import run_training
    from workloads import WORKLOADS

    workload = WORKLOADS[name](name, seed, None)
    dataset = workload.setup()
    cfg = ExperimentConfig(K=workload.spec.K, seed=seed)
    init = init_assignments(dataset.bundle.primary, dataset.X, cfg)
    scores = {}
    for variant in VARIANTS:
        cell = replace(cfg, **{variant: True}) if variant != "baseline" \
            else cfg
        report = run_training(cell, dataset, variant=variant, init=init)
        scores[variant] = {k: getattr(report, k) for k in SCORES}
    return scores


def main(argv=None):
    # pins one BLAS thread before numpy is first imported, and puts src/
    # and perfbench/ on the import path
    from fingerprint import parse_seeds

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cora_shape", "sbm1600"])
    p.add_argument("--seeds", required=True, type=parse_seeds,
                   help="one seed N or an inclusive range A-B")
    args = p.parse_args(argv)
    runs = {variant: [] for variant in VARIANTS}
    for seed in args.seeds:
        for variant, scores in seed_scores(args.workload, seed).items():
            runs[variant].append(scores)
    means, margins = summarize(runs)
    print(f"{args.workload}, means over seeds {args.seeds.start}-"
          f"{args.seeds.stop - 1}")
    print(f"{'variant':<13}" + "".join(f"{k:>12}" for k in SCORES))
    for variant, mean in means.items():
        print(f"{variant:<13}" + "".join(f"{mean[k]:>12.4f}" for k in SCORES))
    print("baseline minus")
    for variant, margin in margins.items():
        print(f"{variant:<13}" + "".join(f"{margin[k]:>+12.4f}"
                                         for k in SCORES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
