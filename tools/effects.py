"""Measure the paper's two effects on a benchmark workload or a test
fixture: hard negatives against plain ones, and decoupling.

    python3 tools/effects.py --workload cora_shape --seeds 0-9 --json new.json
    python3 tools/effects.py --compare old.json new.json

Builds each seed's inputs with one BLAS thread, as tools/fingerprint.py
does: `cora_shape` and `sbm1600` through perfbench/workloads.py,
`ablate_files` by its workload's `prepare` and `setup` in a temporary
directory, with the config of its settings, `criterion5` and `criterion6`
from the acceptance gate's fixtures, and `cora_third`, Cora's seven class
sizes divided by 3 (901 nodes). It trains one modularity init per seed.
From that init it trains the baseline and the `neg_uniform`, `no_cl` and
`no_decouple` variants (`run_training(..., init=...)`, as the ablation
grid does). It prints each variant's mean accuracy, NMI and modularity
over the seeds, then the baseline's margin over each other variant.
`--json PATH` also writes each seed's scores.

`--compare A.json B.json` reads two such files over the same workload and
seeds, say from two commits, and prints per variant and score the mean of
B minus A, the seeds on which B is higher, lower and equal, and the
smallest and largest difference, then each seed's accuracy difference.
"""

import argparse
import json
import sys
import tempfile

VARIANTS = ("baseline", "neg_uniform", "no_cl", "no_decouple")
SCORES = ("accuracy", "nmi", "modularity")
# the acceptance gate's criterion-5 and criterion-6 fixtures, as config keys
FIXTURES = {
    "criterion5": dict(sbm_blocks=4, sbm_block_size=100, sbm_p_in=0.10,
                       sbm_p_out=0.01, sbm_noise_sigma=0.5, K=4),
    "criterion6": dict(sbm_blocks=4, sbm_block_size=100, sbm_p_in=0.08,
                       sbm_p_out=0.02, sbm_noise_sigma=0.8, sbm_confound=0.5,
                       K=4, assign_warmup=10, assign_every=5),
}
CORA_THIRD = dict(p_in=0.0192, p_out=0.001)
WORKLOAD_CHOICES = ("cora_shape", "sbm1600", "ablate_files", *FIXTURES,
                    "cora_third")


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


def compare(old, new):
    """Paired differences `new - old` of two `{variant: [{score: value},
    ...]}` over the same seeds, as `{variant: {score: {"mean", "wins",
    "losses", "ties", "lo", "hi", "diffs"}}}`: a win is a seed on which
    `new` is higher."""
    table = {}
    for name, per_seed in new.items():
        table[name] = {}
        for k in SCORES:
            diffs = [b[k] - a[k] for a, b in zip(old[name], per_seed,
                                                 strict=True)]
            table[name][k] = dict(
                mean=sum(diffs) / len(diffs), diffs=diffs,
                wins=sum(d > 0 for d in diffs),
                losses=sum(d < 0 for d in diffs),
                ties=sum(d == 0 for d in diffs), lo=min(diffs), hi=max(diffs))
    return table


def dataset_and_config(name, seed, out_dir=None):
    """The inputs and the config of one seed of `name`: the default one,
    but for a fixture's keys or `ablate_files`' settings. `ablate_files`
    writes its input files under `out_dir`."""
    from mecole.config import ExperimentConfig, apply_overrides
    from mecole.graphs import GraphBundle, SBMConfig, generate_sbm
    from mecole.training import Dataset, load_dataset
    from workloads import CORA_SIZES, WORKLOADS

    if name in FIXTURES:
        cfg = ExperimentConfig(seed=seed, **FIXTURES[name])
        return load_dataset(cfg), cfg
    if name == "cora_third":
        sizes = tuple(size // 3 for size in CORA_SIZES)
        graph, X, labels = generate_sbm(SBMConfig(
            blocks=len(sizes), block_sizes=sizes, seed=seed, **CORA_THIRD))
        return (Dataset(bundle=GraphBundle(primary=graph), X=X,
                        labels=labels),
                ExperimentConfig(K=len(sizes), seed=seed))
    workload = WORKLOADS[name](name, seed, out_dir)
    if name == "ablate_files":
        workload.prepare()
        values = apply_overrides({}, [f"{k}={v}" for k, v in
                                      workload._settings().items()])
        return workload.setup(), ExperimentConfig(seed=seed, **values)
    return workload.setup(), ExperimentConfig(K=workload.spec.K, seed=seed)


def seed_scores(name, seed):
    """`{variant: {score: value}}` of one seed's four trainings."""
    from dataclasses import replace

    from mecole.clustering import init_assignments
    from mecole.training import run_training

    with tempfile.TemporaryDirectory() as out_dir:
        dataset, cfg = dataset_and_config(name, seed, out_dir)
    init = init_assignments(dataset.bundle.primary, dataset.X, cfg)
    scores = {}
    for variant in VARIANTS:
        cell = replace(cfg, **{variant: True}) if variant != "baseline" \
            else cfg
        report = run_training(cell, dataset, variant=variant, init=init)
        scores[variant] = {k: getattr(report, k) for k in SCORES}
    return scores


def print_effects(workload, seeds, runs):
    means, margins = summarize(runs)
    print(f"{workload}, means over seeds {seeds[0]}-{seeds[-1]}")
    print(f"{'variant':<13}" + "".join(f"{k:>12}" for k in SCORES))
    for variant, mean in means.items():
        print(f"{variant:<13}" + "".join(f"{mean[k]:>12.4f}" for k in SCORES))
    print("baseline minus")
    for variant, margin in margins.items():
        print(f"{variant:<13}" + "".join(f"{margin[k]:>+12.4f}"
                                         for k in SCORES))


def print_comparison(old, new):
    for key in ("workload", "seeds"):
        if old[key] != new[key]:
            raise SystemExit(f"the files differ in {key}: {old[key]} and "
                             f"{new[key]}")
    table = compare(old["runs"], new["runs"])
    seeds = new["seeds"]
    print(f"{new['workload']}, second file minus first over seeds "
          f"{seeds[0]}-{seeds[-1]}")
    print(f"{'variant':<13}{'score':<12}{'mean':>9}{'W/L/T':>10}"
          f"{'min':>9}{'max':>9}")
    for variant, per_score in table.items():
        for k, row in per_score.items():
            wlt = f"{row['wins']}/{row['losses']}/{row['ties']}"
            print(f"{variant:<13}{k:<12}{row['mean']:>+9.4f}{wlt:>10}"
                  f"{row['lo']:>+9.4f}{row['hi']:>+9.4f}")
    print("accuracy per seed")
    print(f"{'variant':<13}" + "".join(f"{s:>9}" for s in seeds))
    for variant, per_score in table.items():
        print(f"{variant:<13}" + "".join(
            f"{d:>+9.4f}" for d in per_score["accuracy"]["diffs"]))


def main(argv=None):
    # pins one BLAS thread before numpy is first imported, and puts src/
    # and perfbench/ on the import path
    from fingerprint import parse_seeds

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_CHOICES)
    p.add_argument("--seeds", type=parse_seeds,
                   help="one seed N or an inclusive range A-B")
    p.add_argument("--json", metavar="PATH",
                   help="also write each seed's scores per variant here")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   help="print B's paired differences from A, and train "
                        "nothing")
    args = p.parse_args(argv)
    if args.compare:
        files = []
        for path in args.compare:
            with open(path) as fh:
                files.append(json.load(fh))
        print_comparison(*files)
        return 0
    if args.workload is None or args.seeds is None:
        p.error("--workload and --seeds are required without --compare")
    runs = {variant: [] for variant in VARIANTS}
    for seed in args.seeds:
        for variant, scores in seed_scores(args.workload, seed).items():
            runs[variant].append(scores)
    seeds = list(args.seeds)
    print_effects(args.workload, seeds, runs)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(dict(workload=args.workload, seeds=seeds, runs=runs),
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
