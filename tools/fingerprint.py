"""Fingerprint seeded runs of a benchmark workload, to check that a
change leaves every output byte as it was.

    python3 tools/fingerprint.py --workload sbm1600 --seeds 0-9
    python3 tools/fingerprint.py --workload all --seeds 0-9
    python3 tools/fingerprint.py --workload criterion5 --seeds 0-4
    python3 tools/fingerprint.py --workload bags --seeds 0-4
    python3 tools/fingerprint.py --workload featureless --seeds 0-2

Builds each seed's inputs through perfbench/workloads.py, runs the
workload's operation once with one BLAS thread on this checkout's src/,
and prints one line per seed: the seed and a SHA-256. `--workload all`
checks every byte pin in one command: it prints `workload seed sha256`
lines for sbm1600 and cora_shape over the given seeds, then for
ablate_files, featureless, criterion5, criterion6, cora_third and bags
over the first three of them. `featureless` trains on one seed's sbm1600
graph with X=None and the default config, so both GCNs take their
identity-feature branch. The acceptance fixtures `criterion5`,
`criterion6` and `cora_third` are built as tools/effects.py builds them
and trained once with their default config. `bags` writes a seeded 3 x 40 planted partition to edge, feature
and label files, with a bag file and a 30 x 8 vocabulary, then trains on
them with `knn_k=3` and runs `sparse_eval` with fraction 0.3. For these
and for sbm1600, cora_shape and featureless it digests the final soft
assignment `R`'s bytes followed by the repr of the report's
`epoch_losses`, for `bags` of both reports; for ablate_files, the name
and bytes of every file the grid writes except the metrics JSONs, which
hold wall-clock times. Run it at two commits and compare the output.
"""

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import effects  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIXTURES = [name for name in effects.WORKLOAD_CHOICES
            if name not in WORKLOADS]

# the `bags` workload: planted blocks, and a vocabulary of ten tokens per
# block, whose embeddings are (tokens, dim) normal draws
BAG_SBM = dict(blocks=3, block_sizes=(40,) * 3, p_in=0.2, p_out=0.02)
BAG_VOCAB = (30, 8)
BAG_MAX_TOKENS = 6
BAG_OWN_SHARE = 0.7  # chance that a token is one of its node's block's ten


def parse_seeds(text):
    """`N` or `A-B` (inclusive)."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def write_bag_inputs(seed, out_dir):
    """Write one seed's edge, feature, label, bag and vocabulary files to
    `out_dir`, and return the config that trains on them. The bag file
    opens with a comment line, and a node without tokens is a blank line."""
    import numpy as np
    from mecole.config import ExperimentConfig
    from mecole.graphs import SBMConfig, generate_sbm

    graph, X, labels = generate_sbm(SBMConfig(seed=seed, **BAG_SBM))
    paths = {key: os.path.join(out_dir, name) for key, name in [
        ("edge_path", "edges.txt"), ("feature_path", "features.csv"),
        ("label_path", "labels.txt"), ("bags_path", "bags.txt"),
        ("vocab_path", "vocab.txt")]}
    np.savetxt(paths["edge_path"], np.column_stack([graph.u, graph.v]),
               fmt="%d")
    np.savetxt(paths["feature_path"], X, delimiter=",")
    np.savetxt(paths["label_path"], labels, fmt="%d")
    rng = np.random.default_rng(seed)
    tokens, dim = BAG_VOCAB
    per_block = tokens // BAG_SBM["blocks"]
    sizes = rng.integers(0, BAG_MAX_TOKENS + 1, size=graph.n)
    total = int(sizes.sum())
    owner = np.repeat(np.arange(graph.n), sizes)
    ids = np.where(rng.random(total) < BAG_OWN_SHARE,
                   labels[owner] * per_block +
                   rng.integers(0, per_block, total),
                   rng.integers(0, tokens, total))
    with open(paths["bags_path"], "w", encoding="utf-8") as fh:
        fh.write("# token ids per node\n")
        for bag in np.split(ids, np.cumsum(sizes)[:-1]):
            fh.write(" ".join(map(str, bag)) + "\n")
    np.savetxt(paths["vocab_path"], rng.normal(size=(tokens, dim)))
    return ExperimentConfig(seed=seed, K=BAG_SBM["blocks"], knn_k=3,
                            out_dir=out_dir, **paths)


def fingerprint(name, seed, out_dir):
    if name == "bags":
        from mecole.training import run_training, sparse_eval

        cfg = write_bag_inputs(seed, out_dir)
        return digest_report(run_training(cfg), sparse_eval(cfg, 0.3))
    if name in FIXTURES:
        from mecole.training import run_training

        dataset, cfg = effects.dataset_and_config(name, seed)
        return digest_report(run_training(cfg, dataset))
    if name == "featureless":
        workload = WORKLOADS["sbm1600"]("sbm1600", seed, out_dir)
        result = workload.run(dataclasses.replace(workload.setup(), X=None))
    else:
        workload = WORKLOADS[name](name, seed, out_dir)
        workload.prepare()
        result = workload.run(workload.setup())
    digest = hashlib.sha256()
    if name == "ablate_files":
        if result != 0:
            return f"mecole ablate exited {result}"
        for fname in sorted(os.listdir(workload.cells_dir)):
            if fname.startswith("metrics_") and fname.endswith(".json"):
                continue
            with open(os.path.join(workload.cells_dir, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    else:
        _, report = result
        if isinstance(report, Exception):
            return f"error {report!r}"
        return digest_report(report)
    return digest.hexdigest()


def digest_report(*reports):
    """SHA-256 of each report's final `R`'s bytes, then the repr of its
    losses."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(report.final_assignment.R.tobytes())
        digest.update(repr(report.epoch_losses).encode())
    return digest.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + FIXTURES
                   + ["bags", "featureless", "all"])
    p.add_argument("--seeds", required=True, type=parse_seeds,
                   help="one seed N or an inclusive range A-B")
    args = p.parse_args(argv)
    if args.workload == "all":
        runs = [(name, seed) for name in ("sbm1600", "cora_shape")
                for seed in args.seeds]
        runs += [(name, seed) for name in ("ablate_files", "featureless",
                                           *FIXTURES, "bags")
                 for seed in args.seeds[:3]]
    else:
        runs = [(args.workload, seed) for seed in args.seeds]
    for name, seed in runs:
        label = f"{name} {seed}" if args.workload == "all" else seed
        with tempfile.TemporaryDirectory() as out_dir:
            print(label, fingerprint(name, seed, out_dir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
