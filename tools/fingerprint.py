"""Fingerprint seeded runs of a benchmark workload, to check that a
change leaves every output byte as it was.

    python3 tools/fingerprint.py --workload sbm1600 --seeds 0-9
    python3 tools/fingerprint.py --workload all --seeds 0-9
    python3 tools/fingerprint.py --workload criterion5 --seeds 0-4

Builds each seed's inputs through perfbench/workloads.py, runs the
workload's operation once with one BLAS thread on this checkout's src/,
and prints one line per seed: the seed and a SHA-256. `--workload all`
prints `workload seed sha256` lines for sbm1600 and cora_shape over the
given seeds, and for ablate_files over the first three of them. The
acceptance fixtures `criterion5`, `criterion6` and `cora_third` are built
as tools/effects.py builds them and trained once with their default
config. For these and for sbm1600 and cora_shape it digests the final soft
assignment `R`'s bytes followed by the repr of the report's
`epoch_losses`; for ablate_files, the name and bytes of every file the
grid writes except the metrics JSONs, which hold wall-clock times. Run it
at two commits and compare the output.
"""

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import effects  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIXTURES = [name for name in effects.WORKLOAD_CHOICES
            if name not in WORKLOADS]


def parse_seeds(text):
    """`N` or `A-B` (inclusive)."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def fingerprint(name, seed, out_dir):
    if name in FIXTURES:
        from mecole.training import run_training

        dataset, cfg = effects.dataset_and_config(name, seed)
        return digest_report(run_training(cfg, dataset))
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


def digest_report(report):
    """SHA-256 of the final `R`'s bytes, then the repr of the losses."""
    digest = hashlib.sha256(report.final_assignment.R.tobytes())
    digest.update(repr(report.epoch_losses).encode())
    return digest.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + FIXTURES + ["all"])
    p.add_argument("--seeds", required=True, type=parse_seeds,
                   help="one seed N or an inclusive range A-B")
    args = p.parse_args(argv)
    if args.workload == "all":
        runs = [(name, seed) for name in ("sbm1600", "cora_shape")
                for seed in args.seeds]
        runs += [("ablate_files", seed) for seed in args.seeds[:3]]
    else:
        runs = [(args.workload, seed) for seed in args.seeds]
    for name, seed in runs:
        label = f"{name} {seed}" if args.workload == "all" else seed
        with tempfile.TemporaryDirectory() as out_dir:
            print(label, fingerprint(name, seed, out_dir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
