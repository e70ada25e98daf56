"""Benchmark for mecole.

    python3 perfbench/run.py --workload sbm1600 --seed 0 --seconds 20 --trace 0

Runs one workload (sbm1600, cora_shape or ablate_files) in this process
with one BLAS thread, on inputs made from --seed. It sets the inputs up
several times, then repeats the workload's operation while the next
repetition is expected to end within --seconds (always at least once).
A fixed reference slice is timed next to every set-up and all through
every operation (probe.py), and both time metrics divide by it, so that
the host's drifting speed cancels out. Every repetition's outputs are
checked against scores computed apart from mecole. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics. The line above it gives the raw wall-clock times. With --trace 1
the metrics are the per-layer ones, from spans recorded around mecole's
functions; the spans go to perfbench/out/.

Exit codes: 0 all checks passed, 1 a check failed, 2 mecole could not be
imported from this checkout's src/.
"""

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, SRC)

from probe import REFERENCE_SLICE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, mean_scores  # noqa: E402


def import_mecole():
    """Import mecole from this checkout's src/ and nowhere else."""
    try:
        import mecole
    except ImportError as exc:
        return f"cannot import mecole from {SRC}: {exc}"
    where = os.path.dirname(os.path.abspath(mecole.__file__))
    if os.path.dirname(where) != SRC:
        return f"mecole was imported from {where}, not from {SRC}"
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    problem = import_mecole()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                f"{'-trace' if args.trace else ''}")
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, args.seed, out_dir)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe(tracer.untimed if tracer else None)
    probe.install()
    try:
        workload.prepare()
        setup_wall, setup_ratio = [], []
        for _ in range(workload.setup_reps):
            dt, ref, inputs = probe.bracket(workload.setup)
            setup_wall.append(dt)
            setup_ratio.append(dt / ref)

        train, ratio, slices, per_op, errors = [], [], [], [], []
        attempted = failed = 0
        start = perf_counter()
        while True:
            op_start = perf_counter()
            checked = tracer.check_s if tracer else 0.0
            dt, ref, result = probe.measure(workload.run, inputs)
            if tracer:  # leave the traced run's property checks out
                dt -= tracer.check_s - checked
            ours, n_ops, n_failed, errs = workload.check(inputs, result)
            attempted += n_ops
            failed += n_failed
            errors += errs
            train.append(dt)
            ratio.append(dt / ref)
            slices.append(ref)
            if ours is not None:
                per_op.append(ours)
            now = perf_counter()
            if now - start + (now - op_start) > args.seconds:
                break
    finally:
        probe.uninstall()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not per_op:
        errors.append("no operation produced outputs to score")
    print(f"wall clock: set-up {statistics.median(setup_wall):.4f} s "
          f"(median of {len(setup_wall)}), train {statistics.median(train):.3f}"
          f" s (median of {len(train)}), reference slice "
          f"{1000 * statistics.median(slices):.3f} ms")
    if tracer is not None:
        errors += tracer.violations
        if tracer.violation_count > len(tracer.violations):
            errors.append(f"... {tracer.violation_count} property "
                          f"violations in all")
        tracer.write_spans(os.path.join(out_dir, "spans.jsonl"))
        layer = tracer.per_layer()
        print_layer_table(layer, statistics.median(ratio), tracer.check_s)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layer.items()}
    else:
        quality = mean_scores(per_op) if per_op else \
            {"accuracy": 0.0, "nmi": 0.0, "modularity": 0.0}
        setup_s = statistics.median(setup_ratio) * REFERENCE_SLICE_S
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "train_ref": {"value": statistics.median(ratio), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "accuracy": {"value": quality["accuracy"], "unit": "fraction"},
            "nmi": {"value": quality["nmi"], "unit": "score"},
            "modularity": {"value": quality["modularity"], "unit": "score"},
        }
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if not errors else 1


def unit_of(metric):
    return "s" if metric.endswith("_s") else "count"


def print_layer_table(layer, train_ref, check_s):
    """Human-readable per-layer table; the share is of training.run_s."""
    run = layer["training.run_s"] or 1.0
    print(f"traced train_ref {train_ref:.1f} (without the {check_s:.3f} s "
          f"of property checks)")
    for name, value in layer.items():
        if unit_of(name) == "s":
            print(f"  {name:28s} {value:10.4f} s  {100 * value / run:6.1f}%")
        else:
            print(f"  {name:28s} {value:10d}")


if __name__ == "__main__":
    sys.exit(main())
