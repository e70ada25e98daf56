"""The tools: `tools/effects.py`'s summary and paired comparison, without
any training, and on one seed of `ablate_files`, `tools/linetrace.py`'s
listing, without any tracing, `tools/fingerprint.py` on one seed of an
acceptance fixture, of the bag workload and of the featureless workload,
and the runs that `--workload all` lists, the tools' copies of the
tests' fixtures, and the benchmark's tracer (`perfbench/tracing.py`)
around one small training."""

import ast
import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import numpy as np

from mecole import autodiff, training
from mecole.config import ExperimentConfig
from mecole.graphs import GraphBundle, SBMConfig, generate_sbm, \
    load_attribute_bags, load_vocabulary
from mecole.training import run_ablation_grid, run_training, sparse_eval

TESTS = Path(__file__).parent
TOOLS = TESTS.parent / "tools"
PERFBENCH = TESTS.parent / "perfbench"


def load_tool(name, where=TOOLS):
    spec = importlib.util.spec_from_file_location(name, where / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_effects_summary_means_and_margins():
    environ, path = dict(os.environ), list(sys.path)
    effects = load_tool("effects")
    runs = {
        "baseline": [dict(accuracy=0.8, nmi=0.6, modularity=0.5),
                     dict(accuracy=0.7, nmi=0.5, modularity=0.4)],
        "neg_uniform": [dict(accuracy=0.6, nmi=0.5, modularity=0.5),
                        dict(accuracy=0.6, nmi=0.3, modularity=0.5)],
        "no_cl": [dict(accuracy=0.9, nmi=0.7, modularity=0.2),
                  dict(accuracy=0.9, nmi=0.7, modularity=0.2)],
    }
    means, margins = effects.summarize(runs)
    assert list(means) == ["baseline", "neg_uniform", "no_cl"]
    assert means["baseline"] == pytest.approx(
        dict(accuracy=0.75, nmi=0.55, modularity=0.45))
    assert means["neg_uniform"] == pytest.approx(
        dict(accuracy=0.6, nmi=0.4, modularity=0.5))
    assert list(margins) == ["neg_uniform", "no_cl"]
    assert margins["neg_uniform"] == pytest.approx(
        dict(accuracy=0.15, nmi=0.15, modularity=-0.05))
    assert margins["no_cl"] == pytest.approx(
        dict(accuracy=-0.15, nmi=-0.15, modularity=0.25))
    # loading the tool pins no BLAS thread count and adds no import path
    assert dict(os.environ) == environ and sys.path == path


def test_effects_compare_pairs_seeds():
    effects = load_tool("effects")
    old = {"baseline": [dict(accuracy=0.5, nmi=0.25, modularity=0.5),
                        dict(accuracy=0.75, nmi=0.5, modularity=0.5),
                        dict(accuracy=0.5, nmi=0.5, modularity=0.5)],
           "no_cl": [dict(accuracy=0.5, nmi=0.5, modularity=0.5)] * 3}
    new = {"baseline": [dict(accuracy=0.75, nmi=0.25, modularity=0.5),
                        dict(accuracy=0.5, nmi=0.75, modularity=0.5),
                        dict(accuracy=1.0, nmi=0.75, modularity=0.5)],
           "no_cl": [dict(accuracy=0.25, nmi=0.5, modularity=0.5)] * 3}
    table = effects.compare(old, new)
    assert list(table) == ["baseline", "no_cl"]
    assert table["baseline"]["accuracy"] == dict(
        mean=0.5 / 3, diffs=[0.25, -0.25, 0.5], wins=2, losses=1,
        ties=0, lo=-0.25, hi=0.5)
    assert table["baseline"]["nmi"] == dict(
        mean=0.5 / 3, diffs=[0.0, 0.25, 0.25], wins=2, losses=0, ties=1,
        lo=0.0, hi=0.25)
    assert table["baseline"]["modularity"]["ties"] == 3
    assert table["no_cl"]["accuracy"] == dict(
        mean=-0.25, diffs=[-0.25] * 3, wins=0, losses=3, ties=0, lo=-0.25,
        hi=-0.25)
    # the seeds pair up one to one
    with pytest.raises(ValueError):
        effects.compare(old, {"baseline": new["baseline"][:2],
                              "no_cl": new["no_cl"]})


def test_effects_trains_ablate_files_cells_from_one_init(monkeypatch, capsys,
                                                        tmp_path):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(TOOLS))
    effects = load_tool("effects")
    path = str(tmp_path / "scores.json")
    assert effects.main(["--workload", "ablate_files", "--seeds", "0",
                         "--json", path]) == 0
    with open(path) as fh:
        written = json.load(fh)
    assert (written["workload"], written["seeds"]) == ("ablate_files", [0])
    # the four cells of `mecole ablate` on the workload's files and settings
    dataset, cfg = effects.dataset_and_config("ablate_files", 0,
                                              str(tmp_path / "grid"))
    assert (cfg.K, cfg.knn_k, cfg.epochs, cfg.init_epochs) == (4, 5, 16, 100)
    assert set(dataset.bundle.auxiliary) == {"G_V", "G_X"}
    grid = {r.variant: {k: getattr(r, k) for k in effects.SCORES}
            for r in run_ablation_grid(cfg)}
    assert written["runs"] == {v: [grid[v]] for v in effects.VARIANTS}
    capsys.readouterr()
    assert effects.main(["--compare", path, path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ablate_files, second file minus first")
    assert out.count("0/0/1") == len(effects.VARIANTS) * len(effects.SCORES)


def test_tool_fixtures_equal_the_tests_copies():
    environ, path = dict(os.environ), list(sys.path)
    # imported, not loaded from its file: its dataclasses look their
    # module up in `sys.modules`
    fresh = [m for m in ("checks", "workloads") if m not in sys.modules]
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path[:] = path
        for module in fresh:
            sys.modules.pop(module)
    effects = load_tool("effects")
    acceptance = load_tool("test_acceptance", TESTS)
    hard = load_tool("test_hard_negatives", TESTS)
    assert effects.FIXTURES["criterion5"] == acceptance.SBM_FIXTURE
    assert workloads.CORA_SIZES == hard.CORA_SIZES
    assert hard.CORA_THIRD.block_sizes == tuple(
        size // 3 for size in workloads.CORA_SIZES)
    assert effects.CORA_THIRD == dict(p_in=hard.CORA_THIRD.p_in,
                                      p_out=hard.CORA_THIRD.p_out)
    # criterion 6's config is a local of its test: read it from the source
    tree = ast.parse((TESTS / "test_acceptance.py").read_text("utf-8"))
    test = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and
                node.name == "test_criterion_6_confound_ablation_direction")
    kw = next(node.value for node in ast.walk(test)
              if isinstance(node, ast.Assign) and
              [ast.unparse(t) for t in node.targets] == ["kw"])
    assert ast.unparse(kw.func) == "dict" and not kw.args
    assert effects.FIXTURES["criterion6"] == {
        k.arg: ast.literal_eval(k.value) for k in kw.keywords}
    assert dict(os.environ) == environ and sys.path == path


LISTED_SOURCE = '''"""Module docstring."""
import os
from sys import path


class Box:
    """Class docstring."""
    size = 1

    def grow(self, by):
        """Method docstring."""
        if by < 0:
            raise ValueError(
                "negative")
        for _ in range(by):
            self.size += 1
        else:
            return self.size


def unused():
    return (
        1)
'''


def test_linetrace_lists_unreached_statements():
    environ, path = dict(os.environ), list(sys.path)
    linetrace = load_tool("linetrace")
    # hand-made hits on every statement but `unused`'s return, the
    # two-line `raise` on its second line only
    hits = {8, 12, 14, 15, 16, 18}
    assert linetrace.unreached(LISTED_SOURCE, hits) == [(22, "return (")]
    # docstrings, imports, `def` and `class` lines are never listed; an
    # unreached `if` header is listed apart from its reached body
    assert linetrace.unreached(LISTED_SOURCE, {14}) == [
        (8, "size = 1"), (12, "if by < 0:"), (15, "for _ in range(by):"),
        (16, "self.size += 1"), (18, "return self.size"), (22, "return (")]
    assert dict(os.environ) == environ and sys.path == path


def test_fingerprint_digests_an_acceptance_fixture(monkeypatch, capsys):
    # the tool pins one BLAS thread and extends the import path when it
    # loads; monkeypatch puts both back
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(TOOLS))
    fingerprint = load_tool("fingerprint")
    assert fingerprint.FIXTURES == ["criterion5", "criterion6", "cora_third"]
    assert fingerprint.main(["--workload", "criterion5", "--seeds", "0"]) == 0
    # seed 0 of criterion 5's fixture, trained with the default config
    report = run_training(ExperimentConfig(
        seed=0, sbm_blocks=4, sbm_block_size=100, sbm_p_in=0.10,
        sbm_p_out=0.01, sbm_noise_sigma=0.5, K=4))
    digest = hashlib.sha256(report.final_assignment.R.tobytes())
    digest.update(repr(report.epoch_losses).encode())
    assert capsys.readouterr().out == f"0 {digest.hexdigest()}\n"


def test_fingerprint_all_checks_every_byte_pin(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(TOOLS))
    fingerprint = load_tool("fingerprint")
    monkeypatch.setattr(fingerprint, "fingerprint",
                        lambda name, seed, out_dir: f"<{name} {seed}>")
    assert fingerprint.main(["--workload", "all", "--seeds", "0-9"]) == 0
    # the workloads over every seed, then the rest over the first three
    want = [(name, seed) for name in ("sbm1600", "cora_shape")
            for seed in range(10)]
    want += [(name, seed) for name in ("ablate_files", "featureless",
                                       "criterion5", "criterion6",
                                       "cora_third", "bags")
             for seed in range(3)]
    assert capsys.readouterr().out.splitlines() == \
        [f"{name} {seed} <{name} {seed}>" for name, seed in want]
    assert fingerprint.main(["--workload", "bags", "--seeds", "2-3"]) == 0
    assert capsys.readouterr().out == "2 <bags 2>\n3 <bags 3>\n"


def test_fingerprint_digests_the_bag_workload(monkeypatch, capsys,
                                              tmp_path):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(TOOLS))
    fingerprint = load_tool("fingerprint")
    assert fingerprint.main(["--workload", "bags", "--seeds", "0"]) == 0
    cfg = fingerprint.write_bag_inputs(0, str(tmp_path))
    # a comment line, then one bag of 0 to 6 tokens per node, some empty
    with open(cfg.bags_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("#") and len(lines) == 121
    sizes = [len(line.split()) for line in lines[1:]]
    assert min(sizes) == 0 and max(sizes) <= 6
    indptr, _ = load_attribute_bags(cfg.bags_path)
    assert np.diff(indptr).tolist() == sizes
    assert load_vocabulary(cfg.vocab_path).shape == (30, 8)
    assert (cfg.K, cfg.knn_k) == (3, 3)
    # the training and the sparse protocol, both on the files
    reports = run_training(cfg), sparse_eval(cfg, 0.3)
    digest = hashlib.sha256()
    for report in reports:
        digest.update(report.final_assignment.R.tobytes())
        digest.update(repr(report.epoch_losses).encode())
    assert capsys.readouterr().out == f"0 {digest.hexdigest()}\n"


def test_fingerprint_digests_the_featureless_workload(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(TOOLS))
    fingerprint = load_tool("fingerprint")
    gcn_arrays, calls = autodiff.gcn_arrays, set()

    def recording(a_hats, xs, w1, w2, mix, error):
        calls.add((error, xs is None))
        return gcn_arrays(a_hats, xs, w1, w2, mix, error)

    monkeypatch.setattr(autodiff, "gcn_arrays", recording)
    assert fingerprint.main(["--workload", "featureless", "--seeds", "0"]) == 0
    # the init's GCN and the encoders' both take the identity-feature branch
    assert calls == {("modularity init diverged (non-finite layer)", True),
                     ("non-finite values produced by 'gcn'", True)}
    # seed 0 of sbm1600's graph without its features, default config
    graph, _, labels = generate_sbm(SBMConfig(
        blocks=4, block_sizes=(400,) * 4, p_in=0.025, p_out=0.0025, seed=0))
    report = run_training(ExperimentConfig(K=4, seed=0), training.Dataset(
        bundle=GraphBundle(primary=graph), X=None, labels=labels))
    digest = hashlib.sha256(report.final_assignment.R.tobytes())
    digest.update(repr(report.epoch_losses).encode())
    assert capsys.readouterr().out == f"0 {digest.hexdigest()}\n"


def test_benchmark_tracer_counts_a_training_and_puts_back_what_it_wraps():
    # the tracer wraps mecole's functions where they are called, so one
    # that moves or is renamed reads 0 here
    environ, path = dict(os.environ), list(sys.path)
    fresh_checks = "checks" not in sys.modules
    sys.path.insert(0, str(PERFBENCH))  # for the tracer's `import checks`
    try:
        tracing = load_tool("tracing", PERFBENCH)
    finally:
        sys.path[:] = path
        if fresh_checks:
            sys.modules.pop("checks", None)
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = list(tracer._restore)
    try:
        training.run_training(ExperimentConfig(
            seed=0, sbm_blocks=4, sbm_block_size=20, sbm_p_in=0.3,
            sbm_p_out=0.02, K=4, epochs=3))
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["contrastive.anchors"] > 0
    assert counts["contrastive.batches"] > 0
    assert counts["autodiff.backward_calls"] == counts["training.epochs"] == 3
    assert tracer.per_layer()["training.run_s"] > 0
    assert tracer.violation_count == 0 and tracer.violations == []
    assert wrapped and all(getattr(owner, attr) is orig
                           for owner, attr, orig in wrapped)
    assert dict(os.environ) == environ and sys.path == path
