import contextlib
import csv
import json
import os
import re
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace

import numpy as np
import pytest

import mecole
from mecole import cli, graphs, training
from mecole.cli import main as cli_main
from mecole.clustering import Assignment
from mecole.config import ExperimentConfig, apply_overrides, \
    parse_config_file
from mecole.errors import ConfigError, DataError, NumericError
from mecole.metrics import MetricsReport, clustering_accuracy, nmi
from mecole.training import ABLATION_FLAGS, export_assignments, \
    load_dataset, run_ablation_grid, run_training, sparse_eval


def fast_cfg(**kw):
    base = dict(sbm_blocks=2, sbm_block_size=15, sbm_p_in=0.4,
                sbm_p_out=0.02, sbm_dep_dim=4, sbm_inv_dim=4,
                sbm_noise_sigma=0.3, K=2, dim_d=8, dim_o=8, hidden=16,
                epochs=6, init_epochs=60, per_class_anchors=2, positives=1,
                negatives_m=3, virtual_per_anchor=1, disc_pairs=32,
                assign_warmup=3, assign_every=2, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


# config --------------------------------------------------------------------

def test_config_defaults_and_floor():
    cfg = ExperimentConfig(K=4)
    assert "relevance_floor" not in cfg.to_dict()
    assert cfg.uses_sbm


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(K=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(tau=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha_ce=-0.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(p_ce_start=0.0)


@pytest.mark.parametrize("key", ["p_ce_start", "p_ce_end"])
def test_config_refuses_p_ce_too_small_for_dim_d(key):
    with pytest.raises(ConfigError, match="p_ce=1e-09 is too small for "
                                          "dim_d=4"):
        ExperimentConfig(dim_d=4, **{key: 1e-9})
    # the floor of 1/1024 admits one dim at p_ce = 0.001
    ExperimentConfig(dim_d=1, p_ce_start=0.001, p_ce_end=0.001)


def test_p_ce_linear_ramp():
    cfg = ExperimentConfig(epochs=5, p_ce_start=0.5, p_ce_end=0.1)
    assert cfg.p_ce_at(0) == pytest.approx(0.5)
    assert cfg.p_ce_at(4) == pytest.approx(0.1)
    assert cfg.p_ce_at(2) == pytest.approx(0.3)
    for epochs in (0, 1):  # no ramp: the start value
        cfg = ExperimentConfig(epochs=epochs, p_ce_start=0.5, p_ce_end=0.1)
        assert cfg.p_ce_at(0) == 0.5


def test_parse_config_file_sections_and_aliases(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\n"
                 "model.k = 3\n"
                 "contrastive.negatives = 7\n"
                 "training.lr = 0.02\n"
                 "ablation.no_cl = true\n"
                 "knn.k = 5\n")
    values = parse_config_file(p)
    cfg = ExperimentConfig(**values)
    assert cfg.K == 3 and cfg.knn_k == 5
    assert cfg.negatives_m == 7
    assert cfg.lr == pytest.approx(0.02)
    assert cfg.no_cl is True


def test_parse_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.unknown_thing = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_file(bad)
    bad.write_text("just a line without equals\n")
    with pytest.raises(ConfigError, match=":1:"):
        parse_config_file(bad)


def test_apply_overrides():
    values = apply_overrides({"K": 2}, ["seed=9", "model.dim_d=4"])
    assert values["seed"] == 9 and values["dim_d"] == 4
    for raw in ("false", "off", "0"):
        assert apply_overrides({}, [f"no_cl={raw}"]) == {"no_cl": False}
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals"])


def test_none_only_for_optional_keys():
    values = apply_overrides({}, ["K=5", "label_path=",
                                  "aux_edge_path=None"])
    assert values["label_path"] is None and values["aux_edge_path"] is None
    assert ExperimentConfig(**values).K == 5
    for item in ("K=none", "hidden=", "tau=none", "disc_metric=none"):
        with pytest.raises(ConfigError, match="a value is required"):
            apply_overrides({}, [item])


@pytest.mark.parametrize("item", ["K=none", "hidden=", "tau=none"])
def test_cli_none_for_required_key_is_config_error(tmp_path, capsys, item):
    rc = cli_main(["train", "--set", item, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# training loop invariants -----------------------------------------------------

def test_loss_accounting_per_epoch():
    cfg = fast_cfg(alpha_ce=0.7, disc_weight=0.5)
    report = run_training(cfg)
    for row in report.epoch_losses:
        assert row["L"] == pytest.approx(
            row["L1"] + row["L2"] + cfg.alpha_ce * row["LCE"], abs=1e-9)


def test_no_cl_drops_contrastive_term():
    report = run_training(fast_cfg(no_cl=True))
    for row in report.epoch_losses:
        assert row["LCE"] == 0.0
        assert row["L"] == pytest.approx(row["L1"] + row["L2"], abs=1e-12)


def test_alpha_ce_zero_matches_no_cl_trajectory():
    # contrastive sampling draws from its own stream, so removing the loss
    # term and removing the whole branch give identical optimization paths
    r_zero = run_training(fast_cfg(alpha_ce=0.0))
    r_nocl = run_training(fast_cfg(no_cl=True))
    for a, b in zip(r_zero.epoch_losses, r_nocl.epoch_losses):
        assert a["L1"] == b["L1"]
        assert a["L2"] == b["L2"]
    assert r_zero.accuracy == r_nocl.accuracy
    assert np.array_equal(r_zero.final_assignment.R,
                          r_nocl.final_assignment.R)


def test_run_deterministic_across_calls():
    r1 = run_training(fast_cfg(seed=5))
    r2 = run_training(fast_cfg(seed=5))
    assert r1.epoch_losses == r2.epoch_losses
    assert np.array_equal(r1.final_assignment.R, r2.final_assignment.R)
    assert r1.accuracy == r2.accuracy


def test_no_decouple_runs_without_invariant_channel():
    report = run_training(fast_cfg(no_decouple=True))
    for row in report.epoch_losses:
        assert row["L2"] == 0.0
    assert report.accuracy is not None


def test_report_contains_evaluation():
    report = run_training(fast_cfg())
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.nmi <= 1.0 + 1e-9
    assert report.init_accuracy is not None
    assert report.modularity is not None
    assert len(report.epoch_losses) == 6


def test_graph_augment_variant_runs():
    report = run_training(fast_cfg(graph_augment=True))
    assert report.accuracy is not None


def test_mlp_predictor_variant_runs():
    report = run_training(fast_cfg(mlp_predictor=True))
    assert report.accuracy is not None


# dataset loading ---------------------------------------------------------------

def test_load_dataset_files_and_aux(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n2 3\n")
    (tmp_path / "feat.csv").write_text("1,0\n1,0\n0,1\n0,1\n")
    (tmp_path / "labels.txt").write_text("0\n0\n1\n1\n")
    (tmp_path / "aux.txt").write_text("0 2\n")
    cfg = ExperimentConfig(edge_path=str(tmp_path / "edges.txt"),
                           feature_path=str(tmp_path / "feat.csv"),
                           label_path=str(tmp_path / "labels.txt"),
                           aux_edge_path=str(tmp_path / "aux.txt"),
                           knn_k=1)
    ds = load_dataset(cfg)
    assert ds.bundle.primary.n == 4
    assert set(ds.bundle.auxiliary) == {"G_V", "G_X"}
    assert ds.labels.tolist() == [0, 0, 1, 1]
    dropped = load_dataset(ExperimentConfig(
        edge_path=str(tmp_path / "edges.txt"),
        feature_path=str(tmp_path / "feat.csv"),
        aux_edge_path=str(tmp_path / "aux.txt"),
        knn_k=1, drop_gv=True, drop_gx=True))
    assert dropped.bundle.auxiliary == {}


@pytest.mark.parametrize("key", ["bags_path", "vocab_path"])
def test_load_dataset_bags_or_vocab_alone_is_config_error(tmp_path, key):
    (tmp_path / "bags.txt").write_text("".join(f"{i}\n" for i in range(30)))
    np.savetxt(tmp_path / "vocab.txt", np.eye(30))
    path = tmp_path / ("bags.txt" if key == "bags_path" else "vocab.txt")
    with pytest.raises(ConfigError, match=f"{key} is set alone"):
        load_dataset(fast_cfg(**{key: str(path)}))


def test_load_dataset_checks_bags_and_vocab_before_reading_a_file(
        monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an input was read before the pairing check")

    monkeypatch.setattr(training, "load_edge_list", fail)
    monkeypatch.setattr(training, "load_features", fail)
    monkeypatch.setattr(training, "build_knn_similarity_graph", fail)
    with pytest.raises(ConfigError, match="bags_path is set alone"):
        load_dataset(ExperimentConfig(
            edge_path="edges.txt", feature_path="feat.csv",
            aux_edge_path="aux.txt", knn_k=1, bags_path="bags.txt"))


def test_load_dataset_label_count_mismatch(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1\n")
    (tmp_path / "labels.txt").write_text("0\n")
    cfg = ExperimentConfig(edge_path=str(tmp_path / "edges.txt"),
                           label_path=str(tmp_path / "labels.txt"))
    with pytest.raises(DataError):
        load_dataset(cfg)


# sparse protocol ----------------------------------------------------------------

def test_sparse_eval_star_graph_errors(tmp_path):
    edges = "\n".join(f"0 {v}" for v in range(1, 10))
    (tmp_path / "edges.txt").write_text(edges + "\n")
    cfg = ExperimentConfig(edge_path=str(tmp_path / "edges.txt"), epochs=2,
                           init_epochs=5)
    with pytest.raises(DataError, match="removed every edge"):
        sparse_eval(cfg, 0.1)


def test_sparse_eval_reduces_node_count():
    report = sparse_eval(fast_cfg(epochs=3), 0.3)
    # 30 nodes -> ceil(0.3 * 30) = 9 removed
    assert report.final_assignment.n == 21
    assert report.variant == "sparse"


def test_sparse_eval_keeps_old_degree_order(tmp_path, monkeypatch):
    # degrees 3, 2, 2, 2, 3, 3, 3: ties at the cut go to the lowest id
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 5),
             (4, 6), (5, 6)]
    (tmp_path / "edges.txt").write_text(
        "".join(f"{u} {v}\n" for u, v in edges))
    n = 7
    X = np.arange(n, dtype=float)[:, None] * np.ones((1, 2))
    np.savetxt(tmp_path / "features.csv", X, delimiter=",")
    monkeypatch.setattr(training, "run_training",
                        lambda cfg, dataset, variant: dataset)
    cfg = ExperimentConfig(edge_path=str(tmp_path / "edges.txt"),
                           feature_path=str(tmp_path / "features.csv"))
    deg = load_dataset(cfg).bundle.primary.degrees
    for fraction in (0.1, 0.2, 0.3):
        remove = int(np.ceil(fraction * n))
        order = sorted(range(n), key=lambda u: (-deg[u], u))
        old_keep = sorted(set(range(n)) - set(order[:remove]))
        kept = sparse_eval(cfg, fraction).X[:, 0].astype(int).tolist()
        assert kept == old_keep


def test_sparse_eval_keeps_attribute_bags(tmp_path, monkeypatch):
    n = 30
    (tmp_path / "bags.txt").write_text("".join(f"{i}\n" for i in range(n)))
    np.savetxt(tmp_path / "vocab.txt", np.eye(n))
    cfg = fast_cfg(epochs=2, bags_path=str(tmp_path / "bags.txt"),
                   vocab_path=str(tmp_path / "vocab.txt"))
    seen = []
    tfidf = training.tfidf_class_features
    monkeypatch.setattr(training, "tfidf_class_features",
                        lambda bags, a: seen.append(bags) or tfidf(bags, a))
    sparse_eval(cfg, 0.3)
    deg = load_dataset(cfg).bundle.primary.degrees
    keep = np.sort(np.argsort(-deg, kind="stable")[9:])
    assert len(seen) == 1
    # node i's bag is the one token i: the kept rows, in order
    B = seen[0].counts
    np.testing.assert_array_equal(B.indptr, np.arange(len(keep) + 1))
    np.testing.assert_array_equal(B.indices, keep)


def test_sparse_eval_invalid_fraction():
    with pytest.raises(ConfigError):
        sparse_eval(fast_cfg(), 0.0)


# ablation grid --------------------------------------------------------------------

def test_ablation_grid_variants():
    cfg = fast_cfg(epochs=2, init_epochs=20)
    reports = run_ablation_grid(cfg)
    names = [r.variant for r in reports]
    assert names[0] == "baseline"
    # drop_gv/drop_gx are skipped (no aux inputs configured)
    expected = {"baseline", "no_decouple", "neg_uniform", "mlp_predictor",
                "no_cl", "graph_augment", "disc_l2", "disc_cosine",
                "disc_l_inf"}
    assert set(names) == expected
    assert all(r.error is None for r in reports)


@pytest.fixture
def grid_files(tmp_path):
    """A 2 x 15 planted partition on files, with an auxiliary edge list and
    a k-NN channel, so every cell of the grid runs, `drop_gv` and `drop_gx`
    included."""
    sbm = dict(blocks=2, block_sizes=(15, 15), dep_dim=4, inv_dim=4,
               noise_sigma=0.3)
    graph, X, labels = graphs.generate_sbm(graphs.SBMConfig(
        p_in=0.4, p_out=0.02, seed=3, **sbm))
    aux, _, _ = graphs.generate_sbm(graphs.SBMConfig(
        p_in=0.3, p_out=0.05, seed=4, **sbm))
    for name, g in (("edges.txt", graph), ("aux.txt", aux)):
        (tmp_path / name).write_text(
            "".join(f"{u} {v}\n" for u, v, _ in g.edges))
    np.savetxt(tmp_path / "features.csv", X, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "labels.txt", labels, fmt="%d")
    return fast_cfg(edge_path=str(tmp_path / "edges.txt"),
                    feature_path=str(tmp_path / "features.csv"),
                    label_path=str(tmp_path / "labels.txt"),
                    aux_edge_path=str(tmp_path / "aux.txt"), knn_k=2,
                    epochs=4, init_epochs=30)


GRID_CELLS = ["baseline", *ABLATION_FLAGS, "disc_l2", "disc_cosine",
              "disc_l_inf"]


def test_ablation_grid_cells_equal_standalone_runs(grid_files):
    reports = run_ablation_grid(grid_files)
    assert [r.variant for r in reports] == GRID_CELLS
    for r in reports:
        assert r.error is None, r.variant
        alone = run_training(ExperimentConfig(**r.config), variant=r.variant)
        assert r.epoch_losses == alone.epoch_losses, r.variant
        for attr in ("accuracy", "nmi", "modularity", "init_accuracy"):
            assert getattr(r, attr) == getattr(alone, attr), (r.variant,
                                                              attr)
        assert r.final_assignment.R.tobytes() == \
            alone.final_assignment.R.tobytes(), r.variant


def test_ablation_grid_loads_per_data_config_and_inits_once(grid_files,
                                                             monkeypatch):
    loads, inits = [], []
    load, init = training.load_dataset, training.init_assignments

    def counting_load(cfg):
        loads.append((cfg.drop_gv, cfg.drop_gx))
        return load(cfg)

    def counting_init(*args):
        out = init(*args)
        inits.append((out, out.R.tobytes()))
        return out

    monkeypatch.setattr(training, "load_dataset", counting_load)
    monkeypatch.setattr(training, "init_assignments", counting_init)
    reports = run_ablation_grid(grid_files)
    assert all(r.error is None for r in reports)
    assert sorted(loads) == [(False, False), (False, True), (True, False)]
    assert len(inits) == 1
    shared, R_bytes = inits[0]
    assert shared.R.tobytes() == R_bytes


def test_ablation_grid_builds_the_key_attribute_channel_once(grid_files,
                                                             tmp_path,
                                                             monkeypatch):
    # bags of a block token, a token shared by all and a random one
    labels = np.loadtxt(grid_files.label_path, dtype=int)
    rng = np.random.default_rng(5)
    (tmp_path / "bags.txt").write_text("".join(
        f"{k} 2 {rng.integers(3, 8)}\n" for k in labels))
    np.savetxt(tmp_path / "vocab.txt", rng.normal(size=(8, 3)))
    cfg = replace(grid_files, bags_path=str(tmp_path / "bags.txt"),
                  vocab_path=str(tmp_path / "vocab.txt"))
    calls = []
    tfidf = training.tfidf_class_features
    monkeypatch.setattr(training, "tfidf_class_features",
                        lambda bags, a: calls.append(a) or tfidf(bags, a))
    reports = run_ablation_grid(cfg)
    assert [r.variant for r in reports] == GRID_CELLS
    assert len(calls) == 1
    # G_M has edges, so every cell trains on four channels
    assert training.key_attribute_channel(load_dataset(cfg).bags, calls[0],
                                          cfg)
    for r in reports:
        assert r.error is None, r.variant
        alone = run_training(ExperimentConfig(**r.config), variant=r.variant)
        assert r.epoch_losses == alone.epoch_losses, r.variant
        assert r.final_assignment.R.tobytes() == \
            alone.final_assignment.R.tobytes(), r.variant
    assert len(calls) == 2 + len(GRID_CELLS)


INIT_FIELDS = ("K", "init_epochs", "init_lr", "collapse_weight", "hidden",
               "seed")


def test_ablation_cells_keep_the_init_settings(monkeypatch):
    """The grid trains one init from `cfg` for all its cells, which holds
    only if no cell changes a config field `init_assignments` reads. Cells
    may train in worker processes, so the spy reports what it saw."""
    cfg = fast_cfg(aux_edge_path="aux.txt", knn_k=3)
    graph = graphs.Graph.from_pairs(2, [(0, 1)])
    dataset = training.Dataset(bundle=graphs.GraphBundle(primary=graph),
                               X=None, labels=None)
    monkeypatch.setattr(training, "load_dataset", lambda c: dataset)
    shared = object()
    monkeypatch.setattr(training, "init_assignments",
                        lambda g, X, c: shared if c is cfg else None)
    monkeypatch.setattr(
        training, "run_training",
        lambda c, data, variant, init: MetricsReport(
            seed=c.seed, variant=variant,
            config={"init is shared": init is shared,
                    **{field: getattr(c, field) for field in INIT_FIELDS}}))
    reports = run_ablation_grid(cfg)
    assert [r.variant for r in reports] == GRID_CELLS
    for r in reports:
        assert r.config["init is shared"] is True, r.variant
        for field in INIT_FIELDS:
            assert r.config[field] == getattr(cfg, field), (r.variant, field)


def test_ablation_grid_unreadable_aux_fails_all_but_drop_gv(grid_files,
                                                            tmp_path,
                                                            monkeypatch):
    loads = []
    load = training.load_dataset
    monkeypatch.setattr(training, "load_dataset",
                        lambda cfg: loads.append(cfg) or load(cfg))
    cfg = replace(grid_files, aux_edge_path=str(tmp_path / "missing.txt"))
    reports = {r.variant: r for r in run_ablation_grid(cfg)}
    assert list(reports) == GRID_CELLS
    # a failed load is not kept: every cell that needs it tries again
    assert len(loads) == len(GRID_CELLS)
    assert reports["drop_gv"].error is None
    assert reports["drop_gv"].accuracy is not None
    for name, r in reports.items():
        if name != "drop_gv":
            assert r.error is not None and "cannot read" in r.error, name
            assert r.accuracy is None


def usable_cpus(monkeypatch, cpus):
    """Make the grid see `cpus` usable CPUs, so it trains its cells in
    that many worker processes, or here with one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def report_bytes(r):
    return (json.dumps({**r.to_dict(), "wall_clock_s": None}),
            r.final_assignment.R.tobytes(),
            r.final_assignment.R.flags.writeable)


def test_ablation_grid_workers_equal_one_process(grid_files, monkeypatch):
    usable_cpus(monkeypatch, {0})
    here = run_ablation_grid(grid_files)
    usable_cpus(monkeypatch, {0, 1})
    pooled = run_ablation_grid(grid_files)
    assert [r.variant for r in pooled] == GRID_CELLS
    assert [report_bytes(r) for r in pooled] == \
        [report_bytes(r) for r in here]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_ablation_cell_numeric_error_fails_that_cell(grid_files, monkeypatch,
                                                     cpus):
    train = training.run_training

    def diverging(cfg, dataset, variant, init):
        if variant == "neg_uniform":
            raise NumericError("non-finite loss")
        return train(cfg, dataset, variant=variant, init=init)

    usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(training, "run_training", diverging)
    reports = run_ablation_grid(grid_files)
    assert [r.variant for r in reports] == GRID_CELLS
    for r in reports:
        if r.variant == "neg_uniform":
            assert r.error == "non-finite loss" and r.accuracy is None
        else:
            assert r.error is None and r.accuracy is not None, r.variant


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_ablation_grid_dead_worker_raises(grid_files, monkeypatch):
    test_pid = os.getpid()
    train = training.run_training

    def killed(cfg, dataset, variant, init):
        if variant == "no_cl":
            assert os.getpid() != test_pid, "a cell trained in the test"
            os.kill(os.getpid(), signal.SIGKILL)
        return train(cfg, dataset, variant=variant, init=init)

    usable_cpus(monkeypatch, {0, 1})
    monkeypatch.setattr(training, "run_training", killed)
    with time_limit(60), pytest.raises(BrokenProcessPool):
        run_ablation_grid(grid_files)


# CLI -------------------------------------------------------------------------------

def sbm_args(out, extra=()):
    return ["--set", "sbm_blocks=2", "--set", "sbm_block_size=15",
            "--set", "sbm_p_in=0.4", "--set", "sbm_p_out=0.02",
            "--set", "epochs=3", "--set", "init_epochs=30",
            "--set", "hidden=16", "--set", "dim_d=8", "--set", "dim_o=8",
            "--set", "per_class_anchors=2", "--set", "negatives_m=3",
            "--set", "virtual_per_anchor=1", "--set", "disc_pairs=32",
            "--out", str(out)] + list(extra)


def test_cli_train_writes_outputs(tmp_path, capsys):
    rc = cli_main(["train"] + sbm_args(tmp_path / "run"))
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "accuracy" in out
    run_dir = tmp_path / "run"
    assert (run_dir / "metrics.json").exists()
    assert (run_dir / "metrics_losses.csv").exists()
    assert (run_dir / "metrics_assignments.csv").exists()


def test_cli_ablate_writes_the_grid(tmp_path, capsys):
    # no aux edges and knn_k=0, so drop_gv and drop_gx are skipped; the
    # default disc_metric is l1
    grid = ["baseline", "no_decouple", "neg_uniform", "mlp_predictor",
            "no_cl", "graph_augment", "disc_l2", "disc_cosine", "disc_l_inf"]
    rc = cli_main(["ablate"] + sbm_args(tmp_path / "grid"))
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line.split(":")[0] for line in lines] == grid
    for line in lines:
        assert re.fullmatch(r"\w+: accuracy=[0-9.e-]+ error=-", line), line
    with open(tmp_path / "grid" / "ablation.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variant", "seed", "accuracy", "nmi", "modularity",
                       "error"]
    assert [row[0] for row in rows[1:]] == grid
    assert all(row[1] == "0" and row[5] == "" for row in rows[1:])
    for variant in grid:
        for suffix in (".json", "_losses.csv", "_assignments.csv"):
            assert (tmp_path / "grid" / f"metrics_{variant}{suffix}").exists()


@pytest.mark.parametrize("item", ["lr=1e308", "init_lr=1e308",
                                  "tau=1e-300"])
def test_cli_numeric_failure_prints_one_line(tmp_path, item):
    # in a subprocess numpy's warnings print as they would for a user
    src = os.path.dirname(os.path.dirname(os.path.abspath(mecole.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "mecole.cli", "train"] +
        sbm_args(tmp_path / "run", extra=["--set", item]),
        env=env, capture_output=True, text=True, timeout=120)
    lines = done.stderr.splitlines()
    assert done.returncode == 3
    assert len(lines) == 1 and lines[0].startswith("numeric failure:"), lines


def test_cli_non_finite_init_assignment_exits_3(tmp_path, capsys):
    # one init epoch at init_lr=2e38 leaves a non-finite assignment on the
    # 4-node path
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n2 3\n")
    rc = cli_main(["train", "--set", f"edge_path={tmp_path / 'edges.txt'}",
                   "--set", "init_epochs=1", "--set", "hidden=4",
                   "--set", "init_lr=2e38", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert err == ["numeric failure: modularity init diverged (non-finite "
                   "assignment)"]


def test_cli_exit_code_config_error(tmp_path, capsys):
    rc = cli_main(["train", "--set", "K=1", "--out", str(tmp_path)])
    assert rc == 1


# the smallest legal value of each count
COUNT_FLOORS = {"negatives_m": 1, "pool_factor": 1, "positives": 1,
                "virtual_per_anchor": 1, "per_class_anchors": 1,
                "assign_every": 1, "hidden": 1, "epochs": 0, "dim_o": 0,
                "knn_k": 0, "assign_warmup": 0, "init_epochs": 1,
                "neg_ratio": 1, "dim_d": 1, "disc_pairs": 1}


@pytest.mark.parametrize("key", list(COUNT_FLOORS))
def test_cli_count_below_one_is_config_error(tmp_path, capsys, key):
    floor = COUNT_FLOORS[key]
    rc = cli_main(["train"] + sbm_args(
        tmp_path / "run", extra=["--set", f"{key}={floor - 1}"]))
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{key} must be >= {floor}" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "metrics.json").exists()


@pytest.mark.parametrize("key", ["init_epochs", "neg_ratio", "dim_d",
                                 "disc_pairs"])
def test_cli_ablate_count_below_one_is_config_error(tmp_path, capsys, key):
    rc = cli_main(["ablate"] + sbm_args(tmp_path / "grid",
                                        extra=["--set", f"{key}=0"]))
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{key} must be >= 1" in err and "Traceback" not in err
    assert not (tmp_path / "grid" / "ablation.csv").exists()


@pytest.mark.parametrize("sets, code, message", [
    ([], 2, "SBM config incomplete"),
    (["sbm_blocks=2", "sbm_block_size=15", "sbm_dep_dim=1"], 1,
     "dep_dim must be >= number of blocks"),
    # without features a file run has no k-NN graph G_X to build or drop
    (["edge_path=edges.txt", "knn_k=3"], 1,
     "knn_k=3 needs a feature_path"),
    # a cell would fail to load its dataset; the grid fails before any cell
    (["sbm_blocks=2", "sbm_block_size=20", "bags_path=x"], 1,
     "bags_path is set alone"),
    (["sbm_blocks=2", "sbm_block_size=20", "vocab_path=x"], 1,
     "vocab_path is set alone"),
])
def test_cli_ablate_bad_sbm_config_fails_the_run(tmp_path, capsys, sets,
                                                 code, message):
    argv = ["ablate", "--out", str(tmp_path / "grid")]
    for item in sets:
        argv += ["--set", item]
    rc = cli_main(argv)
    err = capsys.readouterr().err
    assert rc == code
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize("key", ["sbm_inv_dim", "sbm_noise_sigma"])
def test_cli_negative_sbm_setting_is_config_error(tmp_path, capsys, key):
    rc = cli_main(["train"] + sbm_args(tmp_path / "run",
                                       extra=["--set", f"{key}=-1"]))
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and "must be >= 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "metrics.json").exists()


FLOAT_KEYS = [f.name for f in fields(ExperimentConfig)
              if "float" in str(f.type)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_cli_non_finite_setting_is_config_error(tmp_path, capsys, key,
                                                value):
    rc = cli_main(["train"] + sbm_args(tmp_path / "run",
                                       extra=["--set", f"{key}={value}"]))
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{key} must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "metrics.json").exists()


@pytest.mark.parametrize("item, message", [
    ("disc_weight=-1", "disc_weight must be >= 0"),
    ("collapse_weight=-1", "collapse_weight must be >= 0"),
    ("sbm_confound=-2", "sbm_confound must be >= 0"),
])
def test_cli_out_of_range_setting_is_config_error(tmp_path, capsys, item,
                                                  message):
    rc = cli_main(["train"] + sbm_args(tmp_path / "run",
                                       extra=["--set", item]))
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "run" / "metrics.json").exists()


INT_KEYS = [f.name for f in fields(ExperimentConfig) if f.type == "int"]
BAD_SETTINGS = [("train", ["--set", f"{key}=-1"]) for key in INT_KEYS] + [
    ("train", ["--seed", "-1"]),
    ("train", ["--set", "disc_metric=foo"]),
    ("train", ["--set", "disc_metric=foo", "--set", "no_decouple=true"]),
    ("ablate", ["--set", "disc_metric=foo"]),
]


@pytest.mark.parametrize("command, extra", BAD_SETTINGS,
                         ids=["_".join([command] + [a for a in extra
                                                    if a != "--set"])
                              for command, extra in BAD_SETTINGS])
def test_cli_bad_setting_fails_without_outputs(tmp_path, capsys, command,
                                               extra):
    rc = cli_main([command] + sbm_args(tmp_path / "run", extra=extra))
    err = capsys.readouterr().err
    assert rc in (1, 2)
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "metrics.json").exists()
    assert not (tmp_path / "run" / "ablation.csv").exists()


@pytest.mark.parametrize("source", ["--set", "--config"])
def test_cli_removed_relevance_floor_is_unknown_key(tmp_path, capsys,
                                                    source):
    # the relevance flag is gone, so a config that still sets its floor
    # fails before any work
    if source == "--set":
        extra = ["--set", "relevance_floor=0.3"]
    else:
        (tmp_path / "run.cfg").write_text("relevance_floor = 0.3\n")
        extra = ["--config", str(tmp_path / "run.cfg")]
    rc = cli_main(["train"] + sbm_args(tmp_path / "run", extra=extra))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == [
        "config error: unknown config key 'relevance_floor'"]
    assert not (tmp_path / "run").exists()


def test_config_bounds_are_inclusive():
    for eta_sim in (-1.0, 1.0):
        assert ExperimentConfig(eta_sim=eta_sim).eta_sim == eta_sim
    assert ExperimentConfig(disc_weight=0.0).disc_weight == 0.0


def test_cli_exit_code_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    missing.write_text("")  # empty edge list -> data error
    rc = cli_main(["train", "--set", f"edge_path={missing}",
                   "--out", str(tmp_path)])
    assert rc == 2


def test_cli_non_positive_degree_is_data_error(tmp_path, capsys):
    # the k-NN edge between features 1 and -1 weighs -1, so node 0's
    # degree in A + I is 0
    (tmp_path / "edges.txt").write_text("0 1\n")
    (tmp_path / "x.txt").write_text("1\n-1\n")
    rc = cli_main(["train", "--set", f"edge_path={tmp_path / 'edges.txt'}",
                   "--set", f"feature_path={tmp_path / 'x.txt'}",
                   "--set", "knn_k=1", "--set", "eta_sim=-1",
                   "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err == ["data error: node 0 has degree 0 in A + I, which must be "
                   "positive to normalize"]


@pytest.mark.parametrize("key", ["edge_path", "feature_path", "label_path",
                                 "bags_path", "vocab_path"])
def test_cli_missing_input_file_is_data_error(tmp_path, capsys, key):
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
    (tmp_path / "bags.txt").write_text("0\n1\n0\n")
    (tmp_path / "vocab.txt").write_text("1 0\n0 1\n")
    paths = {"edge_path": tmp_path / "edges.txt",
             "bags_path": tmp_path / "bags.txt",
             "vocab_path": tmp_path / "vocab.txt",
             key: tmp_path / "missing" / "input.txt"}
    argv = ["train", "--out", str(tmp_path / "run")]
    for k, p in paths.items():
        argv += ["--set", f"{k}={p}"]
    rc = cli_main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot read" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["bags_path", "vocab_path"])
def test_cli_bags_or_vocab_alone_is_config_error(tmp_path, capsys, key):
    (tmp_path / "bags.txt").write_text("".join(f"{i}\n" for i in range(30)))
    np.savetxt(tmp_path / "vocab.txt", np.eye(30))
    path = tmp_path / ("bags.txt" if key == "bags_path" else "vocab.txt")
    rc = cli_main(["train"] + sbm_args(tmp_path / "run",
                                       extra=["--set", f"{key}={path}"]))
    err = capsys.readouterr().err
    assert rc == 1
    assert f"config error: {key} is set alone" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "metrics.json").exists()


def test_cli_empty_vocabulary_is_data_error(tmp_path, capsys):
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n2 3\n")
    (tmp_path / "bags.txt").write_text("\n\n\n\n")
    (tmp_path / "vocab.txt").write_text("# no tokens\n")
    rc = cli_main(["train", "--out", str(tmp_path / "run"),
                   "--set", f"edge_path={tmp_path / 'edges.txt'}",
                   "--set", f"bags_path={tmp_path / 'bags.txt'}",
                   "--set", f"vocab_path={tmp_path / 'vocab.txt'}"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "empty vocabulary" in err and "Traceback" not in err


def test_cli_eval_bad_assignment_file_is_data_error(tmp_path, capsys):
    (tmp_path / "labels.txt").write_text("0\n1\n")
    bad = tmp_path / "assign.csv"
    bad.write_text("node_id,class,r0,r1,relevant\n0,x,0.5,0.5,1\n")
    negative = tmp_path / "negative.csv"
    negative.write_text("node_id,class,r0,r1,relevant\n"
                        "0,-1,0.5,0.5,1\n1,1,0.5,0.5,1\n")
    headless = tmp_path / "headless.csv"
    headless.write_text("0,1,0.5,0.5,1\n")
    short = tmp_path / "short.csv"
    short.write_text("node_id,class,r0,r1,relevant\n0,1,0.5,0.5,1\n")
    for path, message in ((bad, "malformed row"),
                          (tmp_path / "missing.csv", "cannot read"),
                          (negative, "must be >= 0"),
                          (headless, "not an assignment export"),
                          (short, "assignment/label length mismatch")):
        rc = cli_main(["eval", "--assignments", str(path),
                       "--labels", str(tmp_path / "labels.txt")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert err.startswith("data error:") and message in err
        assert len(err.splitlines()) == 1, err


def test_cli_eval_reads_exports_with_and_without_relevant_column(
        tmp_path, capsys):
    # exports used to end in a 0/1 `relevant` column; eval reads the class
    # column of both
    (tmp_path / "labels.txt").write_text("0\n1\n0\n1\n")
    R = np.array([[0.9, 0.1], [0.2, 0.8], [0.4, 0.6], [0.7, 0.3]])
    export_assignments(tmp_path / "new.csv", Assignment(R=R))
    with open(tmp_path / "new.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node_id", "class", "r0", "r1"]
    with open(tmp_path / "old.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([rows[0] + ["relevant"]] +
                                 [row + ["1"] for row in rows[1:]])
    outputs = []
    for name in ("old.csv", "new.csv"):
        rc = cli_main(["eval", "--assignments", str(tmp_path / name),
                       "--labels", str(tmp_path / "labels.txt")])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0] == "accuracy 0.5000"


def test_cli_eval_skips_blank_lines(tmp_path, capsys):
    (tmp_path / "labels.txt").write_text("0\n1\n0\n")
    export = "node_id,class,r0,r1,relevant\n0,0,0.9,0.1,1\n" \
        "1,1,0.2,0.8,1\n2,1,0.4,0.6,0\n"
    outputs = []
    for name, text in (("plain.csv", export), ("blank.csv", export + "\n")):
        (tmp_path / name).write_text(text)
        rc = cli_main(["eval", "--assignments", str(tmp_path / name),
                       "--labels", str(tmp_path / "labels.txt")])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    pred, truth = [0, 1, 1], [0, 1, 0]
    assert outputs[0].splitlines() == [
        f"accuracy {clustering_accuracy(pred, truth):.4f}",
        f"nmi {nmi(pred, truth):.4f}"]


def _no_work(*args, **kwargs):
    raise AssertionError("the command ran with an unusable --out")


@pytest.mark.parametrize("command", ["train", "ablate", "sparse-eval",
                                     "gen-sbm"])
def test_cli_unusable_out_fails_before_any_work(tmp_path, capsys,
                                                monkeypatch, command):
    for name in ("run_training", "run_ablation_grid", "sparse_eval",
                 "generate_sbm"):
        monkeypatch.setattr(cli, name, _no_work)
    monkeypatch.setattr(training, "run_training", _no_work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = cli_main([command] + sbm_args(blocker / "out"))
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"config error: cannot write to {blocker / 'out'}: ")


@pytest.mark.parametrize("command, path", [
    ("train", "metrics.json"), ("ablate", "ablation.csv"),
    ("sparse-eval", "metrics_sparse.json"), ("gen-sbm", "edges.txt")])
def test_cli_unwritable_output_is_config_error(tmp_path, capsys, monkeypatch,
                                               command, path):
    report = MetricsReport(seed=0, config={})
    monkeypatch.setattr(cli, "run_training", lambda cfg: report)
    monkeypatch.setattr(cli, "run_ablation_grid", lambda cfg: [report])
    monkeypatch.setattr(cli, "sparse_eval", lambda cfg, fraction: report)
    (tmp_path / "run" / path).mkdir(parents=True)
    rc = cli_main([command] + sbm_args(tmp_path / "run"))
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"config error: cannot write to {tmp_path / 'run'}: ")


def test_cli_unknown_log_level_fails_before_any_work(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setenv("MECOLE_LOG", "verbose")
    monkeypatch.setattr(cli, "run_training", _no_work)
    rc = cli_main(["train"] + sbm_args(tmp_path / "run"))
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("config error: MECOLE_LOG must be one of ")
    assert all(level in err for level in ("error", "warn", "info", "debug"))
    assert not (tmp_path / "run").exists()


def test_cli_missing_config_file_is_config_error(tmp_path, capsys):
    rc = cli_main(["train", "--config", str(tmp_path / "none.cfg")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_cli_gen_sbm_train_eval_roundtrip(tmp_path, capsys):
    data_dir = tmp_path / "data"
    rc = cli_main(["gen-sbm"] + sbm_args(data_dir))
    assert rc == 0
    capsys.readouterr()
    graph = load_dataset(ExperimentConfig(
        sbm_blocks=2, sbm_block_size=15, sbm_p_in=0.4,
        sbm_p_out=0.02)).bundle.primary
    recipe = "# generated planted-partition graph\n" + \
        "".join(f"{u}\t{v}\n" for u, v, _ in graph.edges)
    assert (data_dir / "edges.txt").read_bytes() == recipe.encode()
    run_dir = tmp_path / "run"
    rc = cli_main(["train"] + sbm_args(run_dir, extra=[
        "--set", f"edge_path={data_dir / 'edges.txt'}",
        "--set", f"feature_path={data_dir / 'features.csv'}",
        "--set", f"label_path={data_dir / 'labels.txt'}"]))
    assert rc == 0
    capsys.readouterr()
    rc = cli_main(["eval",
                   "--assignments", str(run_dir / "metrics_assignments.csv"),
                   "--labels", str(data_dir / "labels.txt")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "accuracy" in text and "nmi" in text


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_label_below_minus_one_is_data_error(tmp_path, capsys, command):
    data_dir = tmp_path / "data"
    assert cli_main(["gen-sbm"] + sbm_args(data_dir)) == 0
    labels = (data_dir / "labels.txt").read_text().split()
    labels[:10] = ["-3"] * 10
    (data_dir / "labels.txt").write_text("\n".join(labels) + "\n")
    if command == "train":
        argv = ["train"] + sbm_args(tmp_path / "run", extra=[
            "--set", f"edge_path={data_dir / 'edges.txt'}",
            "--set", f"label_path={data_dir / 'labels.txt'}"])
    else:
        export = "node_id,class,r0,r1,relevant\n" + "".join(
            f"{i},0,1.0,0.0,1\n" for i in range(len(labels)))
        (tmp_path / "assign.csv").write_text(export)
        argv = ["eval", "--assignments", str(tmp_path / "assign.csv"),
                "--labels", str(data_dir / "labels.txt")]
    capsys.readouterr()
    rc = cli_main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "below -1" in err and "Traceback" not in err


def test_cli_gen_sbm_without_sbm_settings_is_data_error(tmp_path, capsys):
    rc = cli_main(["gen-sbm", "--out", str(tmp_path / "data")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "SBM config incomplete" in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


def test_cli_sparse_eval(tmp_path, capsys):
    rc = cli_main(["sparse-eval", "--fraction", "0.2"] +
                  sbm_args(tmp_path / "run"))
    assert rc == 0
    assert (tmp_path / "run" / "metrics_sparse.json").exists()


@pytest.mark.parametrize("fraction", ["1.5", "nan"])
def test_cli_sparse_eval_invalid_fraction_is_config_error(
        tmp_path, capsys, monkeypatch, fraction):
    def load_dataset(cfg):
        raise AssertionError("sparse-eval loaded data for a bad --fraction")
    monkeypatch.setattr(training, "load_dataset", load_dataset)
    rc = cli_main(["sparse-eval", "--fraction", fraction] +
                  sbm_args(tmp_path / "run"))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == ["config error: fraction must lie in (0, 1)"]


def test_cli_byte_identical_reruns(tmp_path):
    for name in ("a", "b"):
        rc = cli_main(["train"] + sbm_args(tmp_path / name))
        assert rc == 0
    for fname in ("metrics_losses.csv", "metrics_assignments.csv"):
        fa = (tmp_path / "a" / fname).read_bytes()
        fb = (tmp_path / "b" / fname).read_bytes()
        assert fa == fb
