import json
import os

import numpy as np
import pytest

from mecole.cli import main as cli_main
from mecole.config import ExperimentConfig, apply_overrides, \
    parse_config_file
from mecole.errors import ConfigError, DataError
from mecole.training import ABLATION_FLAGS, load_dataset, run_ablation_grid, \
    run_training, sparse_eval


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
    assert cfg.relevance_floor == pytest.approx(1.2 / 4)
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


def test_p_ce_linear_ramp():
    cfg = ExperimentConfig(epochs=5, p_ce_start=0.5, p_ce_end=0.1)
    assert cfg.p_ce_at(0) == pytest.approx(0.5)
    assert cfg.p_ce_at(4) == pytest.approx(0.1)
    assert cfg.p_ce_at(2) == pytest.approx(0.3)


def test_parse_config_file_sections_and_aliases(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\n"
                 "model.k = 3\n"
                 "contrastive.negatives = 7\n"
                 "training.lr = 0.02\n"
                 "ablation.no_cl = true\n")
    values = parse_config_file(p)
    cfg = ExperimentConfig(**values)
    assert cfg.K == 3
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
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals"])


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


def test_sparse_eval_invalid_fraction():
    with pytest.raises(DataError):
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


def test_cli_exit_code_config_error(tmp_path, capsys):
    rc = cli_main(["train", "--set", "K=1", "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("key", ["negatives_m", "pool_factor", "positives",
                                 "virtual_per_anchor", "per_class_anchors",
                                 "assign_every", "hidden"])
def test_cli_count_below_one_is_config_error(tmp_path, capsys, key):
    rc = cli_main(["train"] + sbm_args(tmp_path / "run",
                                       extra=["--set", f"{key}=0"]))
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{key} must be >= 1" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "metrics.json").exists()


def test_cli_exit_code_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    missing.write_text("")  # empty edge list -> data error
    rc = cli_main(["train", "--set", f"edge_path={missing}",
                   "--out", str(tmp_path)])
    assert rc == 2


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


def test_cli_eval_bad_assignment_file_is_data_error(tmp_path, capsys):
    (tmp_path / "labels.txt").write_text("0\n1\n")
    bad = tmp_path / "assign.csv"
    bad.write_text("node_id,class,r0,r1,relevant\n0,x,0.5,0.5,1\n")
    for path in (bad, tmp_path / "missing.csv"):
        rc = cli_main(["eval", "--assignments", str(path),
                       "--labels", str(tmp_path / "labels.txt")])
        assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_missing_config_file_is_config_error(tmp_path, capsys):
    rc = cli_main(["train", "--config", str(tmp_path / "none.cfg")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_cli_gen_sbm_train_eval_roundtrip(tmp_path, capsys):
    data_dir = tmp_path / "data"
    rc = cli_main(["gen-sbm"] + sbm_args(data_dir))
    assert rc == 0
    capsys.readouterr()
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


def test_cli_sparse_eval(tmp_path, capsys):
    rc = cli_main(["sparse-eval", "--fraction", "0.2"] +
                  sbm_args(tmp_path / "run"))
    assert rc == 0
    assert (tmp_path / "run" / "metrics_sparse.json").exists()


def test_cli_byte_identical_reruns(tmp_path):
    for name in ("a", "b"):
        rc = cli_main(["train"] + sbm_args(tmp_path / name))
        assert rc == 0
    for fname in ("metrics_losses.csv", "metrics_assignments.csv"):
        fa = (tmp_path / "a" / fname).read_bytes()
        fb = (tmp_path / "b" / fname).read_bytes()
        assert fa == fb
