"""Full training loop, sparse-graph protocol, and the ablation grid."""

from __future__ import annotations

import csv
import logging
import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import contrastive as ct
from . import decoupling as dc
from .clustering import init_assignments, modularity, update_assignments
from .config import ExperimentConfig
from .errors import ConfigError, DataError, MecoleError
from .graphs import AttributeBag, GraphBundle, SBMConfig, \
    build_knn_similarity_graph, generate_sbm, load_attribute_bags, \
    load_edge_list, load_features, load_labels, load_vocabulary, \
    tfidf_class_features
from .metrics import MetricsReport, clustering_accuracy, nmi

logger = logging.getLogger("mecole.training")

__all__ = ["Dataset", "sbm_config", "load_dataset", "key_attribute_channel",
           "run_training", "sparse_eval", "run_ablation_grid",
           "export_assignments", "write_report", "write_grid_csv"]


@dataclass
class Dataset:
    bundle: GraphBundle
    X: np.ndarray | None
    labels: np.ndarray | None
    bags: AttributeBag | None = None


def sbm_config(cfg: ExperimentConfig):
    """The planted-partition settings of a synthetic run; a data error when
    they do not describe at least two non-empty blocks."""
    if cfg.sbm_blocks < 2 or cfg.sbm_block_size < 1:
        raise DataError("no edge_path given and SBM config incomplete")
    return SBMConfig(blocks=cfg.sbm_blocks,
                     block_sizes=(cfg.sbm_block_size,) * cfg.sbm_blocks,
                     p_in=cfg.sbm_p_in, p_out=cfg.sbm_p_out,
                     dep_dim=cfg.sbm_dep_dim, inv_dim=cfg.sbm_inv_dim,
                     noise_sigma=cfg.sbm_noise_sigma,
                     confound_strength=cfg.sbm_confound, seed=cfg.seed)


def load_dataset(cfg: ExperimentConfig):
    """Materialize the graph bundle, features, and labels for a run."""
    if cfg.uses_sbm:
        graph, X, labels = generate_sbm(sbm_config(cfg))
    else:
        graph = load_edge_list(cfg.edge_path)
        X = load_features(cfg.feature_path, graph.n) \
            if cfg.feature_path else None
        labels = load_labels(cfg.label_path) if cfg.label_path else None
        if labels is not None and len(labels) != graph.n:
            raise DataError("label count does not match node count")

    aux = {}
    if cfg.aux_edge_path and not cfg.drop_gv:
        aux["G_V"] = load_edge_list(cfg.aux_edge_path, n_hint=graph.n)
    if X is not None and cfg.knn_k > 0 and not cfg.drop_gx:
        aux["G_X"] = build_knn_similarity_graph(X, cfg.knn_k, cfg.eta_sim)
    bags = None
    if cfg.bags_path:
        indptr, tokens = load_attribute_bags(cfg.bags_path)
        if len(indptr) - 1 != graph.n:
            raise DataError("attribute bag count does not match node count")
        bags = AttributeBag.from_rows(indptr, tokens,
                                      load_vocabulary(cfg.vocab_path))
    return Dataset(bundle=GraphBundle(primary=graph, auxiliary=aux),
                   X=X, labels=labels, bags=bags)


def _mask_features(X, rate, rng):
    mask = rng.random(X.shape) >= rate
    return X * mask


def _epoch_loss(cfg, epoch, graph, E, assignment, mlp, rng, rng_cl):
    """One epoch's loss on the tape over the embeddings `E`, and the
    values of its L1, weighted L2 and LCE terms."""
    l1 = dc.reconstruction_loss(graph, E, cfg.neg_ratio, rng, mlp=mlp)
    loss = l1
    l2_val = 0.0
    if E.ho.shape[1] > 0 and \
            sum(members.size > 0 for members in assignment.classes) >= 2:
        l2 = dc.discrepancy_loss(E, assignment, cfg.disc_metric,
                                 cfg.disc_pairs, rng)
        loss = ad.add(loss, ad.mul(l2, cfg.disc_weight))
        l2_val = l2.item() * cfg.disc_weight

    lce_val = 0.0
    if not cfg.no_cl:
        if cfg.graph_augment:
            batches = ct.augment_batches(cfg, assignment, graph, rng_cl)
        else:
            batches = ct.epoch_batches(cfg, assignment, E, graph,
                                       cfg.p_ce_at(epoch), rng_cl)
        if batches:
            lce = ct.contrastive_loss(
                batches, E, cfg.tau,
                include_positive_in_denominator=cfg.infonce_standard)
            lce_val = lce.item()
            if cfg.alpha_ce > 0:
                loss = ad.add(loss, ad.mul(lce, cfg.alpha_ce))
    return loss, l1.item(), l2_val, lce_val


def key_attribute_channel(bags, assignment, cfg):
    """`[G_M]`, the key-attribute graph: the k-NN graph of the tf-idf class
    features of `assignment` (the initial one), thresholded like the
    content graph; `[]` when it has no edge."""
    m_feats = tfidf_class_features(bags, assignment)
    g_m = build_knn_similarity_graph(m_feats, max(cfg.knn_k, 1), cfg.eta_sim)
    return [g_m] if g_m.num_edges > 0 else []


def run_training(cfg: ExperimentConfig, dataset: Dataset | None = None,
                 variant="baseline", init=None):
    """Execute the full iteration loop and return a MetricsReport.

    `init`, when given, is the `Assignment` that `init_assignments` would
    train from `cfg` on the dataset's primary graph and X; the ablation
    grid passes one init to all its cells.
    """
    t0 = time.time()
    # separate streams so contrastive sampling cannot perturb the loss
    # trajectory of the reconstruction/discrepancy terms (alpha_ce = 0
    # must match no_cl exactly)
    rng = np.random.default_rng([cfg.seed, 0])
    rng_cl = np.random.default_rng([cfg.seed, 1])
    if dataset is None:
        dataset = load_dataset(cfg)
    bundle, X, labels = dataset.bundle, dataset.X, dataset.labels
    graph = bundle.primary

    dim_o = 0 if cfg.no_decouple else cfg.dim_o
    assignment = init if init is not None else init_assignments(graph, X, cfg)
    init_acc = None
    if labels is not None:
        init_acc = clustering_accuracy(assignment.hard, labels)
        logger.info("init accuracy %.4f", init_acc)

    channels = [graph] + list(bundle.auxiliary.values())
    if dataset.bags is not None:
        channels += key_attribute_channel(dataset.bags, assignment, cfg)
    raw_hats = [ad.normalize_adjacency(g) for g in channels]
    in_dim = X.shape[1] if X is not None else None
    encoder = dc.DecoupledEncoder(in_dim, cfg.hidden, cfg.dim_d, dim_o,
                                  len(channels), cfg.seed, n=graph.n)
    params = encoder.parameters()
    mlp = None
    if cfg.mlp_predictor:
        mlp = dc.MlpPredictor(cfg.dim_d, dim_o, 32, cfg.seed + 1)
        params = params + mlp.parameters()
    opt = ad.Adam(params, lr=cfg.lr)

    report = MetricsReport(seed=cfg.seed, config=cfg.to_dict(),
                           variant=variant, init_accuracy=init_acc)
    weights_state = None
    E = None
    for epoch in range(cfg.epochs):
        # rewire the dependent channel using last epoch's frozen H_o
        if E is not None and dim_o > 0:
            rewired = dc.rewire(graph, E, cfg.eta)
            hats_d = [ad.normalize_adjacency(rewired)] + raw_hats[1:]
        else:
            hats_d = raw_hats
        X_in = X
        if cfg.graph_augment and X is not None:
            X_in = _mask_features(X, 0.2, rng_cl)
        E = encoder.encode(hats_d, raw_hats, X_in)
        loss, l1_val, l2_val, lce_val = _epoch_loss(
            cfg, epoch, graph, E, assignment, mlp, rng, rng_cl)
        opt.zero_grad()
        loss.backward()
        opt.step()

        total = l1_val + l2_val + cfg.alpha_ce * lce_val
        report.epoch_losses.append(
            {"epoch": epoch, "L1": l1_val, "L2": l2_val,
             "LCE": lce_val, "L": total})
        logger.debug("epoch %d: L1=%.4f L2=%.4f LCE=%.4f L=%.4f",
                     epoch, l1_val, l2_val, lce_val, total)

        due = epoch >= cfg.assign_warmup and \
            (epoch - cfg.assign_warmup) % cfg.assign_every == 0
        if due or epoch == cfg.epochs - 1 and epoch >= cfg.assign_warmup:
            assignment, weights_state = update_assignments(
                E, assignment, cfg.q_confidence, prev_weights=weights_state)

    pred = assignment.hard
    if labels is not None:
        report.accuracy = clustering_accuracy(pred, labels)
        report.nmi = nmi(pred, labels)
    if graph.num_edges > 0:
        report.modularity = modularity(graph, pred)
    report.wall_clock_s = time.time() - t0
    report.final_assignment = assignment
    return report


def export_assignments(path, assignment):
    """CSV export: node_id, argmax class, K soft values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "class"] +
                        [f"r{k}" for k in range(assignment.K)])
        for i in range(assignment.n):
            writer.writerow([i, int(assignment.hard[i])] +
                            [f"{v:.6f}" for v in assignment.R[i]])


def write_report(out_dir, report, name="metrics"):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.json"), "w",
              encoding="utf-8") as fh:
        fh.write(report.to_json())
    with open(os.path.join(out_dir, f"{name}_losses.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "L1", "L2", "LCE", "L"])
        for row in report.epoch_losses:
            writer.writerow([row["epoch"], row["L1"], row["L2"],
                             row["LCE"], row["L"]])
    if getattr(report, "final_assignment", None) is not None:
        export_assignments(os.path.join(out_dir, f"{name}_assignments.csv"),
                           report.final_assignment)


def sparse_eval(cfg: ExperimentConfig, fraction):
    """Drop the top-degree fraction of nodes, retrain, evaluate the rest."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError("fraction must lie in (0, 1)")
    dataset = load_dataset(cfg)
    graph = dataset.bundle.primary
    remove = int(np.ceil(fraction * graph.n))
    order = np.argsort(-graph.degrees, kind="stable")
    keep = np.sort(order[remove:])
    sub = graph.subgraph(keep)
    if sub.num_edges == 0:
        raise DataError("sparse protocol removed every edge")
    aux = {name: g.subgraph(keep)
           for name, g in dataset.bundle.auxiliary.items()}
    X = dataset.X[keep] if dataset.X is not None else None
    labels = dataset.labels[keep] if dataset.labels is not None else None
    bags = None if dataset.bags is None else replace(
        dataset.bags, counts=dataset.bags.counts[keep])
    sparse_data = Dataset(bundle=GraphBundle(primary=sub, auxiliary=aux),
                          X=X, labels=labels, bags=bags)
    return run_training(cfg, dataset=sparse_data, variant="sparse")


ABLATION_FLAGS = ("no_decouple", "neg_uniform", "mlp_predictor", "no_cl",
                  "graph_augment", "drop_gv", "drop_gx")


def run_ablation_grid(cfg: ExperimentConfig):
    """Baseline + one-flag variants + the discrepancy-metric grid.

    The cells share their inputs: the dataset is loaded once per
    `(drop_gv, drop_gx)`, and the modularity init and, with attribute
    bags, the key-attribute channel `G_M` are built once, from `cfg`, by
    the first cell whose dataset loads. `G_M` goes last in each cell's
    auxiliary graphs, where `run_training` would append it. No flag or
    metric touches the primary graph, X, the bags or the config fields
    the init and `G_M` read. Only successes are kept, so a cell whose
    load, init or `G_M` fails records the error and the next cell that
    needs it tries again.

    Those inputs are prepared here, in cell order; the cells then train
    in parallel (`_train_cells`). Reports come back in cell order.
    """
    cells = [("baseline", cfg)]
    for flag in ABLATION_FLAGS:
        if flag == "drop_gv" and not cfg.aux_edge_path:
            continue
        if flag == "drop_gx" and cfg.knn_k == 0:
            continue
        cells.append((flag, replace(cfg, **{flag: True})))
    for metric in dc.DISCREPANCY_METRICS:
        if metric == cfg.disc_metric:
            continue
        cells.append((f"disc_{metric}", replace(cfg, disc_metric=metric)))

    if cfg.uses_sbm:
        sbm_config(cfg)  # a bad synthetic config fails the run, not each cell
    datasets, init, key_channel = {}, None, None
    reports, slots, jobs = [None] * len(cells), [], []
    for slot, (name, cell_cfg) in enumerate(cells):
        try:
            data_key = (cell_cfg.drop_gv, cell_cfg.drop_gx)
            if data_key not in datasets:
                datasets[data_key] = load_dataset(cell_cfg)
            dataset = datasets[data_key]
            if init is None:
                init = init_assignments(dataset.bundle.primary, dataset.X, cfg)
            if dataset.bags is not None:
                if key_channel is None:
                    key_channel = {"G_M": g for g in key_attribute_channel(
                        dataset.bags, init, cfg)}
                bundle = dataset.bundle
                dataset = replace(dataset, bags=None, bundle=GraphBundle(
                    bundle.primary, {**bundle.auxiliary, **key_channel}))
        except MecoleError as exc:
            reports[slot] = _failed_cell(name, cell_cfg, exc)
        else:
            slots.append(slot)
            jobs.append((name, cell_cfg, dataset, init))
    for slot, report in zip(slots, _train_cells(jobs)):
        reports[slot] = report
    return reports


def _failed_cell(name, cell_cfg, exc):
    logger.warning("ablation cell '%s' failed: %s", name, exc)
    return MetricsReport(seed=cell_cfg.seed, config=cell_cfg.to_dict(),
                         variant=name, error=str(exc))


# the prepared cells of the grid being trained, one grid at a time; forked
# workers inherit them, so only an index goes to a worker and only its
# report comes back
_grid_jobs = []


def _train_cell(index):
    """`run_training` on prepared cell `index`; a `MecoleError` becomes the
    cell's failed report, and any other exception reaches the caller."""
    name, cell_cfg, dataset, init = _grid_jobs[index]
    try:
        return run_training(cell_cfg, dataset, variant=name, init=init)
    except MecoleError as exc:
        return _failed_cell(name, cell_cfg, exc)


def _train_cells(jobs):
    """The reports of `_train_cell` over `jobs`, in order, from one forked
    worker process per usable CPU, up to one per job. With one worker, or
    without CPU affinity (macOS; Windows, which has no `fork` either), the
    cells train here, one after another. A worker that dies raises
    `BrokenProcessPool`."""
    workers = min(len(jobs), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else 1)
    _grid_jobs[:] = jobs
    try:
        if workers <= 1:
            return list(map(_train_cell, range(len(jobs))))
        with ProcessPoolExecutor(workers, mp.get_context("fork")) as pool:
            return list(pool.map(_train_cell, range(len(jobs))))
    finally:
        _grid_jobs.clear()


def write_grid_csv(path, reports):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "accuracy", "nmi", "modularity",
                         "error"])
        for r in reports:
            writer.writerow([r.variant, r.seed, r.accuracy, r.nmi,
                             r.modularity, r.error or ""])
