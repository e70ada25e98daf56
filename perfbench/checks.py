"""Output checks computed apart from mecole.

Nothing here imports mecole. Scores are recomputed from plain arrays (hard
labels, planted labels, edge endpoint arrays) and compared with the values
mecole reports; the layer-boundary property checks take arrays too, so the
tracer can feed them whatever mecole passed across a boundary.

Every check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
from scipy.optimize import linear_sum_assignment

# mecole writes soft assignments with six decimals, so a row read back from
# its CSV export may miss 1 by up to K * 0.5e-6 on top of the in-memory slack
ROW_SUM_TOL = 1e-6
CSV_ROUNDING = 0.5e-6
SCORE_TOL = 1e-9


# scores -------------------------------------------------------------

def contingency(pred, truth):
    """Counts of (predicted cluster, planted class) over labelled nodes
    (truth >= 0)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth differ in length")
    keep = truth >= 0
    _, p = np.unique(pred[keep], return_inverse=True)
    _, t = np.unique(truth[keep], return_inverse=True)
    table = np.zeros((p.max() + 1, t.max() + 1), dtype=np.int64)
    np.add.at(table, (p, t), 1)
    return table


def accuracy(pred, truth):
    """Best one-to-one matching of clusters to classes, as a fraction."""
    table = contingency(pred, truth)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum() / table.sum())


def nmi(pred, truth):
    """Mutual information over the arithmetic mean of the two entropies."""
    table = contingency(pred, truth).astype(np.float64)
    n = table.sum()
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    h_p = -float(np.sum(a / n * np.log(a / n)))
    h_t = -float(np.sum(b / n * np.log(b / n)))
    if h_p == 0.0 or h_t == 0.0:
        return 0.0
    i, j = np.nonzero(table)
    nij = table[i, j]
    mi = float(np.sum(nij / n * np.log(nij * n / (a[i] * b[j]))))
    return mi / ((h_p + h_t) / 2.0)


def modularity(edge_u, edge_v, labels):
    """Newman modularity of a hard labelling of an unweighted undirected
    graph given by its edge endpoint arrays (each edge once)."""
    u = np.asarray(edge_u, dtype=np.int64)
    v = np.asarray(edge_v, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    m = float(len(u))
    k = int(labels.max()) + 1
    deg = np.bincount(u, minlength=len(labels)) + \
        np.bincount(v, minlength=len(labels))
    same = labels[u] == labels[v]
    intra = np.bincount(labels[u][same], minlength=k)
    d_c = np.bincount(labels, weights=deg, minlength=k)
    return float(np.sum(intra / m - (d_c / (2.0 * m)) ** 2))


def scores(pred, truth, edge_u, edge_v):
    return {"accuracy": accuracy(pred, truth), "nmi": nmi(pred, truth),
            "modularity": modularity(edge_u, edge_v, pred)}


# output checks ------------------------------------------------------

def check_agreement(ours, reported):
    """Accuracy must match exactly; NMI and modularity within 1e-9."""
    errors = []
    for key in ("accuracy", "nmi", "modularity"):
        theirs = reported.get(key)
        if theirs is None:
            errors.append(f"{key}: mecole reported none")
            continue
        tol = 0.0 if key == "accuracy" else SCORE_TOL
        if not abs(ours[key] - theirs) <= tol:
            errors.append(f"{key}: recomputed {ours[key]!r}, "
                          f"mecole reported {theirs!r}")
    return errors


def check_assignment_rows(R, tol=ROW_SUM_TOL):
    R = np.asarray(R, dtype=np.float64)
    errors = []
    if R.ndim != 2 or R.shape[1] < 2:
        return [f"assignment matrix has shape {R.shape}"]
    if not np.all(np.isfinite(R)):
        errors.append("assignment holds non-finite entries")
    elif np.any(R < 0.0) or np.any(R > 1.0):
        errors.append("assignment entry outside [0, 1]")
    worst = float(np.max(np.abs(R.sum(axis=1) - 1.0)))
    if not worst <= tol:
        errors.append(f"assignment row sums miss 1 by {worst:.3g}")
    return errors


def check_losses(losses, epochs):
    """`losses` is an (epochs, columns) array of per-epoch loss terms."""
    losses = np.asarray(losses, dtype=np.float64)
    errors = []
    if losses.shape[0] != epochs:
        errors.append(f"{losses.shape[0]} loss rows for {epochs} epochs")
    if not np.all(np.isfinite(losses)):
        errors.append("non-finite epoch loss")
    return errors


def check_floor(acc, floor):
    return [] if acc >= floor else [f"accuracy {acc:.4f} below {floor}"]


def check_training(hard, R, losses, reported, truth, edge_u, edge_v,
                   epochs, floor, row_tol=ROW_SUM_TOL):
    """All checks of one training's outputs; returns (scores, errors)."""
    ours = scores(hard, truth, edge_u, edge_v)
    errors = check_agreement(ours, reported)
    errors += check_assignment_rows(R, row_tol)
    errors += check_losses(losses, epochs)
    errors += check_floor(ours["accuracy"], floor)
    return ours, errors


# mecole's file outputs ----------------------------------------------

def read_assignments(path):
    """(hard, R) from an export with header node_id,class,r0..,relevant."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    r_cols = [i for i, h in enumerate(header) if h.startswith("r")
              and h[1:].isdigit()]
    if header[:2] != ["node_id", "class"] or not r_cols:
        raise ValueError(f"{path}: unexpected header {header}")
    ids = [int(r[0]) for r in body]
    if ids != list(range(len(body))):
        raise ValueError(f"{path}: node ids are not 0..n-1 in order")
    hard = np.array([int(r[1]) for r in body], dtype=np.int64)
    R = np.array([[float(r[i]) for i in r_cols] for r in body])
    return hard, R


def read_losses(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["epoch", "L1", "L2", "LCE", "L"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def check_cell_files(out_dir, variant, truth, edge_u, edge_v, epochs,
                     floor):
    """Check one ablation cell from its three files alone.

    Returns (scores or None, failed, errors): `failed` is True when mecole
    recorded an error for the cell instead of results.
    """
    base = os.path.join(out_dir, f"metrics_{variant}")
    try:
        with open(base + ".json", encoding="utf-8") as fh:
            reported = json.load(fh)
        if reported.get("error"):
            return None, True, []
        hard, R = read_assignments(base + "_assignments.csv")
        losses = read_losses(base + "_losses.csv")
    except (OSError, ValueError, IndexError) as exc:
        return None, False, [f"{variant}: {exc}"]
    if hard.shape != truth.shape:
        return None, False, [f"{variant}: {len(hard)} assignment rows for "
                             f"{len(truth)} nodes"]
    if np.any(hard < 0) or np.any(hard >= R.shape[1]):
        return None, False, [f"{variant}: class column out of range"]
    errors = []
    if np.any(R[np.arange(len(hard)), hard] < R.max(axis=1)):
        errors.append("class column is not the row maximum")
    tol = ROW_SUM_TOL + R.shape[1] * CSV_ROUNDING
    ours, more = check_training(hard, R, losses, reported, truth, edge_u,
                                edge_v, epochs, floor, row_tol=tol)
    return ours, False, [f"{variant}: {e}" for e in errors + more]


# layer-boundary properties ------------------------------------------

def check_rewired_weights(weights, eta):
    """Every rewired edge weight lies in (0, eta]."""
    w = np.asarray(weights, dtype=np.float64)
    bad = ~((w > 0.0) & (w <= eta))
    if bad.any():
        return [f"rewired weight {w[bad][0]!r} outside (0, {eta}]"]
    return []


def check_non_edges(pairs, n, edge_u, edge_v):
    """Every sampled pair joins two distinct nodes that share no edge.
    `edge_u`/`edge_v` may list each edge once or in both directions."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    a = np.minimum(pairs[:, 0], pairs[:, 1])
    b = np.maximum(pairs[:, 0], pairs[:, 1])
    if np.any(a == b):
        return ["sampled non-edge is a self-pair"]
    if np.any(a < 0) or np.any(b >= n):
        return ["sampled non-edge names a node out of range"]
    eu = np.asarray(edge_u, dtype=np.int64)
    ev = np.asarray(edge_v, dtype=np.int64)
    edges = np.minimum(eu, ev) * n + np.maximum(eu, ev)
    hit = np.isin(a * n + b, edges)
    if hit.any():
        i = int(np.flatnonzero(hit)[0])
        return [f"sampled non-edge ({a[i]}, {b[i]}) is an edge"]
    return []


def check_negatives(negatives, anchor, neighbors):
    """No hard negative lies in the anchor's closed neighbourhood."""
    closed = np.append(np.asarray(neighbors, dtype=np.int64), anchor)
    inside = np.isin(np.asarray(negatives, dtype=np.int64), closed)
    if inside.any():
        return [f"negative of anchor {anchor} lies in its closed "
                f"neighbourhood"]
    return []


def check_virtual_node(h_d, h_o, mask, anchor, donor, hd, ho, hard):
    """A virtual node keeps the anchor's h_o exactly and takes each masked
    h_d dimension from a donor of another class."""
    errors = []
    mask = np.asarray(mask, dtype=bool)
    if not np.array_equal(h_o, ho[anchor]):
        errors.append(f"virtual node of {anchor} changed h_o")
    if hard[donor] == hard[anchor]:
        errors.append(f"donor {donor} shares anchor {anchor}'s class")
    if not mask.any():
        errors.append(f"virtual node of {anchor} masks no dimension")
    if not np.array_equal(np.asarray(h_d)[mask], hd[donor][mask]):
        errors.append(f"masked h_d of {anchor} not taken from donor {donor}")
    if not np.array_equal(np.asarray(h_d)[~mask], hd[anchor][~mask]):
        errors.append(f"unmasked h_d of {anchor} differs from the anchor")
    return errors
