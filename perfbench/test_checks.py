"""Tests for the benchmark's checkers: hand-computed scores on small
graphs, property checks on good and bad boundary values, and corrupted
mecole outputs that must fail.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import math

import numpy as np
import pytest

import checks

# two triangles 0-1-2 and 3-4-5 joined by the edge 2-3
TRIANGLES_U = np.array([0, 0, 1, 3, 3, 4, 2])
TRIANGLES_V = np.array([1, 2, 2, 4, 5, 5, 3])


def test_modularity_two_triangles():
    # m = 7, each side: 3 internal edges, degree sum 7
    q = checks.modularity(TRIANGLES_U, TRIANGLES_V, [0, 0, 0, 1, 1, 1])
    assert q == pytest.approx(2 * (3 / 7 - (7 / 14) ** 2), abs=1e-15)
    assert q == pytest.approx(5 / 14, abs=1e-15)


def test_modularity_single_cluster_is_zero():
    q = checks.modularity(TRIANGLES_U, TRIANGLES_V, [0] * 6)
    assert q == pytest.approx(0.0, abs=1e-15)


def test_accuracy_best_matching():
    # clusters 1->0 (2 nodes), 0->1 (2), 2->2 (1): 5 of 6
    assert checks.accuracy([1, 1, 0, 0, 2, 2], [0, 0, 1, 1, 1, 2]) == 5 / 6


def test_accuracy_ignores_unlabelled_and_permutation():
    assert checks.accuracy([2, 2, 0, 0, 1], [0, 0, 1, 1, -1]) == 1.0


def test_nmi_hand_computed():
    # table rows (pred) [[2, 1], [0, 1]], n = 4
    h_p = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    h_t = math.log(2)
    mi = 0.5 * math.log(4 / 3) + 0.25 * math.log(2 / 3) + \
        0.25 * math.log(2)
    got = checks.nmi([0, 0, 0, 1], [0, 0, 1, 1])
    assert got == pytest.approx(mi / ((h_p + h_t) / 2), abs=1e-15)


def test_nmi_extremes():
    assert checks.nmi([5, 5, 7, 7], [0, 0, 1, 1]) == pytest.approx(1.0)
    assert checks.nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)
    assert checks.nmi([3, 3, 3, 3], [0, 0, 1, 1]) == 0.0


def test_agreement_exact_accuracy_and_tolerances():
    ours = {"accuracy": 0.75, "nmi": 0.5, "modularity": 0.25}
    assert checks.check_agreement(ours, dict(ours)) == []
    near = {"accuracy": 0.75, "nmi": 0.5 + 5e-10, "modularity": 0.25}
    assert checks.check_agreement(ours, near) == []
    assert checks.check_agreement(
        ours, {**ours, "accuracy": float(np.nextafter(0.75, 1.0))})
    assert checks.check_agreement(ours, {**ours, "nmi": 0.5 + 2e-9})
    assert checks.check_agreement(ours, {**ours, "modularity": None})


def test_assignment_rows():
    good = np.array([[0.25, 0.75], [1.0, 0.0]])
    assert checks.check_assignment_rows(good) == []
    assert checks.check_assignment_rows([[0.5, 0.6], [1.0, 0.0]])
    assert checks.check_assignment_rows([[1.2, -0.2], [1.0, 0.0]])
    assert checks.check_assignment_rows([[np.nan, 1.0], [1.0, 0.0]])


def test_losses_and_floor():
    assert checks.check_losses([[1.0, 0.5]] * 3, 3) == []
    assert checks.check_losses([[1.0, 0.5]] * 2, 3)
    assert checks.check_losses([[1.0, np.inf]] * 3, 3)
    assert checks.check_floor(0.5, 0.4) == []
    assert checks.check_floor(0.3, 0.4)


# a cell written the way `mecole ablate` writes it ---------------------

LABELS = np.array([0, 0, 0, 1, 1, 1])


def write_cell(tmp_path, variant="baseline", R=None, losses=None, **over):
    if R is None:
        R = np.array([[0.9, 0.1]] * 3 + [[0.2, 0.8]] * 3)
    hard = R.argmax(axis=1)
    if losses is None:
        losses = [[1.0, 0.1, -0.5, 0.6], [0.9, 0.1, -0.6, 0.4]]
    report = {"variant": variant, "error": None,
              **checks.scores(hard, LABELS, TRIANGLES_U, TRIANGLES_V),
              **over}
    base = tmp_path / f"metrics_{variant}"
    base.with_suffix(".json").write_text(json.dumps(report))
    rows = ["epoch,L1,L2,LCE,L"] + [f"{e}," + ",".join(map(repr, r))
                                    for e, r in enumerate(losses)]
    (tmp_path / f"metrics_{variant}_losses.csv").write_text(
        "\n".join(rows) + "\n")
    rows = ["node_id,class,r0,r1,relevant"] + [
        f"{i},{hard[i]},{r[0]:.6f},{r[1]:.6f},1" for i, r in enumerate(R)]
    (tmp_path / f"metrics_{variant}_assignments.csv").write_text(
        "\n".join(rows) + "\n")


def check_cell(tmp_path, floor=0.5):
    return checks.check_cell_files(str(tmp_path), "baseline", LABELS,
                                   TRIANGLES_U, TRIANGLES_V, 2, floor)


def test_cell_files_pass(tmp_path):
    write_cell(tmp_path)
    ours, failed, errors = check_cell(tmp_path)
    assert errors == [] and not failed
    assert ours["accuracy"] == 1.0
    assert ours["modularity"] == pytest.approx(5 / 14)


@pytest.mark.parametrize("corruption", [
    dict(accuracy=0.5),
    dict(nmi=0.9),
    dict(modularity=0.3),
    dict(R=np.array([[0.9, 0.2]] * 3 + [[0.2, 0.8]] * 3)),
    dict(losses=[[1.0, 0.1, float("nan"), 0.6], [0.9, 0.1, -0.6, 0.4]]),
    dict(losses=[[1.0, 0.1, -0.5, 0.6]]),
])
def test_corrupted_cell_fails(tmp_path, corruption):
    write_cell(tmp_path, **corruption)
    _, failed, errors = check_cell(tmp_path)
    assert errors and not failed


def test_cell_below_floor_fails(tmp_path):
    write_cell(tmp_path)
    assert check_cell(tmp_path, floor=1.01)[2]


def test_cell_class_out_of_range_fails(tmp_path):
    write_cell(tmp_path)
    path = tmp_path / "metrics_baseline_assignments.csv"
    path.write_text(path.read_text().replace("\n5,1,", "\n5,2,"))
    assert check_cell(tmp_path)[2]


def test_missing_cell_file_fails(tmp_path):
    write_cell(tmp_path)
    (tmp_path / "metrics_baseline_losses.csv").unlink()
    assert check_cell(tmp_path)[2]


def test_cell_with_recorded_error_counts_as_failed(tmp_path):
    (tmp_path / "metrics_baseline.json").write_text(
        json.dumps({"variant": "baseline", "error": "diverged"}))
    assert check_cell(tmp_path) == (None, True, [])


# layer-boundary properties ------------------------------------------

def test_rewired_weights():
    assert checks.check_rewired_weights([1e-9, 2.0, 4.0], 4.0) == []
    assert checks.check_rewired_weights([0.0, 1.0], 4.0)
    assert checks.check_rewired_weights([4.000001], 4.0)
    assert checks.check_rewired_weights([np.nan], 4.0)


def test_non_edges():
    u, v = [0, 1], [1, 2]  # path 0-1-2-3
    assert checks.check_non_edges([[0, 2], [3, 1], [0, 3]], 4, u, v) == []
    assert checks.check_non_edges([[1, 0]], 4, u, v)
    assert checks.check_non_edges([[2, 2]], 4, u, v)
    assert checks.check_non_edges([[0, 4]], 4, u, v)


def test_negatives():
    assert checks.check_negatives([3, 4], 0, [1, 2]) == []
    assert checks.check_negatives([3, 0], 0, [1, 2])
    assert checks.check_negatives([2], 0, [1, 2])


def test_virtual_node():
    hd = np.arange(12, dtype=float).reshape(3, 4)
    ho = np.array([[0.5, -1.0], [2.0, 3.0], [7.0, 8.0]])
    hard = np.array([0, 0, 1])
    mask = np.array([True, False, True, False])
    h_d = np.where(mask, hd[2], hd[0])
    ok = dict(h_d=h_d, h_o=ho[0].copy(), mask=mask, anchor=0, donor=2,
              hd=hd, ho=ho, hard=hard)
    assert checks.check_virtual_node(**ok) == []
    assert checks.check_virtual_node(**{**ok, "h_o": ho[0] + 1e-12})
    assert checks.check_virtual_node(**{**ok, "donor": 1,
                                        "h_d": np.where(mask, hd[1], hd[0])})
    assert checks.check_virtual_node(**{**ok, "h_d": hd[0]})
    assert checks.check_virtual_node(**{**ok, "mask": np.zeros(4, bool),
                                        "h_d": hd[0]})
