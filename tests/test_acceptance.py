"""Acceptance gate: nine end-to-end criteria, one printed verdict each.

Each test prints a single `[criterion N] PASS/FAIL ...` line so a full run
can be audited from the pytest log alone.
"""

import contextlib
import io
import itertools
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from conftest import finite_diff_check
from mecole import autodiff as ad
from mecole.cli import main as cli_main
from mecole.clustering import Assignment, init_objective, modularity, \
    soft_modularity
from mecole.config import ExperimentConfig
from mecole.contrastive import ContrastiveBatch, contrastive_loss, \
    sample_negatives, synthesize_virtual_node
from mecole.decoupling import DecoupledEmbeddings, discrepancy_loss, \
    predict_link, predict_links_against, reconstruction_loss, rewire
from mecole.graphs import Graph
from mecole.metrics import clustering_accuracy
from mecole.training import run_training, sparse_eval


@pytest.fixture
def verdict(request):
    """Context manager printing one [criterion N] PASS/FAIL line straight
    to the terminal (pytest captures ordinary stdout of passing tests)."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(line):
        if reporter is not None:
            reporter.write_line("\n" + line)
        else:  # fallback when run outside pytest's terminal plugin
            print(line, flush=True)

    @contextmanager
    def _verdict(number, label):
        try:
            yield
        except BaseException:
            emit(f"[criterion {number}] FAIL — {label}")
            raise
        emit(f"[criterion {number}] PASS — {label}")

    _verdict.emit = emit
    return _verdict


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def random_graph(rng, n, min_edges=3):
    while True:
        pairs = {(int(min(u, v)), int(max(u, v)))
                 for u, v in rng.integers(0, n, size=(2 * n, 2)) if u != v}
        if min_edges <= len(pairs) < n * (n - 1) // 2:
            return Graph.from_pairs(n, pairs)


def hard_assignment(hard, K):
    n = len(hard)
    R = np.full((n, K), 0.02 / (K - 1))
    for i, k in enumerate(hard):
        R[i, k] = 0.98
    return Assignment(R=R)


# 1. gradient correctness ------------------------------------------------------

def test_criterion_1_gradient_correctness(verdict):
    t0 = time.time()
    tol = 1e-4
    with verdict(1, "analytic gradients of all four losses match central "
                    "finite differences (rel err < 1e-4, 20 instances each)"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(6, 13))
            d1 = int(rng.integers(2, 9))
            d2 = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            hd = ad.parameter(rng.normal(size=(n, d1)) * 0.5)
            ho = ad.parameter(rng.normal(size=(n, d2)) * 0.5)

            def recon():
                E = DecoupledEmbeddings(hd, ho)
                return reconstruction_loss(g, E, 1,
                                           np.random.default_rng(seed))

            assert finite_diff_check(recon, [hd, ho]) < tol

            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]  # both classes populated
            a = hard_assignment(labels, 2)
            metric = ("l1", "l2", "cosine", "l_inf")[seed % 4]

            def disc():
                E = DecoupledEmbeddings(hd, ho)
                return discrepancy_loss(E, a, metric, 8,
                                        np.random.default_rng(seed))

            assert finite_diff_check(disc, [hd, ho]) < tol

            nodes = rng.permutation(n)
            b = ContrastiveBatch(
                anchor=int(nodes[0]), positives=nodes[1:2],
                negatives=nodes[2:5])

            def contr():
                E = DecoupledEmbeddings(hd, ho)
                return contrastive_loss([b], E, 0.6)

            assert finite_diff_check(contr, [hd]) < tol

            K = int(rng.integers(2, 5))
            W = ad.parameter(rng.normal(size=(n, K)))

            def init_loss():
                return init_objective(g, ad.softmax_rows(W), 1.0)

            assert finite_diff_check(init_loss, [W]) < tol
        elapsed = time.time() - t0
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"


# 2. closed forms -----------------------------------------------------------------

def test_criterion_2_closed_forms(verdict):
    with verdict(2, "contrastive ln K / ln c shifts, bit-exact rewiring, "
                    "and exact link factorization"):
        # equal similarities -> ln K
        for K in (1, 4, 9):
            E = DecoupledEmbeddings.from_arrays(np.ones((K + 2, 3)),
                                                np.ones((K + 2, 1)))
            b = ContrastiveBatch(anchor=0, positives=np.array([1]),
                                 negatives=np.arange(2, 2 + K))
            assert contrastive_loss([b], E, 0.5).item() == \
                pytest.approx(np.log(K), abs=1e-9)

        # duplicating negatives c times shifts by ln c
        rng = np.random.default_rng(0)
        E = DecoupledEmbeddings.from_arrays(rng.normal(size=(8, 4)),
                                            np.zeros((8, 1)))
        neg = [2, 3, 4]
        for c in (2, 3, 5):
            b1 = ContrastiveBatch(anchor=0, positives=np.array([1]),
                                  negatives=np.array(neg))
            bc = ContrastiveBatch(anchor=0, positives=np.array([1]),
                                  negatives=np.array(neg * c))
            shift = contrastive_loss([bc], E, 0.7).item() - \
                contrastive_loss([b1], E, 0.7).item()
            assert shift == pytest.approx(np.log(c), abs=1e-9)

        # rewiring: w' = min(eta, w / e_o) reproduced bit-exactly in the
        # three canonical regimes (cap binds, ratio mid-range, near-one)
        g = Graph.from_pairs(2, [(0, 1)])
        for target in (0.1, 0.5, 0.9999):
            logit = np.log(target / (1 - target))
            ho = np.array([[1.0], [logit]])
            E = DecoupledEmbeddings.from_arrays(np.zeros((2, 1)), ho)
            e_o = float(_sigmoid(ho[0] @ ho[1]))
            expected = min(4.0, 1.0 / max(e_o, 1e-8))
            assert rewire(g, E, 4.0).edges[0][2] == expected

        # factorization Z = Z_d * Z_o to 1e-12
        rng = np.random.default_rng(1)
        E = DecoupledEmbeddings.from_arrays(rng.normal(size=(10, 5)),
                                            rng.normal(size=(10, 4)))
        for u in range(10):
            for v in range(u + 1, 10):
                z, zd, zo = predict_link(u, v, E)
                assert abs(z - zd * zo) < 1e-12


# 3. oracle equivalence --------------------------------------------------------------

def test_criterion_3_oracle_equivalence(verdict):
    with verdict(3, "accuracy matches brute-force permutation max on 1000 "
                    "instances; modularity formulas agree; soft bound holds"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            K = int(rng.integers(2, 6))
            n = int(rng.integers(5, 31))
            pred = rng.integers(0, K, size=n)
            truth = rng.integers(0, K, size=n)
            best = max(
                float((np.array([p[x] for x in pred]) == truth).mean())
                for p in itertools.permutations(range(K)))
            assert clustering_accuracy(pred, truth) == \
                pytest.approx(best, abs=1e-12)

        # per-cluster aggregate vs pairwise-sum modularity
        for seed in range(20):
            g_rng = np.random.default_rng(seed)
            g = random_graph(g_rng, 12)
            labels = g_rng.integers(0, 3, size=12)
            A = g.adjacency.toarray()
            deg = A.sum(axis=1)
            m2 = deg.sum()
            same = labels[:, None] == labels[None, :]
            q_pair = ((A - np.outer(deg, deg) / m2) * same).sum() / m2
            assert modularity(g, labels) == pytest.approx(float(q_pair),
                                                          abs=1e-12)

        # soft modularity on a 4-clique never beats the best hard split
        g4 = Graph.from_pairs(4, list(itertools.combinations(range(4), 2)))
        best_hard = max(modularity(g4, np.array(lab))
                        for lab in itertools.product([0, 1], repeat=4))
        soft_rng = np.random.default_rng(3)
        for _ in range(200):
            raw = soft_rng.random((4, 2))
            C = raw / raw.sum(axis=1, keepdims=True)
            assert soft_modularity(g4, C) <= best_hard + 1e-9


# 4. sampler distributions ------------------------------------------------------------

def test_criterion_4_sampler_distributions(verdict):
    with verdict(4, "negative first-draw law matches Z-proportional "
                    "probabilities (chi-square, a=0.01); masks are i.i.d. "
                    "Bernoulli(p_ce)"):
        # fixed 5-node fixture: anchor 0 with neighbor 1; candidates 2..4
        g = Graph.from_pairs(5, [(0, 1)])
        rng = np.random.default_rng(0)
        hd = rng.normal(size=(5, 3))
        ho = rng.normal(size=(5, 2))
        E = DecoupledEmbeddings.from_arrays(hd, ho)
        a = hard_assignment([0, 0, 1, 1, 1], 2)
        virt = synthesize_virtual_node(0, a, E, 0.5,
                                       np.random.default_rng(1))
        z = predict_links_against(virt.h_d, virt.h_o, E)
        cand = np.array([2, 3, 4])
        probs = z[cand] / z[cand].sum()

        draws = 100_000
        master = np.random.default_rng(42)
        counts = dict.fromkeys(cand.tolist(), 0)
        for _ in range(draws):
            chosen = sample_negatives(virt, E, g, 1, master)
            counts[int(chosen[0])] += 1
        obs = np.array([counts[int(u)] for u in cand], dtype=float)
        exp = probs * draws
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        crit = chi2_dist.ppf(0.99, df=len(cand) - 1)
        assert chi2 < crit, f"chi2 {chi2:.2f} >= {crit:.2f}"

        # Bernoulli mask frequency within 3 sigma (wide mask: conditioning
        # on >= 1 success is negligible at 64 dims)
        dim = 64
        hd_w = np.zeros((2, dim))
        E_w = DecoupledEmbeddings.from_arrays(hd_w, np.zeros((2, 1)))
        a2 = hard_assignment([0, 1], 2)
        p_ce = 0.35
        mask_rng = np.random.default_rng(5)
        trials = 10_000
        masks = np.array([synthesize_virtual_node(0, a2, E_w, p_ce,
                                                  mask_rng).mask
                          for _ in range(trials)], dtype=float)
        freq = masks.mean()
        sd = np.sqrt(p_ce * (1 - p_ce) / masks.size)
        assert abs(freq - p_ce) < 3 * sd

        # independence across virtual nodes: correlation of the same dim in
        # consecutive draws, and across dims within a draw
        rho_across = np.corrcoef(masks[:-1, 0], masks[1:, 0])[0, 1]
        rho_within = np.corrcoef(masks[:, 0], masks[:, 1])[0, 1]
        assert abs(rho_across) < 0.02
        assert abs(rho_within) < 0.02


# 5. end-to-end planted structure -------------------------------------------------------

SBM_FIXTURE = dict(sbm_blocks=4, sbm_block_size=100, sbm_p_in=0.10,
                   sbm_p_out=0.01, sbm_noise_sigma=0.5, K=4)


@pytest.mark.slow
def test_criterion_5_planted_structure(verdict):
    with verdict(5, "planted 4-block graph: mean accuracy >= 0.90 over 3 "
                    "seeds and >= init-only accuracy, under 5 minutes"):
        t0 = time.time()
        accs, inits = [], []
        for seed in (0, 1, 2):
            r = run_training(ExperimentConfig(seed=seed, **SBM_FIXTURE))
            accs.append(r.accuracy)
            inits.append(r.init_accuracy)
        elapsed = time.time() - t0
        mean_acc = float(np.mean(accs))
        mean_init = float(np.mean(inits))
        assert mean_acc >= 0.90, f"mean accuracy {mean_acc:.4f} < 0.90"
        assert mean_acc >= mean_init, \
            f"full loop {mean_acc:.4f} below init-only {mean_init:.4f}"
        assert elapsed < 300.0, f"took {elapsed:.0f}s"


# 6. ablation direction on confounded features -------------------------------------------

@pytest.mark.slow
def test_criterion_6_confound_ablation_direction(verdict):
    with verdict(6, "with a spurious block-correlated signal in the "
                    "invariant dims, the full model beats the non-decoupled "
                    "variant over 5 seeds"):
        # harder fixture than criterion 5 (more inter-block edges, more
        # feature noise) so neither variant sits at ceiling; frequent
        # assignment updates amplify reliance on the learned features,
        # which is exactly where decoupling should matter
        kw = dict(sbm_blocks=4, sbm_block_size=100, sbm_p_in=0.08,
                  sbm_p_out=0.02, sbm_noise_sigma=0.8, sbm_confound=0.5,
                  K=4, assign_warmup=10, assign_every=5)
        base, nodec = [], []
        for seed in range(5):
            base.append(run_training(
                ExperimentConfig(seed=seed, **kw)).accuracy)
            nodec.append(run_training(
                ExperimentConfig(seed=seed, no_decouple=True,
                                 **kw)).accuracy)
        assert float(np.mean(base)) > float(np.mean(nodec)), \
            f"baseline {np.mean(base):.4f} <= no_decouple {np.mean(nodec):.4f}"


# 7. sparse-graph resilience ---------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_sparse_resilience(verdict):
    with verdict(7, "removing the top-degree 30% of nodes degrades accuracy "
                    "by < 0.15 absolute"):
        full, sparse = [], []
        for seed in (0, 1, 2):
            cfg = ExperimentConfig(seed=seed, **SBM_FIXTURE)
            full.append(run_training(cfg).accuracy)
            sparse.append(sparse_eval(
                ExperimentConfig(seed=seed, **SBM_FIXTURE), 0.3).accuracy)
        degradation = float(np.mean(full)) - float(np.mean(sparse))
        assert degradation < 0.15, f"degradation {degradation:.4f} >= 0.15"


# 8. public-data smoke -----------------------------------------------------------------------

def _cora_dir():
    candidate = os.environ.get("MECOLE_CORA_DIR", "data/cora")
    needed = ("edges.txt", "labels.txt")
    if all(os.path.exists(os.path.join(candidate, f)) for f in needed):
        return candidate
    return None


def test_criterion_8_cora_smoke(verdict):
    cora = _cora_dir()
    if cora is None:
        verdict.emit("[criterion 8] SKIP — no Cora files found (set "
                     "MECOLE_CORA_DIR or place edges.txt/labels.txt"
                     "[/features.csv] in data/cora)")
        pytest.skip("Cora dataset not present")
    with verdict(8, "Cora accuracy >= 0.60 within 10 minutes"):
        t0 = time.time()
        feats = os.path.join(cora, "features.csv")
        cfg = ExperimentConfig(
            edge_path=os.path.join(cora, "edges.txt"),
            label_path=os.path.join(cora, "labels.txt"),
            feature_path=feats if os.path.exists(feats) else None,
            K=7, epochs=30, init_epochs=200)
        report = run_training(cfg)
        elapsed = time.time() - t0
        assert report.accuracy >= 0.60, f"accuracy {report.accuracy:.4f}"
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


# 9. determinism ------------------------------------------------------------------------------

def test_criterion_9_determinism(verdict, tmp_path):
    with verdict(9, "two `train --seed 7` runs produce byte-identical "
                    "numeric outputs"):
        args = ["--set", "sbm_blocks=2", "--set", "sbm_block_size=20",
                "--set", "sbm_p_in=0.3", "--set", "sbm_p_out=0.02",
                "--set", "epochs=8", "--set", "init_epochs=60",
                "--set", "hidden=16", "--set", "dim_d=8",
                "--set", "dim_o=8", "--set", "disc_pairs=32",
                "--set", "per_class_anchors=2", "--set", "negatives_m=3",
                "--seed", "7"]
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(["train"] + args + ["--out", str(out)]) == 0
            payload = json.loads((out / "metrics.json").read_text())
            payload.pop("wall_clock_s")      # timing varies by design
            payload["config"].pop("out_dir")  # distinct dirs, non-numeric
            blobs.append((json.dumps(payload, sort_keys=True).encode(),
                          (out / "metrics_losses.csv").read_bytes(),
                          (out / "metrics_assignments.csv").read_bytes()))
        assert blobs[0] == blobs[1]
