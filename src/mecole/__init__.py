"""MeCoLe: unsupervised node clustering via counterfactual contrastive
pairs over decoupled class-dependent / class-invariant embeddings."""

import ctypes
import os


def pin_heap_thresholds(libc, environ):
    """Pin glibc's mmap and trim thresholds (mallopt's -3, -1) at 32 and 64
    MiB, so freed arrays stay mapped; not if `environ` sets glibc's own."""
    user = {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & set(environ)
    if user or "glibc.malloc." in environ.get("GLIBC_TUNABLES", "") or \
            not hasattr(libc, "mallopt"):
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-3, 32 << 20)
    libc.mallopt(-1, 64 << 20)


if os.name == "posix":
    pin_heap_thresholds(ctypes.CDLL(None), os.environ)

from .clustering import Assignment, init_assignments, modularity, \
    update_assignments
from .config import ExperimentConfig
from .contrastive import ContrastiveBatch, VirtualNode, contrastive_loss, \
    sample_anchors, sample_negatives, synthesize_virtual_node
from .decoupling import DecoupledEmbeddings, DecoupledEncoder, \
    discrepancy_loss, predict_link, reconstruction_loss, rewire
from .errors import ConfigError, DataError, MecoleError, NumericError
from .graphs import AttributeBag, Graph, GraphBundle, SBMConfig, \
    build_knn_similarity_graph, generate_sbm, load_edge_list, load_features, \
    tfidf_class_features
from .metrics import MetricsReport, clustering_accuracy, nmi
from .training import run_ablation_grid, run_training, sparse_eval

__version__ = "0.1.0"
