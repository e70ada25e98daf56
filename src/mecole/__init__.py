"""MeCoLe: unsupervised node clustering via counterfactual contrastive
pairs over decoupled class-dependent / class-invariant embeddings."""

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
