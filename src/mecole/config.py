"""Experiment configuration: dataclass, flat key=value files, overrides."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError

__all__ = ["ExperimentConfig", "parse_config_file", "apply_overrides"]


@dataclass
class ExperimentConfig:
    # data (file-based runs)
    edge_path: str | None = None
    feature_path: str | None = None
    label_path: str | None = None
    aux_edge_path: str | None = None   # G_V edge list
    bags_path: str | None = None       # attribute bags (G_M source)
    vocab_path: str | None = None      # token embedding table

    # data (synthetic runs)
    sbm_blocks: int = 0
    sbm_block_size: int = 0
    sbm_p_in: float = 0.1
    sbm_p_out: float = 0.01
    sbm_dep_dim: int = 8
    sbm_inv_dim: int = 8
    sbm_noise_sigma: float = 0.5
    sbm_confound: float = 0.0

    # model
    K: int = 2
    dim_d: int = 16
    dim_o: int = 32
    hidden: int = 64

    # training
    epochs: int = 40
    lr: float = 0.01
    alpha_ce: float = 1.0
    neg_ratio: int = 1
    disc_pairs: int = 256
    disc_metric: str = "l1"
    disc_weight: float = 1.0
    eta: float = 4.0
    seed: int = 0

    # contrastive
    tau: float = 0.5
    per_class_anchors: int = 8
    positives: int = 1
    negatives_m: int = 5
    pool_factor: int = 10
    virtual_per_anchor: int = 4
    p_ce_start: float = 0.5
    p_ce_end: float = 0.2
    infonce_standard: bool = False

    # auxiliary content graph
    knn_k: int = 0
    eta_sim: float = 0.0

    # init
    init_epochs: int = 300
    init_lr: float = 0.01
    collapse_weight: float = 1.0

    # cluster updates
    q_confidence: float = 0.5
    relevance_floor: float | None = None   # default 1.2 / K
    assign_warmup: int = 15
    assign_every: int = 8

    # ablation flags
    no_decouple: bool = False
    neg_uniform: bool = False
    mlp_predictor: bool = False
    no_cl: bool = False
    graph_augment: bool = False
    drop_gv: bool = False
    drop_gx: bool = False

    out_dir: str = "out"

    def __post_init__(self):
        if self.K < 2:
            raise ConfigError("K must be >= 2")
        for name in ("alpha_ce", "eta", "tau", "lr", "init_lr"):
            if getattr(self, name) <= 0 and name not in ("alpha_ce",):
                raise ConfigError(f"{name} must be > 0")
        if self.alpha_ce < 0:
            raise ConfigError("alpha_ce must be >= 0")
        for name in ("hidden", "per_class_anchors", "positives",
                     "negatives_m", "pool_factor", "virtual_per_anchor",
                     "assign_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("p_ce_start", "p_ce_end"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1]")
        if not 0.0 < self.q_confidence <= 1.0:
            raise ConfigError("q_confidence must lie in (0, 1]")
        if not -1.0 <= self.eta_sim <= 1.0:
            raise ConfigError("eta_sim must lie in [-1, 1]")
        if self.relevance_floor is None:
            self.relevance_floor = 1.2 / self.K

    @property
    def uses_sbm(self):
        return self.edge_path is None

    def p_ce_at(self, epoch):
        """Linear ramp of the augmentation probability over training."""
        if self.epochs <= 1:
            return self.p_ce_start
        t = epoch / (self.epochs - 1)
        return self.p_ce_start + t * (self.p_ce_end - self.p_ce_start)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


# flat "section.key = value" files, '#' comments; section prefixes are
# documentation only -- the final path component selects the field
_KEY_ALIASES = {
    "negatives": "negatives_m",
    "k": "K",
    "q": "q_confidence",
    "knn.k": "knn_k",
}


def _field_types():
    return {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(name, raw):
    hints = _field_types()
    if name not in hints:
        raise ConfigError(f"unknown config key '{name}'")
    raw = raw.strip()
    t = hints[name]
    if "bool" in str(t):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected boolean, got {raw!r}")
    if raw.lower() in ("none", ""):
        return None
    if "int" in str(t):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected integer, got {raw!r}")
    if "float" in str(t):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected number, got {raw!r}")
    return raw


def _resolve_key(dotted):
    if dotted in _KEY_ALIASES:
        return _KEY_ALIASES[dotted]
    leaf = dotted.rsplit(".", 1)[-1]
    return _KEY_ALIASES.get(leaf, leaf)


def parse_config_file(path):
    """Parse a flat key = value config file into a dict of field values."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {path}: {reason}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = line.split("=", 1)
        name = _resolve_key(key.strip())
        values[name] = _coerce(name, raw)
    return values


def apply_overrides(values, overrides):
    """Apply repeatable --set key=value overrides onto a value dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        name = _resolve_key(key.strip())
        values[name] = _coerce(name, raw)
    return values
