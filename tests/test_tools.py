"""The summary step of `tools/effects.py`, without any training."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

EFFECTS = Path(__file__).parent.parent / "tools" / "effects.py"


def load_effects():
    spec = importlib.util.spec_from_file_location("effects", EFFECTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_effects_summary_means_and_margins():
    environ, path = dict(os.environ), list(sys.path)
    effects = load_effects()
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
