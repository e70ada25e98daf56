"""The pure steps of the tools: `tools/effects.py`'s summary, without any
training, and `tools/linetrace.py`'s listing, without any tracing."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_effects_summary_means_and_margins():
    environ, path = dict(os.environ), list(sys.path)
    effects = load_tool("effects")
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


LISTED_SOURCE = '''"""Module docstring."""
import os
from sys import path


class Box:
    """Class docstring."""
    size = 1

    def grow(self, by):
        """Method docstring."""
        if by < 0:
            raise ValueError(
                "negative")
        for _ in range(by):
            self.size += 1
        else:
            return self.size


def unused():
    return (
        1)
'''


def test_linetrace_lists_unreached_statements():
    environ, path = dict(os.environ), list(sys.path)
    linetrace = load_tool("linetrace")
    # hand-made hits on every statement but `unused`'s return, the
    # two-line `raise` on its second line only
    hits = {8, 12, 14, 15, 16, 18}
    assert linetrace.unreached(LISTED_SOURCE, hits) == [(22, "return (")]
    # docstrings, imports, `def` and `class` lines are never listed; an
    # unreached `if` header is listed apart from its reached body
    assert linetrace.unreached(LISTED_SOURCE, {14}) == [
        (8, "size = 1"), (12, "if by < 0:"), (15, "for _ in range(by):"),
        (16, "self.size += 1"), (18, "return self.size"), (22, "return (")]
    assert dict(os.environ) == environ and sys.path == path
