"""Every name a mecole module imports, and its module-level `logger`, is
read somewhere in that module."""

import ast
from pathlib import Path

import pytest

import mecole

MODULES = sorted(p for p in Path(mecole.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unread_names(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "logger":
                    bound["logger"] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_and_logger_are_read(path):
    assert unread_names(path.read_text(encoding="utf-8")) == []


def test_check_flags_unread_import_and_logger():
    source = ("import logging\nimport os\nfrom x import a, b as c\n"
              "logger = logging.getLogger('m')\nprint(os.sep, c)\n")
    assert unread_names(source) == [(3, "a"), (4, "logger")]
