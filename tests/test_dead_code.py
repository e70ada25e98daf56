"""Every name a mecole module or test file imports, and its module-level
`logger`, is read somewhere in that file; a module's `__all__` lists
exactly its public top-level functions and classes, plus names it binds;
every private top-level name is read somewhere in the package; every
parameter of a package function is read in its body; every config field
is read somewhere in the package outside the config's own checks."""

import ast
from pathlib import Path

import pytest

import mecole

MODULES = sorted(p for p in Path(mecole.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES] +
                         [f"tests/{p.name}" for p in TESTS])
def test_imports_and_logger_are_read(path):
    assert unread_names(path.read_text(encoding="utf-8")) == []


def test_check_flags_unread_import_and_logger():
    source = ("import logging\nimport os\nfrom x import a, b as c\n"
              "logger = logging.getLogger('m')\nprint(os.sep, c)\n")
    assert unread_names(source) == [(3, "a"), (4, "logger")]


def export_mismatches(source):
    """(names in `__all__` the module never binds, public top-level defs
    and classes missing from `__all__`); a module without `__all__`
    exports every public name, so it has neither."""
    tree = ast.parse(source)
    listed, bound, public = None, set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public.append(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        listed = ast.literal_eval(node.value)
    if listed is None:
        return [], []
    return ([name for name in listed if name not in bound],
            [name for name in public if name not in listed])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_matches_public_defs(path):
    assert export_mismatches(path.read_text(encoding="utf-8")) == ([], [])


def test_check_flags_missing_and_unlisted_exports():
    source = ("from x import y\n__all__ = ['f', 'LIMIT', 'y', 'gone']\n"
              "LIMIT = 3\ndef f(): pass\ndef g(): pass\n"
              "def _h(): pass\nclass C: pass\n")
    assert export_mismatches(source) == (["gone"], ["g", "C"])
    assert export_mismatches("def g(): pass\n") == ([], [])


def unreferenced_private_names(sources):
    """(module, name) of each private top-level function, class and
    `_NAME` binding in `sources` (module name -> source) that no module
    reads, by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [(module, name) for module, name in defined if name not in read]


def test_private_names_are_referenced():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in Path(mecole.__file__).parent.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_check_flags_unreferenced_private_names():
    sources = {
        "a.py": ("__all__ = []\n_LIMIT = 3\n_SPARE = 4\n"
                 "def _used(): return _LIMIT\ndef _dead(): pass\n"
                 "class _Kept: pass\nclass _Gone: pass\n"),
        "b.py": "from . import a\nprint(a._used(), a._Kept)\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a.py", "_SPARE"), ("a.py", "_dead"), ("a.py", "_Gone")]


def unread_parameters(source):
    """(line, function, parameter) of each parameter of a function or
    method in `source` that its body, nested functions included, never
    reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + \
            [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(a.lineno, node.name, a.arg) for a in params
                  if a.arg not in read]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parameters_are_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_check_flags_unread_parameters():
    source = ("def f(a, b, *rest, c=1, **kw):\n"
              "    def g(d):\n        return a + d\n"
              "    return g(kw)\n"
              "class C:\n    def m(self, x):\n        return x\n")
    assert unread_parameters(source) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "rest"), (6, "m", "self")]


def unread_config_fields(sources):
    """Fields of `ExperimentConfig` in `sources` (module name -> source)
    that no module reads as an attribute, outside the config's own
    `__post_init__` checks and `to_dict`."""
    defined, read = [], set()
    for source in sources.values():
        tree = ast.parse(source)
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and \
                    node.name == "ExperimentConfig":
                defined += [stmt.target.id for stmt in node.body
                            if isinstance(stmt, ast.AnnAssign)]
                skipped |= {id(n) for stmt in node.body
                            if isinstance(stmt, ast.FunctionDef)
                            and stmt.name in ("__post_init__", "to_dict")
                            for n in ast.walk(stmt)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)
                 and id(node) not in skipped}
    return [name for name in defined if name not in read]


def test_config_fields_are_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_config_fields(sources) == []


def test_check_flags_unread_config_fields():
    sources = {
        "config.py": ("class ExperimentConfig:\n    K: int = 2\n"
                      "    checked: int = 0\n    spare: float = 0.0\n"
                      "    def __post_init__(self):\n"
                      "        assert self.checked >= 0\n"
                      "    def to_dict(self):\n"
                      "        return {'spare': self.spare}\n"),
        "train.py": "def run(cfg):\n    return cfg.K\n",
    }
    assert unread_config_fields(sources) == ["checked", "spare"]
