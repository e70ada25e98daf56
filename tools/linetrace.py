"""List the statements of src/mecole that neither the tier-1 suite nor
seed 0 of any benchmark workload reaches.

    python3 tools/linetrace.py

Runs the tier-1 suite in this process (`pytest.main`), then seed 0 of each
workload, built through perfbench/workloads.py with one BLAS thread as
tools/fingerprint.py does, all under one `sys.settrace` tracer that records
lines in src/mecole's files only. Prints `file:line: source` for every
statement that no run reached (docstrings, `def`, `class` and imports are
not listed), then pytest's exit code.

Only this process is traced: a statement that runs only in a subprocess,
such as the CLI's exit-3 path, is listed. A failing test does not stop the
report. The tracer keeps no frame, so a test of reference cycles, such as
`test_backward_leaves_no_reference_cycles`, passes under it.
"""

import ast
import os
import sys
import tempfile
from collections import defaultdict

SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom)


def _own_lines(stmt):
    """The lines of `stmt` that are not inside a nested statement: a simple
    statement's every line, a compound statement's header."""
    nested = [child.lineno for field in ("body", "orelse", "finalbody",
                                         "handlers")
              for child in getattr(stmt, field, ())]
    last = min(nested) - 1 if nested else stmt.end_lineno
    return range(stmt.lineno, max(last, stmt.lineno) + 1)


def unreached(source, hits):
    """`(line, text)` of each statement in `source` none of whose own lines
    is in the set `hits`, in line order, with the text of its first line."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        if not any(line in hits for line in _own_lines(node)):
            found.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(found)


def _tracer(prefix, hits):
    """A `sys.settrace` function that adds each line run in a file under
    `prefix` to `hits[absolute path]`."""
    paths = {}  # code filename -> its absolute path, or None if not traced

    def local(frame, event, arg):
        if event == "line":
            hits[paths[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            path = os.path.abspath(name)
            paths[name] = path if path.startswith(prefix) else None
        return local if paths[name] else None
    return start


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(root, "src", "mecole")
    hits = defaultdict(set)
    sys.settrace(_tracer(package + os.sep, hits))
    try:
        # pins one BLAS thread before numpy is first imported, and puts src/
        # and perfbench/ on the import path
        import fingerprint
        import pytest

        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              os.path.join(root, "tests")])
        for name in sorted(fingerprint.WORKLOADS):
            with tempfile.TemporaryDirectory() as out_dir:
                fingerprint.fingerprint(name, 0, out_dir)
    finally:
        sys.settrace(None)
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            path = os.path.join(package, fname)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            for lineno, text in unreached(source, hits[path]):
                print(f"{os.path.relpath(path, root)}:{lineno}: {text}")
    print(f"pytest exit code {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
