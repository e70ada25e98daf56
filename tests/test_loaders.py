"""Property tests for the input loaders: any file either loads or raises
`DataError`, never another exception, and the same outcome as the
line-by-line loaders kept here as references."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from mecole import cli, graphs
from mecole.errors import DataError

# tokens that reach past the first parse step of each loader: integers of
# any size and sign, floats with their special values, words, separators
tokens = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1_0", "0x1", "#",
                     ",", "", "-", "+1", "٣", "１"]),
    st.text(max_size=4),
)
lines = st.lists(tokens, max_size=6).flatmap(
    lambda toks: st.sampled_from([" ", ",", "\t", ", "]).map(
        lambda sep: sep.join(toks)))
structured = st.lists(lines, max_size=12).map(
    lambda rows: "\n".join(rows).encode("utf-8", "surrogatepass"))
# rows of one width of non-negative integers of any size, so that an edge
# list, a label file or a bag file parses through to its last line
int_rows = st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.integers(min_value=0), min_size=width, max_size=width),
    min_size=1, max_size=8)).map(
    lambda rows: "\n".join(" ".join(map(str, r)) for r in rows).encode())
contents = st.one_of(
    int_rows,
    structured,
    st.text().map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.binary(),
)

LOADERS = {
    "load_edge_list": lambda path, n: graphs.load_edge_list(path),
    "load_edge_list_n_hint": lambda path, n: graphs.load_edge_list(
        path, n_hint=n),
    "load_features": graphs.load_features,
    "load_labels": lambda path, n: graphs.load_labels(path),
    "load_attribute_bags": lambda path, n: graphs.load_attribute_bags(path),
    "load_vocabulary": lambda path, n: graphs.load_vocabulary(path),
}


@pytest.mark.parametrize("loader", list(LOADERS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=contents, n=st.integers(0, 40))
def test_loader_loads_or_raises_data_error(tmp_path, loader, data, n):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    try:
        LOADERS[loader](str(path), n)
    except DataError:
        pass


@pytest.mark.parametrize("node", [graphs.MAX_NODES, 2 ** 63, 10 ** 30])
def test_edge_list_node_id_above_limit_is_data_error(tmp_path, node):
    path = tmp_path / "edges.txt"
    path.write_text(f"0 1\n1 {node}\n")
    with pytest.raises(DataError, match="above the limit"):
        graphs.load_edge_list(str(path))


@pytest.mark.parametrize("label", [2 ** 63, -2 ** 63 - 1])
def test_label_outside_int64_is_data_error(tmp_path, label):
    path = tmp_path / "labels.txt"
    path.write_text(f"0\n{label}\n")
    with pytest.raises(DataError, match="outside the int64 range"):
        graphs.load_labels(str(path))


def test_edge_list_largest_node_id_loads(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text(f"0 {graphs.MAX_NODES - 1}\n")
    graph = graphs.load_edge_list(str(path))
    assert graph.n == graphs.MAX_NODES and graph.num_edges == 1
    np.testing.assert_array_equal(graph.v, [graphs.MAX_NODES - 1])


def test_attribute_bags_skip_comment_lines(tmp_path):
    path = tmp_path / "bags.txt"
    path.write_text("# token ids per node\n1 2\n# between rows\n3\n")
    indptr, tokens = graphs.load_attribute_bags(str(path))
    assert indptr.tolist() == [0, 2, 3] and tokens.tolist() == [1, 2, 3]


def test_attribute_bags_indented_comment_is_a_comment(tmp_path):
    # a line whose stripped text starts with `#` is a comment, as in every
    # other input file; a blank line is still a node with no tokens
    path = tmp_path / "bags.txt"
    path.write_text("1 2\n  # note\n\n\t#x 9\n3\n")
    indptr, tokens = graphs.load_attribute_bags(str(path))
    assert indptr.tolist() == [0, 2, 2, 3] and tokens.tolist() == [1, 2, 3]


# the line-by-line loaders that the array loaders replaced --------------

def read_lines_reference(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"cannot read {path}: {reason}") from exc


def data_lines_reference(path):
    for lineno, line in enumerate(read_lines_reference(path), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def load_edge_list_reference(path, n_hint=None):
    pairs = set()
    max_idx = -1
    for lineno, line in data_lines_reference(path):
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer node id in {line!r}")
        if u < 0 or v < 0:
            raise DataError(f"{path}:{lineno}: negative node id")
        max_idx = max(max_idx, u, v)
        if u == v:
            continue
        pairs.add((min(u, v), max(u, v)))
    if not pairs:
        raise DataError(f"{path}: empty edge set")
    if max_idx >= graphs.MAX_NODES:
        raise DataError(f"{path}: node id {max_idx} above the limit of "
                        f"{graphs.MAX_NODES - 1}")
    n = n_hint if n_hint is not None else max_idx + 1
    return graphs.Graph.from_pairs(n, pairs)


def numeric_rows_reference(path):
    rows = []
    for lineno, line in data_lines_reference(path):
        toks = line.replace(",", " ").split()
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric token")
    if len({len(r) for r in rows}) > 1:
        raise DataError(f"{path}: rows differ in length")
    rows = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(rows).all():
        raise DataError(f"{path}: non-finite value (nan or inf)")
    return rows


def load_labels_reference(path):
    labels = []
    for lineno, line in data_lines_reference(path):
        try:
            labels.append(int(line))
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer label")
    try:
        labels = np.asarray(labels, dtype=np.int64)
    except OverflowError:
        raise DataError(f"{path}: label outside the int64 range")
    below = np.flatnonzero(labels < -1)
    if below.size:
        raise DataError(f"{path}: label {labels[below[0]]} below -1, the "
                        "one mark of an unlabeled node")
    return labels


def load_attribute_bags_reference(path):
    """The bags as a tuple of per-node tuples. Apart from the comment rule,
    now the stripped line's, as in every input file (an indented `#` line
    was a parse error), this is the loader the CSR rows replaced."""
    bags = []
    for lineno, line in enumerate(read_lines_reference(path), 1):
        line = line.rstrip("\n")
        if line.strip().startswith("#"):
            continue
        try:
            bags.append(tuple(int(t) for t in line.split()))
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer token id")
    return tuple(bags)


def export_classes_reference(path):
    """The class column of an assignment export, as `mecole eval` read it
    line by line."""
    pred = []
    rows = list(data_lines_reference(path))
    if not rows or not rows[0][1].startswith("node_id"):
        raise DataError(f"{path}: not an assignment export")
    for lineno, line in rows[1:]:
        try:
            pred.append(int(line.split(",")[1]))
        except (IndexError, ValueError):
            raise DataError(f"{path}:{lineno}: malformed row {line!r}")
    return np.asarray(pred)


def outcome(load, *args):
    """What a loader made of a file: its arrays' dtype, shape and bytes
    (and a graph's `n`), or its `DataError` message."""
    try:
        out = load(*args)
    except DataError as exc:
        return "error", str(exc)
    if isinstance(out, graphs.Graph):
        return out.n, outcome(lambda: out.u), outcome(lambda: out.v), \
            outcome(lambda: out.w)
    return out.dtype.str, out.shape, out.tobytes()


ORACLES = {
    "load_edge_list": (graphs.load_edge_list, load_edge_list_reference),
    "load_edge_list_n_hint": (graphs.load_edge_list,
                              load_edge_list_reference),
    "numeric_rows": (graphs._numeric_rows, numeric_rows_reference),
    "load_labels": (graphs.load_labels, load_labels_reference),
}


# each of these reaches another check first: a bad width, parse or sign on
# an earlier line than another failure, an id or label beyond int64 with
# or without a later failure, a self-loop beyond the node limit, a line of
# only commas, a width that differs after a parse error, blank lines,
# comments and form feeds between the lines that count
@pytest.mark.parametrize("loader", list(ORACLES))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=contents, n=st.integers(0, 40))
@example(data=b"", n=0)
@example(data=b",,,\n , ,\n", n=2)
@example(data=b"0 1\n1 2 3\n-1 x\n", n=3)
@example(data=b"0 x\n1 2 3\n", n=2)
@example(data=b"-1 0\n0 x\n", n=2)
@example(data=b"0 1\n3 -2\n", n=4)
@example(data=b"0 1\n1 %d\nx\n" % 2 ** 64, n=2)
@example(data=b"%d\n1\n" % 2 ** 64, n=2)
@example(data=b"%d\nx\n-5\n" % -2 ** 64, n=3)
@example(data=b"%d %d\n" % (10 ** 30, 10 ** 30), n=1)
@example(data=b"1 2\n3\nx 1\n", n=3)
@example(data=b"# c\n\n 0,1 \n2 3\x0c\n\x0c\n4\tx\n", n=5)
def test_loader_matches_line_by_line_reference(tmp_path, loader, data, n):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    load, reference = ORACLES[loader]
    args = (str(path), n) if loader.endswith("n_hint") else (str(path),)
    assert outcome(load, *args) == outcome(reference, *args)


def result(load, path):
    """What `load` made of a file, or the message of its `DataError`."""
    try:
        return load(path)
    except DataError as exc:
        return "error", str(exc)


def csr_bag_tuples(path):
    """`load_attribute_bags`' CSR rows as per-node tuples of Python ints."""
    indptr, tokens = graphs.load_attribute_bags(path)
    return tuple(tuple(tokens[a:b].tolist())
                 for a, b in zip(indptr[:-1], indptr[1:]))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=contents)
@example(data=b"")
@example(data=b"1 2\n\n  # note\n# c\n3 x\n")
@example(data=b"\x0c\n 4\t5 \r6\n\n")
@example(data=b"1 %d\n-3\n" % 2 ** 64)
@example(data=b"%d\nx\n" % -2 ** 70)
def test_attribute_bags_match_line_by_line_reference(tmp_path, data):
    path = str(tmp_path / "bags.txt")
    (tmp_path / "bags.txt").write_bytes(data)
    assert result(csr_bag_tuples, path) == \
        result(load_attribute_bags_reference, path)


def class_values(load):
    """The class column as Python ints. The reference's dtype is NumPy's
    pick for its list (float64 when empty, uint64 or object beyond int64);
    the metrics read only the values."""
    return lambda path: list(map(int, load(path)))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=contents, header=st.booleans())
@example(data=b"", header=True)
@example(data=b"0,1\n1\n2,x\n", header=True)
@example(data=b"0, 3 ,0.5\n# c\n\n1,%d\n" % 2 ** 64, header=True)
@example(data=b"0,1\n", header=False)
def test_export_classes_match_line_by_line_reference(tmp_path, data, header):
    path = str(tmp_path / "assignments.csv")
    (tmp_path / "assignments.csv").write_bytes(
        b"node_id,class\n" * header + data)
    assert result(class_values(cli._export_classes), path) == \
        result(class_values(export_classes_reference), path)


def test_data_lines_hold_the_file_once(tmp_path):
    """The reader keeps only what it returns: a list of all the lines
    before their stripped copies would hold the text twice."""
    rng = np.random.default_rng(0)
    path = tmp_path / "features.csv"
    np.savetxt(path, rng.random((2000, 40)), delimiter=",")
    tracemalloc.start()
    try:
        lines = graphs._data_lines(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sys.getsizeof(lines) + sum(
        sys.getsizeof(x) for pair in lines for x in (pair, *pair))
    assert len(lines) == 2000
    assert peak < 1.3 * held


def test_feature_file_loads_without_a_list_of_values(tmp_path):
    """The load holds the file's lines and the output array, not one
    Python float per value (a list of lists of floats peaks near 6x the
    array)."""
    values = np.random.default_rng(0).integers(0, 2, size=(1000, 400))
    path = tmp_path / "features.csv"
    np.savetxt(path, values, fmt="%d", delimiter=",")
    tracemalloc.start()
    try:
        X = graphs.load_features(str(path), 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(X, values)
    assert peak < 2.5 * X.nbytes
