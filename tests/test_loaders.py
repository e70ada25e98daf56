"""Property tests for the input loaders: any file either loads or raises
`DataError`, never another exception."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mecole import graphs
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
    assert graphs.load_attribute_bags(str(path)) == ((1, 2), (3,))
