"""Every file reader turns any file content into a value or an InputError."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robinson import InputError
from robinson.fileio import (
    read_binary_matrix,
    read_cnf,
    read_graph,
    read_matrix,
    read_oriented_tree,
    read_tree,
)

READERS = [read_matrix, read_tree, read_oriented_tree, read_graph, read_binary_matrix, read_cnf]

# tokens that reach past the header checks of every format, plus a few that
# stress the number parsers and the line splitting
TOKENS = ["0", "1", "2", "3", "-1", "0.5", "1e999", "nan", "inf", "x", "#", "c", "p", "cnf",
          "%", "\xff", "١", "1_0", "99999999999"]
LINE = st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join)
TEXT = st.lists(LINE, max_size=8).map("\n".join).map(str.encode)
CONTENT = st.one_of(st.binary(max_size=120), TEXT)


@pytest.mark.parametrize("reader", READERS, ids=lambda r: r.__name__)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=CONTENT)
def test_any_bytes_give_value_or_input_error(reader, tmp_path, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    try:
        reader(path)
    except InputError:
        pass
