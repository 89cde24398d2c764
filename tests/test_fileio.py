"""Every file reader turns any file content into a value or an InputError,
and the matrix reader's values are exactly Python's float() of each token."""

from __future__ import annotations

import numpy as np
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
from support import reference_read_matrix

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


ZERO = st.sampled_from(["0", "-0", "0.0", "-0.0", "0e5"])
VALUE = st.one_of(
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
    st.integers(0, 10**9).map(str),
    st.builds("{}e{}".format, st.integers(0, 999), st.integers(-330, 300)),
    st.sampled_from(["-0", "1e-320", "5e-324", "2.5E+3", ".5", "7.", "+1.5"]),
)
SEP = st.sampled_from([" ", "\t", "\xa0", "  ", " \t\xa0"])
NOISE = st.lists(st.sampled_from(["", "   ", "# note", "\t# 1 2 x"]), max_size=2)


@st.composite
def matrix_texts(draw):
    n = draw(st.integers(1, 6))
    lines = draw(NOISE) + [str(n)]
    for i in range(n):
        row = draw(ZERO) if i == 0 else draw(VALUE)
        for j in range(1, n):
            row += draw(SEP) + (draw(ZERO) if i == j else draw(VALUE))
        lines += draw(NOISE) + [draw(st.sampled_from(["", " ", "\t"])) + row]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=matrix_texts())
def test_matrix_values_match_float_per_token(tmp_path, text):
    path = tmp_path / "m.matrix"
    path.write_bytes(text.encode())
    got, want = read_matrix(path).d, reference_read_matrix(path).d
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
