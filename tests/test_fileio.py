"""Every file reader turns any file content into a value or an InputError,
the matrix reader's values are exactly Python's float() of each token, and
write_matrix then read_matrix gives back the same bits."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robinson import DissimilaritySpace, InputError
from robinson.fileio import (
    _read_table,
    read_binary_matrix,
    read_cnf,
    read_graph,
    read_matrix,
    read_oriented_tree,
    read_tree,
    write_matrix,
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


# integers at the edges of float64's exact range and of the uint64 pass
# (2**64 overflows it and takes the real parse), and spellings it takes
INTEGERS = [str(2**53 - 1), str(2**53 + 1), str(2**63), str(2**64 - 1), str(2**64), "+7", "007"]
ZERO = st.sampled_from(["0", "-0", "0.0", "-0.0", "0e5"])
VALUE = st.one_of(
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
    st.integers(0, 10**9).map(str),
    st.builds("{}e{}".format, st.integers(0, 999), st.integers(-330, 300)),
    st.sampled_from(["-0", "1e-320", "5e-324", "2.5E+3", ".5", "7.", "+1.5"]),
    st.sampled_from(INTEGERS),
)
# every entry an integer below 2**64, which the uint64 pass reads
INT_ZERO = st.sampled_from(["0", "+0", "00"])
INT_VALUE = st.one_of(st.integers(0, 2**64 - 1).map(str),
                      st.sampled_from([t for t in INTEGERS if t != str(2**64)]))
SEP = st.sampled_from([" ", "\t", "\xa0", "  ", " \t\xa0"])
NOISE = st.lists(st.sampled_from(["", "   ", "# note", "\t# 1 2 x"]), max_size=2)


@st.composite
def matrix_texts(draw):
    n = draw(st.integers(1, 6))
    # two draws in three take the uint64 pass
    zero, value = (INT_ZERO, INT_VALUE) if draw(st.integers(0, 2)) else (ZERO, VALUE)
    lines = draw(NOISE) + [str(n)]
    for i in range(n):
        row = draw(zero) if i == 0 else draw(value)
        for j in range(1, n):
            row += draw(SEP) + (draw(zero) if i == j else draw(value))
        lines += draw(NOISE) + [draw(st.sampled_from(["", " ", "\t"])) + row]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


# two draws in three are integers: 900 examples leave about 300 real ones
@settings(max_examples=900, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=matrix_texts())
def test_matrix_values_match_float_per_token(tmp_path, text):
    path = tmp_path / "m.matrix"
    path.write_bytes(text.encode())
    got, want = read_matrix(path).d, reference_read_matrix(path).d
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_integer_rows_take_the_integer_pass(tmp_path):
    # the uint64 pass reads integer rows; a sign, a fraction or 2**64 sends
    # them to the real parse
    for text, dtype in [("0 7\n18446744073709551615 +0\n", np.uint64), ("0 7\n1 -0\n", float),
                        ("0 7\n1.5 0\n", float), ("0 7\n18446744073709551616 0\n", float)]:
        path = tmp_path / "m.matrix"
        path.write_text("2\n" + text)
        assert _read_table(path, "matrix file", (np.uint64, float))[1].dtype == dtype


def test_integer_passes_refuse_what_older_numpy_casts(tmp_path, monkeypatch):
    # numpy releases before the end of a 1.23 deprecation parse an integer
    # token that fails as a real, cast it and only warn; with that warning an
    # error they raise ValueError.  Emulated here, the readers must still
    # read float() of each token and refuse reals where integers belong
    loadtxt = np.loadtxt

    def older_loadtxt(rows, dtype, **kwargs):
        try:
            return loadtxt(rows, dtype, **kwargs)
        except ValueError:
            if np.dtype(dtype).kind not in "iu":
                raise
            reals = loadtxt(rows, float, **kwargs)
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string") from exc
            with np.errstate(invalid="ignore"):
                return reals.astype(dtype)

    monkeypatch.setattr(np, "loadtxt", older_loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert np.loadtxt(["0.5 -0"], np.uint64).tolist() == [0, 0]  # the cast it emulates
    for text in ["2\n0 0.5\n0.5 0\n", "2\n-0 1\n1 0\n", "2\n0 1e3\n7 0\n"]:
        path = tmp_path / "m.matrix"
        path.write_text(text)
        got, want = read_matrix(path).d, reference_read_matrix(path).d
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for reader, text in [(read_matrix, "2\n0 -3\n3 0\n"), (read_matrix, "2.0\n0 1\n1 0\n"),
                         (read_tree, "2\n0 1.0\n"), (read_binary_matrix, "1 2\n0 0.5\n")]:
        path = tmp_path / "f.txt"
        path.write_text(text)
        with pytest.raises(InputError):
            reader(path)


REAL = st.one_of(
    st.integers(0, 2**66).map(float),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0, max_value=2.0**-1022, allow_subnormal=True),
    st.sampled_from([-0.0, 2.0**53 + 2, 2.0**64 - 2048, 2.0**64, 1e300]),
)


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 5))
    # every entry integral, which write_matrix spells as integers; small
    # integers and fractions; or any entries, -0.0 on the diagonal too
    zero, entry = draw(st.sampled_from([
        (st.just(0.0), st.integers(0, 2**64 - 1).map(float)),
        (st.just(0.0), st.one_of(st.integers(0, 9).map(float), st.floats(0, 10))),
        (st.sampled_from([0.0, -0.0]), REAL),
    ]))
    return DissimilaritySpace([[draw(zero) if i == j else draw(entry) for j in range(n)]
                               for i in range(n)])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(space=spaces())
def test_written_matrix_reads_back_bit_equal(tmp_path, space):
    path = tmp_path / "m.matrix"
    write_matrix(space, path)
    assert np.array_equal(read_matrix(path).d.view(np.int64), space.d.view(np.int64))


@pytest.mark.parametrize("entry, spelled", [(5.0, None), (0.5, "0.5"), (-0.0, "-0.0"),
                                           (2.0**64, "1.8446744073709552e+19")])
def test_write_matrix_spells_integers_when_the_integer_pass_takes_them(tmp_path, entry, spelled):
    # integers below 2**64 take the uint64 pass; one fraction, -0.0 or
    # 2**64 sends the whole file to the real parse, so every entry is repr
    d = [[0, 2, 2.0**64 - 2048], [7, 0, entry], [1, 3, 0]]
    path = tmp_path / "m.matrix"
    write_matrix(DissimilaritySpace(d), path)
    want = ("3\n0 2 18446744073709549568\n7 0 5\n1 3 0\n" if spelled is None
            else f"3\n0.0 2.0 1.844674407370955e+19\n7.0 0.0 {spelled}\n1.0 3.0 0.0\n")
    assert path.read_text() == want
