"""The exit-code contract of `robinson.cli.main`, fuzzed in process.

Every command form runs, in text and with --json, on files that are either
random bytes or built from tokens of their format (small instances, some
with one line swapped for random tokens), with stdout and stderr each an
open or a closed StringIO.  Whatever the input: no exception escapes, the
exit code is 0-3, a YES or NO report opens with its answer line (is one
JSON object with --json), and an error or refusal prints nothing on stdout
and one `error:` or `refused:` line on stderr.  At n <= 6, `recognize` and
`oracle recognize` agree on YES or NO.  At n <= 7, on symmetric files: the
star commands agree with `oracle orient` and the reference center
searches; `orient path` and, where every tree path is Robinson, `orient
tree` agree with `oracle orient`; and `check` agrees with the reference
failing pair and with count_xi.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robinson import InputError, Tree, count_xi, verify_all_paths_robinson
from robinson.cli import main
from robinson.fileio import read_matrix, read_oriented_tree, write_tree
from support import reference_assign_star, reference_best_star_center, reference_first_failing_pair

# M matrix, T tree, O oriented tree, F DIMACS CNF, G graph, B binary matrix;
# P is an output prefix, I and J are drawn integers and ORDER a drawn order
FORMS = [
    "recognize {M}",
    "orient tree {M} {T}",
    "orient tree {M} {T} --verify-premise",
    "orient star {M}",
    "orient star {M} --center={I}",
    "orient path {M} --order={ORDER}",
    "assign star {M} --in={I} --out={J}",
    "petals {M} --center={I}",
    "gen sat {F} --out-prefix={P}",
    "gen subset {G} --out-prefix={P}",
    "gen assign {M} --kappa={I} --out-prefix={P}",
    "oracle orient {M} {T}",
    "oracle recognize {M}",
    "oracle c1p {B}",
    "oracle subset {M} --kappa={I}",
    "oracle subset {M} --kappa={I} --budget={J}",
    "check {M} {O}",
]

# a line of tokens from every format, for random lines and swapped-in ones
TOKENS = ["0", "1", "2", "3", "7", "-1", "0.5", "nan", "inf", "x", "#", "c", "p", "cnf", "%",
          "\xff", "1_0", "99999999999"]
LINE = st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join)
VALUE = st.sampled_from(["1", "2", "3", "0.5"])
# DIMACS clause lines of three literals and not, and comments
CLAUSES = ["1 2 3 0", "-1 2 -3 0", "1 -2 3 0", "-1 -2 -3", "1 1 2 0", "1 2 0", "4 2 1 0",
           "c comment", ""]


def _maybe(draw) -> bool:
    """True one time in four."""
    return draw(st.integers(0, 3)) == 0


def _lines(draw, lines: list[str]) -> str:
    """The lines as a file, one in four times with a line swapped for
    random tokens."""
    if lines and _maybe(draw):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(LINE)
    return "\n".join(lines) + "\n"


@st.composite
def matrix_text(draw, n: int) -> str:
    """An n-point matrix, symmetric three times in four."""
    rows = [["0" if i == j else draw(VALUE) for j in range(n)] for i in range(n)]
    if not _maybe(draw):
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return _lines(draw, [str(n)] + [" ".join(r) for r in rows])


@st.composite
def tree_text(draw, n: int) -> str:
    """A tree on n vertices with shuffled labels and edge directions, so
    also an oriented tree."""
    label = draw(st.permutations(range(n)))
    edges = []
    for i in range(1, n):
        u, v = label[i], label[draw(st.integers(0, i - 1))]
        edges.append(f"{u} {v}" if draw(st.booleans()) else f"{v} {u}")
    return _lines(draw, [str(n)] + edges)


@st.composite
def graph_text(draw, n: int) -> str:
    pairs = [f"{u} {v}" for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
    return _lines(draw, [str(n)] + edges)


@st.composite
def binary_text(draw, n: int) -> str:
    cols = draw(st.integers(1, 3))
    rows = [" ".join(draw(st.sampled_from("01")) for _ in range(cols)) for _ in range(n)]
    return _lines(draw, [f"{n} {cols}"] + rows)


@st.composite
def dimacs_text(draw) -> str:
    """A `p cnf` header whose clause count is right three times in four,
    the clauses, and the SATLIB trailer `%` and `0` half the time."""
    clauses = draw(st.lists(st.sampled_from(CLAUSES), max_size=3))
    count = sum(1 for c in clauses if c[:1] not in ("", "c"))
    if _maybe(draw):
        count = draw(st.integers(-1, 4))
    lines = [f"p cnf {draw(st.integers(1, 4))} {count}"] + clauses
    if draw(st.booleans()):
        lines += ["%", "0"]
    return _lines(draw, lines)


@st.composite
def _content(draw, built) -> bytes:
    """Random bytes one time in four, else a token-built file."""
    return draw(st.binary(max_size=60)) if _maybe(draw) else draw(built).encode()


@st.composite
def inputs(draw) -> dict:
    """The files of every kind and the integer arguments, all for one n so
    that they can fit: I in -1..n, J = n - 1 - I three times in four, and
    a permutation of the n points as the order three times in four."""
    n = draw(st.integers(1, 6))
    i = draw(st.integers(-1, n))
    j = n - 1 - i if not _maybe(draw) else draw(st.integers(-1, n))
    if _maybe(draw):
        order = draw(st.lists(st.integers(-1, n), max_size=n + 1))
    else:
        order = draw(st.permutations(range(n)))
    return {
        "M": draw(_content(matrix_text(n))),
        "T": draw(_content(tree_text(n))),
        "O": draw(_content(tree_text(n))),
        "F": draw(_content(dimacs_text())),
        "G": draw(_content(graph_text(n))),
        "B": draw(_content(binary_text(n))),
        "I": i,
        "J": j,
        "ORDER": ",".join(map(str, order)),
    }


def run(argv: list[str], out_closed: bool = False, err_closed: bool = False):
    """main(argv) on StringIO streams, each closed if asked; the code and
    what each open stream received (None for a closed one)."""
    out, err = io.StringIO(), io.StringIO()
    for stream, closed in ((out, out_closed), (err, err_closed)):
        if closed:
            stream.close()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, *(None if s.closed else s.getvalue() for s in (out, err))


def check_contract(code: int, out, err, as_json: bool) -> None:
    assert code in (0, 1, 2, 3)
    if out is not None:
        if code in (0, 1):
            answer = "YES" if code == 0 else "NO"
            if as_json:
                assert out.endswith("\n") and out.count("\n") == 1
                report = json.loads(out)
                assert isinstance(report, dict) and report["answer"] == answer
            else:
                assert out.startswith(f"answer: {answer}\n")
        else:
            assert out == ""
    if err is not None and code in (2, 3):
        assert err.startswith("error: " if code == 2 else "refused: ")


@pytest.mark.parametrize("form", FORMS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=inputs(), as_json=st.booleans(), out_closed=st.booleans(),
       err_closed=st.booleans())
def test_exit_code_contract(tmp_path, form, fields, as_json, out_closed, err_closed):
    for key, value in fields.items():
        if isinstance(value, bytes):
            fields[key] = tmp_path / key
            fields[key].write_bytes(value)
    fields["P"] = tmp_path / "out"
    argv = ["--json"] * as_json + [token.format(**fields) for token in form.split()]
    code, out, err = run(argv, out_closed, err_closed)
    check_contract(code, out, err, as_json)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.integers(1, 6).flatmap(lambda n: _content(matrix_text(n))))
def test_recognize_agrees_with_oracle(tmp_path, content):
    path = tmp_path / "m.matrix"
    path.write_bytes(content)
    try:
        n = read_matrix(path).n
    except InputError:
        n = 0  # both commands must then exit 2
    fast = run(["--json", "recognize", str(path)])
    slow = run(["--json", "oracle", "recognize", str(path)])
    for code, out, err in (fast, slow):
        check_contract(code, out, err, True)
    if n <= 6:
        assert fast[0] == slow[0]


def symmetric_text(draw, n: int) -> str:
    """A symmetric matrix file on n points with tied and zero entries off
    the diagonal."""
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(["0", "1", "2", "3"]))
    return "\n".join([str(n)] + [" ".join(r) for r in rows]) + "\n"


@st.composite
def star_cases(draw) -> tuple[str, int, int]:
    """A symmetric matrix file on n points, n in 1..7, and a center and an
    in-count in 0..n-1."""
    n = draw(st.integers(1, 7))
    return symmetric_text(draw, n), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@st.composite
def tree_cases(draw) -> tuple[str, list[int], list[tuple[int, int]]]:
    """A symmetric matrix file on n points, n in 1..7, an order of the
    points, and the arcs of a tree on them with shuffled labels and
    directions."""
    n = draw(st.integers(1, 7))
    text = symmetric_text(draw, n)
    order = draw(st.permutations(range(n)))
    label = draw(st.permutations(range(n)))
    arcs = []
    for i in range(1, n):
        u, v = label[i], label[draw(st.integers(0, i - 1))]
        arcs.append((u, v) if draw(st.booleans()) else (v, u))
    return text, order, arcs


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=star_cases())
def test_star_commands_agree_with_references(tmp_path, case):
    text, center, in_count = case
    matrix = tmp_path / "m.matrix"
    matrix.write_text(text)
    space = read_matrix(matrix)
    n = space.n
    tree = tmp_path / "star.tree"
    write_tree(Tree.star(n, center), tree)
    reports = {}
    for name, argv in (
        ("fixed", ["orient", "star", str(matrix), f"--center={center}"]),
        ("oracle", ["oracle", "orient", str(matrix), str(tree)]),
        ("best", ["orient", "star", str(matrix)]),
    ):
        code, out, err = run(["--json", *argv])
        assert code == 0, err
        reports[name] = json.loads(out)
    assert reports["fixed"]["xi"] == reports["oracle"]["xi"]
    assert reports["best"]["center"] == reference_best_star_center(space)
    code, out, err = run(["--json", "assign", "star", str(matrix),
                          f"--in={in_count}", f"--out={n - 1 - in_count}"])
    want = reference_assign_star(space, in_count, n - 1 - in_count)
    if want is None:
        assert code == 1
    else:
        assert code == 0, err
        assert json.loads(out)["center"] == want.center


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=tree_cases())
def test_tree_commands_agree_with_references(tmp_path, case):
    text, order, arcs = case
    matrix = tmp_path / "m.matrix"
    matrix.write_text(text)
    space = read_matrix(matrix)
    n = space.n
    path, tree = tmp_path / "path.tree", tmp_path / "t.tree"
    write_tree(Tree(n, list(zip(order, order[1:]))), path)
    write_tree(Tree(n, arcs), tree)  # edges as drawn: also an oriented-tree file
    ot = read_oriented_tree(tree)

    def xi(*argv):
        code, out, err = run(["--json", *map(str, argv)])
        assert code == 0, err
        return json.loads(out)["xi"]

    assert xi("orient", "path", matrix, "--order=" + ",".join(map(str, order))) == \
        xi("oracle", "orient", matrix, path)
    if verify_all_paths_robinson(space, ot.tree):
        assert xi("orient", "tree", matrix, tree) == xi("oracle", "orient", matrix, tree)
    code, out, err = run(["--json", "check", str(matrix), str(tree)])
    pair = reference_first_failing_pair(space.d, ot)
    assert code == (0 if pair is None else 1), err
    report = json.loads(out)
    assert report["xi"] == count_xi(ot)
    assert report.get("pair") == (None if pair is None else list(pair))
