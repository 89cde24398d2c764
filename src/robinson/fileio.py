"""File formats for matrices, trees, orientations, graphs, and CNFs.

Matrix file: first line n, then n lines of n whitespace-separated reals
(diagonal zero, asymmetric allowed).  Tree file: first line n, then n-1
lines `u v` (0-based).  Oriented-tree file: same, `u v` means u -> v.
Graph file: like a tree file but with any number of edge lines.  Binary
matrix file: first line `rows cols`, then 0/1 rows.  Lines starting with
`#` are ignored everywhere.

Every file but the CNF is a table, read by _read_table in four steps, the
first fault found the one reported: the header line, parsed like one row;
the row count, which a matrix or binary-matrix header promises and a tree
or graph header does not; all rows in one numpy pass; and only when that
pass fails, the rows one at a time, to name the first bad one.

Headers and rows go through numpy's text parser: decimal and exponent
reals, and `nan` and `inf` (the space refuses them as non-finite); integers
in ASCII digits that fit in 64 bits.  Python-only `1_0` and non-ASCII digits
fail.  A matrix's rows are parsed as uint64 first, which reads integer text
faster than the real parse; any sign, fraction, exponent or entry of 2**64
or more fails that pass and the rows take the real parse.
The space's cast of the uint64 table to float rounds to nearest, as float()
does on the same digits, so both passes give float() of each token.
write_matrix spells a matrix that the uint64 pass would take as integers.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .c1p import BinaryMatrix
from .core import DissimilaritySpace, OrientedTree, Tree
from .errors import InputError
from .reductions import Cnf3, SimpleGraph, parse_dimacs


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _loadtxt(rows: list[str], dt: type) -> np.ndarray:
    """``rows`` parsed as a 2-D array of ``dt``.  numpy releases before the
    end of a 1.23 deprecation parse an integer token that fails as a real and
    cast it (`0.5` to 0, `-3` to garbage) with only a DeprecationWarning;
    made an error, numpy raises ValueError there, as later releases do."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        return np.loadtxt(rows, dt, comments=None, ndmin=2)


def _read_table(path: str | Path, what: str, dtypes: tuple[type, ...], header: int = 1,
                edges: bool = False) -> tuple[list[int], np.ndarray]:
    """The ``header`` integers of the first content line and the rows below
    it as one array.  Rows are `u v` pairs when ``edges`` is set; otherwise
    the header's first integer is the row count and its last the width.
    The rows are parsed as each of ``dtypes`` in turn until one pass takes
    them all; the last dtype also names the first bad row."""

    def parse(line: str, dt: type) -> np.ndarray | None:  # one line, or None
        try:
            return _loadtxt([line], dt)[0]
        except ValueError:
            return None

    lines = [ln for ln in map(str.strip, _read_text(path).splitlines()) if ln and ln[0] != "#"]
    if not lines:
        raise InputError(f"{what}: empty file")
    head = parse(lines[0], np.int64)
    if head is None or len(head) != header:
        bad = "bad header line" if header == 1 else "bad header"
        raise InputError(f"{what}: {bad} {lines[0]!r}")
    head, rows, dtype = head.tolist(), lines[1:], dtypes[-1]
    width = 2 if edges else head[-1]
    if not edges and len(rows) != head[0]:
        raise InputError(f"{what}: expected {head[0]} rows, found {len(rows)}")
    if not rows:
        return head, np.empty((0, width), dtype)  # refused or read as no rows, like an empty list
    for dt in dtypes:
        try:
            table = _loadtxt(rows, dt)
        except ValueError:
            continue
        if table.shape[1] == width:
            return head, table
    for ln in rows:
        row = parse(ln, dtype)
        if row is None or len(row) != width:
            raise InputError(f"{what}: bad edge line {ln!r}" if edges
                             else f"{what}: bad row {ln!r}" if row is None
                             else f"{what}: row of length {len(row)}, expected {width}")
    raise AssertionError("rows that fail together must fail one at a time")


def read_matrix(path: str | Path) -> DissimilaritySpace:
    # the space's one float copy converts a uint64 table
    return DissimilaritySpace(_read_table(path, "matrix file", (np.uint64, float))[1])


def write_matrix(space: DissimilaritySpace, path: str | Path) -> None:
    d = space.d
    # when read_matrix's uint64 pass would take every entry, write them as
    # integers; otherwise the real parse reads the file whatever the
    # spelling, and repr round-trips each entry exactly, -0.0 included
    if not np.signbit(d).any() and (d < 2.0**64).all() and (d % 1 == 0).all():
        rows, spell = d.astype(np.uint64).tolist(), str
    else:
        rows, spell = d.tolist(), repr
    lines = [str(space.n)] + [" ".join(map(spell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_pairs(path: str | Path, what: str) -> tuple[int, list[list[int]]]:
    """Header n and the `u v` lines of a tree, oriented-tree or graph file."""
    [n], pairs = _read_table(path, what, (np.int64,), edges=True)
    return n, pairs.tolist()


def read_tree(path: str | Path) -> Tree:
    return Tree(*_read_pairs(path, "tree file"))


def write_tree(tree: Tree, path: str | Path) -> None:
    lines = [str(tree.n)] + [f"{u} {v}" for u, v in tree.edges]
    Path(path).write_text("\n".join(lines) + "\n")


def read_oriented_tree(path: str | Path) -> OrientedTree:
    n, arcs = _read_pairs(path, "oriented-tree file")
    return OrientedTree.from_reversed(Tree(n, arcs), [False] * (n - 1))


def write_oriented_tree(ot: OrientedTree, path: str | Path) -> None:
    lines = [str(ot.tree.n)] + [f"{u} {v}" for u, v in ot.arcs]
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph(path: str | Path) -> SimpleGraph:
    return SimpleGraph(*_read_pairs(path, "graph file"))


def read_binary_matrix(path: str | Path) -> BinaryMatrix:
    return BinaryMatrix(_read_table(path, "binary matrix file", (np.int64,), header=2)[1].tolist())


def read_cnf(path: str | Path) -> Cnf3:
    return parse_dimacs(_read_text(path))
