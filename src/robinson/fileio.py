"""File formats for matrices, trees, orientations, graphs, and CNFs.

Matrix file: first line n, then n lines of n whitespace-separated reals
(diagonal zero, asymmetric allowed).  Tree file: first line n, then n-1
lines `u v` (0-based).  Oriented-tree file: same, `u v` means u -> v.
Graph file: like a tree file but with any number of edge lines.  Binary
matrix file: first line `rows cols`, then 0/1 rows.  Lines starting with
`#` are ignored everywhere.

Headers and rows go through numpy's text parser: decimal and exponent
reals, and `nan` and `inf` (the space refuses them as non-finite); integers
in ASCII digits that fit in 64 bits.  Python-only `1_0` and non-ASCII digits
fail.
"""

from __future__ import annotations

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


def _content_lines(path: str | Path) -> list[str]:
    lines = map(str.strip, _read_text(path).splitlines())
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _parse_header(lines: list[str], what: str, count: int = 1) -> list[int]:
    """The ``count`` integers of the header line, parsed like the rows."""
    if not lines:
        raise InputError(f"{what}: empty file")
    try:
        ints = np.loadtxt(lines[:1], np.int64, comments=None, ndmin=2)[0].tolist()
    except ValueError:
        ints = []
    if len(ints) != count:
        bad = "bad header line" if count == 1 else "bad header"
        raise InputError(f"{what}: {bad} {lines[0]!r}")
    return ints


def _parse_rows(lines: list[str], dtype: type, width: int, what: str, edges=False) -> np.ndarray:
    """The rows as one (len(lines), width) array, parsed in one C-level
    pass.  Only when that fails are the rows parsed one at a time, to name
    the first one that does not parse or has the wrong length."""
    if not lines:
        return np.empty((0, width), dtype)  # refused or read as no rows, like an empty list
    try:
        table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is not None and table.shape[1] == width:
        return table
    for ln in lines:
        try:
            k = np.loadtxt([ln], dtype=dtype, comments=None, ndmin=2).shape[1]
        except ValueError:
            k = None
        if k != width:
            raise InputError(f"{what}: bad edge line {ln!r}" if edges
                             else f"{what}: bad row {ln!r}" if k is None
                             else f"{what}: row of length {k}, expected {width}")
    raise AssertionError("rows that fail together must fail one at a time")


def read_matrix(path: str | Path) -> DissimilaritySpace:
    lines = _content_lines(path)
    [n] = _parse_header(lines, "matrix file")
    if len(lines) != n + 1:
        raise InputError(f"matrix file: expected {n} rows, found {len(lines) - 1}")
    return DissimilaritySpace(_parse_rows(lines[1:], float, n, "matrix file"))


def write_matrix(space: DissimilaritySpace, path: str | Path) -> None:
    lines = [str(space.n)]
    for row in space.d:
        lines.append(" ".join(repr(float(x)) for x in row))  # repr round-trips exactly
    Path(path).write_text("\n".join(lines) + "\n")


def _read_pairs(path: str | Path, what: str) -> tuple[int, list[list[int]]]:
    """Header n and the `u v` lines of a tree, oriented-tree or graph file."""
    lines = _content_lines(path)
    [n] = _parse_header(lines, what)
    return n, _parse_rows(lines[1:], np.int64, 2, what, edges=True).tolist()


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
    lines = _content_lines(path)
    rows, cols = _parse_header(lines, "binary matrix file", 2)
    if len(lines) != rows + 1:
        raise InputError(f"binary matrix file: expected {rows} rows, found {len(lines) - 1}")
    return BinaryMatrix(_parse_rows(lines[1:], np.int64, cols, "binary matrix file").tolist())


def read_cnf(path: str | Path) -> Cnf3:
    return parse_dimacs(_read_text(path))
