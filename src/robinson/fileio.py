"""File formats for matrices, trees, orientations, graphs, and CNFs.

Matrix file: first line n, then n lines of n whitespace-separated reals
(diagonal zero, asymmetric allowed).  Tree file: first line n, then n-1
lines `u v` (0-based).  Oriented-tree file: same, `u v` means u -> v.
Graph file: like a tree file but with any number of edge lines.  Binary
matrix file: first line `rows cols`, then 0/1 rows.  Lines starting with
`#` are ignored everywhere.
"""

from __future__ import annotations

from pathlib import Path

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
    text = _read_text(path)
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]


def _parse_header_int(lines: list[str], what: str) -> int:
    if not lines:
        raise InputError(f"{what}: empty file")
    try:
        return int(lines[0])
    except ValueError as exc:
        raise InputError(f"{what}: bad header line {lines[0]!r}") from exc


def read_matrix(path: str | Path) -> DissimilaritySpace:
    lines = _content_lines(path)
    n = _parse_header_int(lines, "matrix file")
    if len(lines) != n + 1:
        raise InputError(f"matrix file: expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [float(x) for x in ln.split()]
        except ValueError as exc:
            raise InputError(f"matrix file: bad row {ln!r}") from exc
        if len(row) != n:
            raise InputError(f"matrix file: row of length {len(row)}, expected {n}")
        rows.append(row)
    return DissimilaritySpace(rows)


def write_matrix(space: DissimilaritySpace, path: str | Path) -> None:
    lines = [str(space.n)]
    for row in space.d:
        lines.append(" ".join(repr(float(x)) for x in row))  # repr round-trips exactly
    Path(path).write_text("\n".join(lines) + "\n")


def _read_pairs(lines: list[str], what: str) -> list[tuple[int, int]]:
    pairs = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"{what}: bad edge line {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputError(f"{what}: bad edge line {ln!r}") from exc
    return pairs


def read_tree(path: str | Path) -> Tree:
    lines = _content_lines(path)
    n = _parse_header_int(lines, "tree file")
    return Tree(n, _read_pairs(lines[1:], "tree file"))


def write_tree(tree: Tree, path: str | Path) -> None:
    lines = [str(tree.n)] + [f"{u} {v}" for u, v in tree.edges]
    Path(path).write_text("\n".join(lines) + "\n")


def read_oriented_tree(path: str | Path) -> OrientedTree:
    lines = _content_lines(path)
    n = _parse_header_int(lines, "oriented-tree file")
    arcs = _read_pairs(lines[1:], "oriented-tree file")
    return OrientedTree(Tree(n, arcs), arcs)


def write_oriented_tree(ot: OrientedTree, path: str | Path) -> None:
    lines = [str(ot.tree.n)] + [f"{u} {v}" for u, v in ot.arcs]
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph(path: str | Path) -> SimpleGraph:
    lines = _content_lines(path)
    n = _parse_header_int(lines, "graph file")
    return SimpleGraph(n, _read_pairs(lines[1:], "graph file"))


def read_binary_matrix(path: str | Path) -> BinaryMatrix:
    lines = _content_lines(path)
    if not lines:
        raise InputError("binary matrix file: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise InputError(f"binary matrix file: bad header {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InputError(f"binary matrix file: bad header {lines[0]!r}") from exc
    if len(lines) != rows + 1:
        raise InputError(f"binary matrix file: expected {rows} rows, found {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise InputError(f"binary matrix file: bad row {ln!r}") from exc
        if len(row) != cols:
            raise InputError(f"binary matrix file: row of length {len(row)}, expected {cols}")
        data.append(row)
    return BinaryMatrix(data)


def read_cnf(path: str | Path) -> Cnf3:
    return parse_dimacs(_read_text(path))
