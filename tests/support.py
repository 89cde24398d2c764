"""Shared generators and independent reference checks for the test suite.

Reference implementations here are deliberately literal (triple loops,
exhaustive scans) so they stay independent of the library's faster paths.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from robinson import BinaryMatrix, DissimilaritySpace, InputError, PQTree, Tree
from robinson.c1p import LEAF, P, Q, reduce_columns
from robinson.fileio import _content_lines, _parse_header_int
from robinson.oracle import _column_sets


def triple_one_way(d, order) -> bool:
    """Literal definition: d(p_i,p_k) >= max(d(p_i,p_j), d(p_j,p_k)) for i<j<k."""
    k = len(order)
    for a in range(k):
        for b in range(a + 1, k):
            for c in range(b + 1, k):
                pa, pb, pc = order[a], order[b], order[c]
                if d[pa][pc] < d[pa][pb] or d[pa][pc] < d[pb][pc]:
                    return False
    return True


def triple_two_way(d, order) -> bool:
    return triple_one_way(d, order) and triple_one_way(d, list(reversed(order)))


def lexmin_optimal_path_breakpoints(d, order) -> tuple[int, tuple[int, ...]]:
    """Exhaustive path optimum: over every set of interior breakpoints whose
    runs all pass `triple_one_way`, the largest sum of C(run length, 2), and
    the lexicographically smallest sorted breakpoint set attaining it."""
    n = len(order)
    valid = {
        (a, b): triple_one_way(d, order[a : b + 1]) for a in range(n) for b in range(a + 1, n)
    }
    best: tuple[int, tuple[int, ...]] | None = None
    for mask in range(1 << max(n - 2, 0)):
        breaks = tuple(p for p in range(1, n - 1) if mask >> (p - 1) & 1)
        bounds = (0,) + breaks + (n - 1,)
        runs = list(zip(bounds, bounds[1:]))
        if not all(valid[run] for run in runs):
            continue
        score = sum((b - a + 1) * (b - a) // 2 for a, b in runs)
        if best is None or score > best[0] or (score == best[0] and breaks < best[1]):
            best = (score, breaks)
    assert best is not None  # single-edge runs are always valid
    return best


def random_space(rng: random.Random, n: int, values=None, symmetric=False) -> DissimilaritySpace:
    """Random space with entries drawn from `values` (uniform reals if None)."""
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if symmetric and j < i:
                d[i, j] = d[j, i]
            else:
                d[i, j] = rng.choice(values) if values else rng.uniform(0.5, 3.0)
    return DissimilaritySpace(d)


def planted_symmetric_robinson(rng: random.Random, n: int) -> tuple[DissimilaritySpace, list[int]]:
    """Symmetric Robinson space built from points on a line, labels shuffled.

    Returns the space and the planted compatible order.
    """
    coords = sorted(rng.uniform(0, 10) for _ in range(n))
    perm = list(range(n))
    rng.shuffle(perm)  # perm[i] = label of the i-th point on the line
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[perm[i], perm[j]] = abs(coords[i] - coords[j])
    return DissimilaritySpace(d), perm


def planted_two_way_space(rng: random.Random, n: int) -> tuple[DissimilaritySpace, list[int]]:
    """Asymmetric two-way-Robinson space: independent line metrics drive the
    forward (upper) and backward (lower) triple families."""
    fwd = sorted(rng.uniform(0, 10) for _ in range(n))
    bwd = sorted(rng.uniform(0, 10) for _ in range(n))
    perm = list(range(n))
    rng.shuffle(perm)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i < j:
                d[perm[i], perm[j]] = abs(fwd[i] - fwd[j])
            elif i > j:
                d[perm[i], perm[j]] = abs(bwd[i] - bwd[j])
    return DissimilaritySpace(d), perm


def random_tree(rng: random.Random, n: int) -> Tree:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if n == 1:
        return Tree(1, [])
    if n == 2:
        return Tree(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_pruefer(n, seq)


def tree_from_pruefer(n: int, seq: list[int]) -> Tree:
    import heapq

    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(n, edges)


def star_tree(n: int, center: int = 0) -> Tree:
    return Tree(n, [(center, v) for v in range(n) if v != center])


def component_sizes(t: Tree, center: int) -> list[int]:
    """Vertex count of each component of t minus center, in adjacency order."""
    sizes = []
    for y in t.adjacency[center]:
        seen = {center, y}
        stack = [y]
        while stack:
            for z in t.adjacency[stack.pop()]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        sizes.append(len(seen) - 1)
    return sizes


def petal_classes(d, x: int, candidates) -> set[frozenset[int]]:
    """Union-find over every candidate pair (t, z) with
    d(t,z) < max(d(x,t), d(x,z)); the classes as a set of frozensets."""
    root = {v: v for v in candidates}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for t, z in combinations(candidates, 2):
        if d[t, z] < max(d[x, t], d[x, z]):
            root[find(t)] = find(z)
    classes: dict[int, set[int]] = {}
    for v in candidates:
        classes.setdefault(find(v), set()).add(v)
    return {frozenset(c) for c in classes.values()}


def tree_path(t: Tree, u: int, v: int) -> tuple[int, ...]:
    """Vertex sequence of the unique u-v path in t (endpoints included)."""
    prev = {u: u}
    queue = [u]
    for x in queue:
        if x == v:
            break
        for y in t.adjacency[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    seq = [v]
    while seq[-1] != u:
        seq.append(prev[seq[-1]])
    return tuple(reversed(seq))


def path_tree(order) -> Tree:
    n = len(order)
    return Tree(n, [(order[i], order[i + 1]) for i in range(n - 1)])


def valid_c1p_perms(matrix) -> set[tuple[int, ...]]:
    """All row permutations making every column's ones consecutive."""
    cols = [c for c in _column_sets(matrix) if len(c) > 1]
    good = set()
    for perm in permutations(range(matrix.rows)):
        pos = {r: i for i, r in enumerate(perm)}
        if all(max(pos[r] for r in c) - min(pos[r] for r in c) + 1 == len(c) for c in cols):
            good.add(perm)
    return good


def matrix_from_columns(rows: int, columns):
    """0/1 matrix built from per-column row-index sets."""
    sets = [set(c) for c in columns]
    return BinaryMatrix([[1 if r in s else 0 for s in sets] for r in range(rows)])


def planted_c1p_matrix(rng: random.Random, rows: int, cols: int):
    """0/1 matrix whose columns are intervals of a hidden row order."""
    hidden = list(range(rows))
    rng.shuffle(hidden)
    data = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        a = rng.randrange(rows)
        b = rng.randrange(rows)
        lo, hi = min(a, b), max(a, b)
        for p in range(lo, hi + 1):
            data[hidden[p]][j] = 1
    return BinaryMatrix(data)


def membership_tensor(space: DissimilaritySpace) -> np.ndarray:
    """Boolean tensor m[x, y, t] = (t is in S(x, y)) over every ordered pair,
    n^3 entries at once: the reference for recognition's segment columns."""
    d = space.d
    one_sided = (d[:, :, None] >= d[:, None, :]) & (d[:, :, None] >= d.T[None, :, :])
    return one_sided & one_sided.transpose(1, 0, 2)


def full_segment_reduction(space: DissimilaritySpace):
    """PQ-tree of every x < y segment column, reduced in row-major (x, y)
    order, or None: the recognizer before verify-and-refine, whose frontier
    set is exactly the set of compatible orders."""
    n = space.n
    cols = membership_tensor(space)[~np.tri(n, dtype=bool)]
    return reduce_columns(n, (sum(1 << int(t) for t in np.flatnonzero(c)) for c in cols))


def pq_to_nested(t: PQTree):
    """Nested-tuple view of a PQ-tree, e.g. ('P', (0, ('Q', (1, 2, 3))))."""

    def conv(node):
        if node.kind == LEAF:
            return node.row
        return (node.kind, tuple(conv(c) for c in node.children))

    return conv(t._root)


def validate_pq_tree(t: PQTree) -> None:
    """Assert structural invariants (leaf coverage, node arities)."""
    leaves: list[int] = []
    stack = [t._root]
    while stack:
        node = stack.pop()
        if node.kind == LEAF:
            leaves.append(node.row)
        else:
            k = len(node.children)
            if node.kind == P and k < 2:
                raise AssertionError(f"P-node with {k} children")
            if node.kind == Q and k < 3:
                raise AssertionError(f"Q-node with {k} children")
            stack.extend(node.children)
    if sorted(leaves) != list(range(t.num_leaves)):
        raise AssertionError("leaves are not exactly the row indices")


def reference_read_matrix(path: str | Path) -> DissimilaritySpace:
    """The matrix reader with one Python float() per token: the reference
    for the values `fileio.read_matrix` parses in one pass."""
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
