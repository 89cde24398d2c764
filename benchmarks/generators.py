"""Seeded input generators whose expected answers hold by construction,
plus the benchmark's own reference computations.

Nothing here calls the library: every expected answer is either planted
(YES spaces, planted obstructions, spoke spaces, one-petal spaces, line
spaces) or computed by an independent formulation (path and tree optima).
`test_benchmark.py` spot-checks these against the brute-force oracles.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np


def _relabel(d_by_position: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Matrix over labels where label perm[i] sits at position i."""
    d = np.empty_like(d_by_position)
    d[np.ix_(perm, perm)] = d_by_position
    return d


def planted_two_way(rng: np.random.Generator, n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Asymmetric two-way-Robinson matrix and its planted compatible order.

    Upper entries (forward triples) come from one sorted line, lower entries
    (backward triples) from another, so the identity order of positions is
    compatible both ways; labels are then shuffled.
    """
    fwd = np.sort(rng.uniform(0.0, 10.0, n))
    bwd = np.sort(rng.uniform(0.0, 10.0, n))
    pos = np.arange(n)
    d = np.where(
        pos[:, None] < pos[None, :],
        np.abs(fwd[:, None] - fwd[None, :]),
        np.abs(bwd[:, None] - bwd[None, :]),
    )
    perm = rng.permutation(n)
    return _relabel(d, perm), tuple(int(v) for v in perm)


def _one_way_literal(d: np.ndarray, order) -> bool:
    k = len(order)
    for a in range(k):
        for b in range(a + 1, k):
            for c in range(b + 1, k):
                pa, pb, pc = order[a], order[b], order[c]
                if d[pa, pc] < d[pa, pb] or d[pa, pc] < d[pb, pc]:
                    return False
    return True


def is_two_way_literal(d: np.ndarray) -> bool:
    """Exhaustive two-way test from the triple definition (tiny n only)."""
    return any(
        _one_way_literal(d, p) and _one_way_literal(d, p[::-1])
        for p in permutations(range(d.shape[0]))
    )


def obstruction(rng: np.random.Generator) -> np.ndarray:
    """A 4-point space that is not two-way-Robinson, checked exhaustively."""
    while True:
        g = rng.integers(1, 10, size=(4, 4)).astype(float)
        np.fill_diagonal(g, 0.0)
        if not is_two_way_literal(g):
            return g


def planted_no(rng: np.random.Generator, n: int, gadget: np.ndarray) -> np.ndarray:
    """A planted two-way space with a non-two-way 4-point sub-space written
    over it.  Two-way-Robinson is hereditary, so the whole space is certainly
    NO.  The obstruction takes four consecutive labels a quarter of the way
    up (random points of the planted order), so a search through anchor
    pairs in label order meets it at a similar point on every seed."""
    d, _ = planted_two_way(rng, n)
    pts = np.arange(4) + min(n // 4, n - 4)
    d[np.ix_(pts, pts)] = gadget
    return d


def pruefer_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Edges of a uniform random labelled tree (linear-time Pruefer decoding)."""
    seq = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = degree.index(1)
    leaf = ptr
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def spider_edges(legs: int, length: int) -> list[tuple[int, int]]:
    """Centre 0 with `legs` paths of `length` vertices each."""
    edges = []
    v = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, v))
            prev = v
            v += 1
    return edges


def _bfs(adj: list[list[int]], root: int) -> tuple[list[int], list[int], list[int]]:
    """BFS order, parent (-1 at the root) and depth of every vertex."""
    parent = [-1] * len(adj)
    depth = [-1] * len(adj)
    depth[root] = 0
    order = [root]
    for x in order:
        for y in adj[x]:
            if depth[y] < 0:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
    return order, parent, depth


def _subtree_sizes(order: list[int], parent: list[int]) -> list[int]:
    size = [1] * len(order)
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    return size


def uniform_tree_optimum(n: int, edges) -> int:
    """Largest xi of any orientation when every path is Robinson.

    From a centroid every component is oriented wholly toward or away from
    it: xi = (sum of depths) + |In| * |Out|, with |In| the achievable sum of
    component sizes closest to (n - 1) / 2.  Both centroids of an even tree
    give the same value.
    """
    if n == 1:
        return 0
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, parent, _ = _bfs(adj, 0)
    size = _subtree_sizes(order, parent)
    centre = next(
        x
        for x in order
        if 2 * max([n - size[x]] + [size[y] for y in adj[x] if parent[y] == x]) <= n
    )
    order, parent, depth = _bfs(adj, centre)
    size = _subtree_sizes(order, parent)
    sums = 1  # bit s set: some set of components has s vertices in total
    for y in adj[centre]:
        sums |= sums << size[y]
    best = max(s * (n - 1 - s) for s in range(n) if sums >> s & 1)
    return sum(depth) + best


def int_matrix_text(d: np.ndarray) -> str:
    """Matrix file text for an integer-valued matrix (exact as reals)."""
    rows = d.astype(np.int64).tolist()
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def zigzag_path(rng: np.random.Generator, n: int, turn: float) -> tuple[np.ndarray, list[int]]:
    """Symmetric integer matrix of points walked along a line that turns back
    with probability `turn` per step, and the walk order.  Monotone stretches
    are Robinson runs; each turn breaks a run."""
    steps = rng.integers(1, 20, size=n)
    steps[0] = 0
    signs = np.where(rng.random(n) < turn, -1, 1)
    coords = np.cumsum(steps * np.cumprod(signs))
    perm = rng.permutation(n)
    d = _relabel(np.abs(coords[:, None] - coords[None, :]), perm)
    return d, [int(v) for v in perm]


def path_optimum(d: np.ndarray, order) -> int:
    """Largest xi of a compatible orientation of the path `order`, symmetric d.

    An orientation splits the path into runs sharing their end vertices, with
    directions alternating, so xi = sum of C(run length, 2) and every run
    must be Robinson.  eta[i] (the farthest end of a Robinson run from i)
    comes from a column scan; the optimum is a 1-D DP over run ends.
    """
    m = d[np.ix_(order, order)]
    n = len(order)
    # last_bad[c]: largest a < c - 1 such that appending c to a run that
    # starts at or before a breaks the Robinson condition
    last_bad = [-1] * n
    for c in range(2, n):
        a = np.arange(c - 1)
        bad = (m[a, c] < m[a, c - 1]) | (m[c, a] < m[c, a + 1])
        hits = np.flatnonzero(bad)
        last_bad[c] = int(hits[-1]) if hits.size else -1
    eta = [0] * n
    for i in range(n - 1):
        j = i + 1
        while j + 1 < n and last_bad[j + 1] < i:
            j += 1
        eta[i] = j
    best = [0] + [-1] * (n - 1)
    for b in range(1, n):
        best[b] = max(best[a] + (b - a + 1) * (b - a) // 2 for a in range(b) if eta[a] >= b)
    return best[n - 1]


def spoke_matrix(rng: np.random.Generator, rays: int, length: int) -> np.ndarray:
    """Symmetric tree metric of a hub and `rays` rays of `length` points at
    distinct integer radii.  From the hub the petals are exactly the rays.
    The hub gets the last label, so a search over centres in label order
    reaches it last."""
    radius = np.concatenate(
        [[0]] + [np.sort(rng.choice(np.arange(1, 1000), size=length, replace=False)) for _ in range(rays)]
    )
    ray = np.concatenate([[-1]] + [[k] * length for k in range(rays)])
    same = ray[:, None] == ray[None, :]
    d = np.where(same, np.abs(radius[:, None] - radius[None, :]), radius[:, None] + radius[None, :])
    np.fill_diagonal(d, 0)
    n = d.shape[0]
    return _relabel(d, np.concatenate([[n - 1], rng.permutation(n - 1)]))


def one_petal_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random symmetric integer matrix (n even) in which every centre has a
    single petal: vertices are paired, each pair at a distance larger than
    any other entry, so the partner of a centre x is forced together with
    every other neighbour of x."""
    upper = np.triu(rng.integers(1000, 2000, size=(n, n)), 1)
    d = upper + upper.T
    pairs = rng.permutation(n).reshape(-1, 2)
    far = rng.integers(3000, 4000, size=len(pairs))
    d[pairs[:, 0], pairs[:, 1]] = far
    d[pairs[:, 1], pairs[:, 0]] = far
    return d


def line_matrix(rng: np.random.Generator, n: int) -> tuple[np.ndarray, list[int]]:
    """Symmetric integer matrix of points on a line and their line order."""
    coords = np.sort(rng.choice(10**6, size=n, replace=False))
    perm = rng.permutation(n)
    d = _relabel(np.abs(coords[:, None] - coords[None, :]), perm)
    return d, [int(v) for v in perm]
