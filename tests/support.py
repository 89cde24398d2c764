"""Shared generators and independent reference checks for the test suite.

Reference implementations here are deliberately literal (triple loops,
exhaustive scans) so they stay independent of the library's faster paths.
"""

from __future__ import annotations

import random
import re
from itertools import combinations, permutations, product
from pathlib import Path
from typing import Iterator

import numpy as np

from robinson import (
    BinaryMatrix,
    DissimilaritySpace,
    InputError,
    OrientedTree,
    PQTree,
    SizeGuardError,
    StarAssignment,
    Tree,
)
from robinson.c1p import P, Q, reduce_columns, universal_tree
from robinson.fileio import _content_lines, _parse_header
from robinson.oracle import _column_sets
from robinson.uniform_orient import _subset_sum, optimal_partition_of_neighbors

# size guard of enumerate_frontiers: a P-node over k leaves has k! frontiers
FRONTIER_MAX_LEAVES = 8


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


def reference_star_petals(space: DissimilaritySpace) -> Iterator[tuple[int, list[list[int]]]]:
    """(center, petal classes of all other vertices) for every center in
    index order, each class ascending and the classes by smallest member:
    the order in which the uncapped closure seeds them."""
    n = space.n
    for c in range(n):
        classes = petal_classes(space.d, c, [v for v in range(n) if v != c])
        yield c, sorted(sorted(g) for g in classes)


def reference_best_star_center(space: DissimilaritySpace) -> int:
    """Every center's full petal partition, ranked by k*(n-1-k) with k the
    balanced petal subset-sum; the first strictly larger score wins."""
    n = space.n
    best_score, best_center = -1, 0
    for center, groups in reference_star_petals(space):
        k = _subset_sum([len(g) for g in groups], n // 2)[0]
        score = k * (n - 1 - k)
        if score > best_score:
            best_score, best_center = score, center
    return best_center


def reference_assign_star(space: DissimilaritySpace, in_count: int, out_count: int):
    """The first center, in index order, whose full petal partition has an
    exact subset-sum of in_count, with its witness split; None if none."""
    for center, groups in reference_star_petals(space):
        best, chosen = _subset_sum([len(g) for g in groups], in_count)
        if best != in_count:
            continue
        inward = {v for i in chosen for v in groups[i]}
        out = [v for g in groups for v in g if v not in inward]
        return StarAssignment(center, tuple(sorted(inward)), tuple(sorted(out)))
    return None


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


def reachability(ot: OrientedTree) -> set[tuple[int, int]]:
    """All ordered pairs (u, v), u != v, with a directed path u -> ... -> v."""
    pairs: set[tuple[int, int]] = set()
    out = ot.out_adjacency
    for u in range(ot.tree.n):
        stack = list(out[u])
        while stack:
            v = stack.pop()
            pairs.add((u, v))
            stack.extend(out[v])
    return pairs


def in_adjacency(ot: OrientedTree) -> list[list[int]]:
    """Per vertex, the tails of its incoming arcs."""
    inc: list[list[int]] = [[] for _ in range(ot.tree.n)]
    for u, v in ot.arcs:
        inc[v].append(u)
    return inc


def maximal_directed_paths(ot: OrientedTree) -> Iterator[tuple[int, ...]]:
    """Yield every maximal directed path (as a vertex sequence).

    A directed path is maximal iff its start has in-degree 0 and its end has
    out-degree 0; in a tree any in/out arc at an endpoint extends the path.
    """
    out = ot.out_adjacency
    inc = in_adjacency(ot)
    for s in range(ot.tree.n):
        if inc[s] or not out[s]:
            continue
        path = [s]
        iters = [iter(out[s])]
        while iters:
            nxt = next(iters[-1], None)
            if nxt is None:
                iters.pop()
                path.pop()
                continue
            path.append(nxt)
            if out[nxt]:
                iters.append(iter(out[nxt]))
            else:
                yield tuple(path)
                path.pop()


def maximal_path_check(space: DissimilaritySpace, ot: OrientedTree) -> bool:
    """The sequence test on every maximal directed path: check_compatible's
    walk before the per-root pair kernel, kept as a reference.  Subpaths of
    a one-way-Robinson path are one-way-Robinson, so the maximal paths
    suffice, but a pair is tested again for every maximal path holding it.
    Each path is scanned here, pair by pair, by the adjacent inequalities
    d(p_i,p_k) >= d(p_i,p_{k-1}) and d(p_i,p_k) >= d(p_{i+1},p_k)."""
    d = space.d.tolist()

    def scan(path) -> bool:
        for i, a in enumerate(path[:-2]):
            for k in range(i + 2, len(path)):
                val = d[a][path[k]]
                if val < d[a][path[k - 1]] or val < d[path[i + 1]][path[k]]:
                    return False
        return True

    return all(scan(p) for p in maximal_directed_paths(ot))


def reference_first_failing_pair(d, ot: OrientedTree) -> tuple[int, int] | None:
    """The first ordered pair (a, b) of a directed path a, h, ..., p, b of
    ``ot`` with d(a,b) < d(a,p) or d(a,b) < d(h,b), or None, written from
    failing_pair's walk order alone: roots a ascending, each a's first hops
    h in adjacency order, each hop's subtree depth first, last pushed
    out-neighbour first.  One stack of (vertex, vertex before it) per hop
    over nested lists: no run table, no tails, no numpy."""
    rows = np.asarray(d).tolist()
    out = ot.out_adjacency
    for a in range(ot.tree.n):
        for h in out[a]:
            stack = [(h, a)]
            while stack:
                b, p = stack.pop()
                if rows[a][b] < rows[a][p] or rows[a][b] < rows[h][b]:
                    return a, b
                stack.extend((c, b) for c in out[b])
    return None


def reach_sizes(n: int, adj) -> list[int]:
    """Per vertex, how many vertices it reaches along the arcs ``adj``
    (itself excluded).  ``adj`` is an oriented tree's out- or in-adjacency,
    so reachable sets below a vertex are disjoint.  O(n) post-order DFS of
    its own, the reference for count_xi, which reads the tree's walk."""
    size = [-1] * n
    for root in range(n):
        if size[root] >= 0:
            continue
        stack = [(root, False)]
        while stack:
            x, done = stack.pop()
            if done:
                size[x] = sum(1 + size[y] for y in adj[x])
            elif size[x] < 0:
                stack.append((x, True))
                for y in adj[x]:
                    if size[y] < 0:
                        stack.append((y, False))
    return size


def has_central_vertex(ot: OrientedTree) -> int | None:
    """A vertex with a directed path to or from every other vertex, if one
    exists (lowest index wins)."""
    n = ot.tree.n
    reach_out = reach_sizes(n, ot.out_adjacency)
    reach_in = reach_sizes(n, in_adjacency(ot))
    for x in range(n):
        if reach_out[x] + reach_in[x] == n - 1:
            return x
    return None


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
    columns = (sum(1 << int(t) for t in np.flatnonzero(c)) for c in cols)
    return reduce_columns(universal_tree(n), columns)


def _bits(x: int) -> list[int]:
    """The set bits of x, ascending."""
    return [r for r in range(x.bit_length()) if x >> r & 1]


class _RefNode:
    """A node of the reference reducer, independent of `c1p._Node`: one
    node per leaf as well as per P- or Q-node.  A leaf holds its row as the
    one bit of `leaves` and has no children; any other node has `leaves` 0
    and every child, leaves included, in `children`, in order.  Prints as
    the library's nodes do, a leaf as its row."""

    __slots__ = ("kind", "children", "leaves", "mask")

    def __init__(self, kind: str, children: list["_RefNode"], leaves: int = 0):
        self.kind, self.children, self.leaves, self.mask = kind, children, leaves, leaves
        for c in children:
            self.mask |= c.mask

    def __repr__(self) -> str:
        if self.leaves:
            return str(self.leaves.bit_length() - 1)
        return f"{self.kind}({', '.join(map(repr, self.children))})"


def reference_universal(rows: int) -> _RefNode:
    """The reference's tree of every order of `rows` rows: one P-node over
    one leaf node per row, or the leaf itself for one row."""
    return _p_over([_RefNode(P, [], 1 << r) for r in range(rows)])


def _classes(children: list[_RefNode], s: int) -> str:
    """One letter per child against column s: E(mpty), F(ull) or X (partial)."""
    return "".join("E" if not c.mask & s else "F" if c.mask & s == c.mask else "X" for c in children)


def _p_over(nodes: list[_RefNode]) -> _RefNode:
    """One P-node over the nodes, or the node itself when there is one."""
    return nodes[0] if len(nodes) == 1 else _RefNode(P, nodes)


def _reference_partial(node: _RefNode, s: int) -> list[_RefNode] | None:
    """The templates at a partial node below the pertinent root, by
    recursion over its one partial child: its subtree as a flat list of
    nodes, empty side to full side, or None."""
    children = node.children
    letters = _classes(children, s)
    if node.kind == Q:
        if not re.fullmatch("E*X?F*", letters):  # full end on the right, or else on the left
            children, letters = children[::-1], letters[::-1]
            if not re.fullmatch("E*X?F*", letters):
                return None
        if "X" not in letters:
            return list(children)
        x = letters.index("X")
        inner = _reference_partial(children[x], s)
        return None if inner is None else children[:x] + inner + children[x + 1 :]
    if letters.count("X") > 1:
        return None
    inner = _reference_partial(children[letters.index("X")], s) if "X" in letters else []
    if inner is None:
        return None
    empties = [c for c, k in zip(children, letters) if k == "E"]
    fulls = [c for c, k in zip(children, letters) if k == "F"]
    return ([_p_over(empties)] if empties else []) + inner + ([_p_over(fulls)] if fulls else [])


def _reference_p_root(node: _RefNode, s: int) -> _RefNode | None:
    """The P-node root templates, returning a new node with the same leaf
    set (or the node itself when it is all full), or None."""
    children = node.children
    letters = _classes(children, s)
    empties = [c for c, k in zip(children, letters) if k == "E"]
    fulls = [c for c, k in zip(children, letters) if k == "F"]
    partials = [c for c, k in zip(children, letters) if k == "X"]
    if not partials:
        return node if not empties else _p_over(empties + [_p_over(fulls)])
    if len(partials) > 2:
        return None
    payloads = [_reference_partial(c, s) for c in partials]
    if any(p is None for p in payloads):
        return None
    inner = payloads[0] + ([_p_over(fulls)] if fulls else []) + (payloads[1][::-1] if len(payloads) == 2 else [])
    return _p_over(empties + [_RefNode(Q, inner)])


def _reference_q_root(node: _RefNode, s: int) -> _RefNode | None:
    """The Q-node root templates by scanning every child's pertinent leaves:
    empties, optional partial, fulls, optional partial, empties."""
    children = node.children
    letters = _classes(children, s)
    if not re.fullmatch("E*X?F*X?E*", letters):
        return None
    lo, hi = len(letters) - len(letters.lstrip("E")), len(letters.rstrip("E")) - 1
    if "X" not in letters:
        return node
    first = [children[lo]] if letters[lo] == "F" else _reference_partial(children[lo], s)
    last = [children[hi]] if letters[hi] == "F" else _reference_partial(children[hi], s)
    if first is None or last is None:
        return None
    # a new node, so its mask is built from scratch
    return _RefNode(Q, children[:lo] + first + children[lo + 1 : hi] + last[::-1] + children[hi + 1 :])


def reference_reduce(root: _RefNode, s: int) -> _RefNode | None:
    """One column by the child-scanning reducer, the reference for
    `c1p._reduce`: every node on the way down to the pertinent root, the
    root and every partial node below it are read by AND-ing the column with
    each child's mask, and a rearranged root is a new node spliced into its
    parent.  No template of the library is called."""
    parent, node = None, root
    hits = [c.mask & s for c in node.children]
    while s in hits:
        parent, node = node, node.children[hits.index(s)]
        hits = [c.mask & s for c in node.children]
    replacement = _reference_q_root(node, s) if node.kind == Q else _reference_p_root(node, s)
    if replacement is None or parent is None:
        return replacement
    if replacement is not node:
        parent.children[parent.children.index(node)] = replacement
    return root


def enumerate_frontiers(t: PQTree) -> set[tuple[int, ...]]:
    """All frontiers of the tree, guarded against blow-up."""
    if t.num_leaves > FRONTIER_MAX_LEAVES:
        raise SizeGuardError(f"frontier enumeration limited to {FRONTIER_MAX_LEAVES} leaves")

    def orders(node):
        # a leaf bit has one order of its own; the rest expand recursively
        parts = [((r,),) for r in _bits(node.leaves)] + [tuple(orders(c)) for c in node.children]
        arrangements = permutations(parts) if node.kind == P else (parts, parts[::-1])
        for arr in arrangements:
            for pieces in product(*arr):
                yield tuple(x for piece in pieces for x in piece)

    return set(orders(t._root))


def pq_to_nested(t: PQTree):
    """Nested-tuple view of a PQ-tree, e.g. ('P', (0, ('Q', (1, 2, 3))))."""

    def conv(node):
        rows = _bits(node.leaves)
        if len(rows) == 1 and not node.children:
            return rows[0]
        return (node.kind, tuple(rows) + tuple(conv(c) for c in node.children))

    return conv(t._root)


def validate_pq_tree(t: PQTree) -> None:
    """Assert structural invariants: leaf coverage; a Q-node holds no leaf
    bits and a P-node lists no leaf among its children; node arities, where
    every node but a one-bit leaf has at least 2 leaves plus children (3
    children for a Q-node); and each node's prefix unions recomputed from
    its children, with mask = leaves | pre[-1]."""
    leaves: list[int] = []
    stack = [t._root]
    while stack:
        node = stack.pop()
        rows = _bits(node.leaves)
        leaves += rows
        k = len(rows) + len(node.children)
        if node.kind == Q and node.leaves:
            raise AssertionError(f"Q-node {node!r} holds leaf bits {rows}")
        if node.kind == P and any(not c.children and c.leaves.bit_count() == 1 for c in node.children):
            raise AssertionError(f"P-node {node!r} lists a leaf as a child")
        if k < 2 and not (len(rows) == 1 and not node.children):
            raise AssertionError(f"{node.kind}-node with {k} leaves plus children")
        if node.kind == Q and k < 3:
            raise AssertionError(f"Q-node with {k} children")
        pre = [0]
        for c in node.children:
            pre.append(pre[-1] | c.mask)
        if node.pre != pre:
            raise AssertionError(f"stale prefix unions on {node!r}")
        if node.mask != node.leaves | pre[-1]:
            raise AssertionError(f"mask of {node!r} is not its leaves and its children's")
        stack.extend(node.children)
    if sorted(leaves) != list(range(t.num_leaves)):
        raise AssertionError("leaves are not exactly the row indices")


def reference_read_matrix(path: str | Path) -> DissimilaritySpace:
    """The matrix reader with one Python float() per token: the reference
    for the values `fileio.read_matrix` parses in one pass."""
    lines = _content_lines(path)
    [n] = _parse_header(lines, "matrix file")
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


CYCLE = "edges contain a cycle"


def reference_tree_faults(n: int, edges) -> list[str]:
    """Every fault of an edge list, in edge order, by the union-find
    validator: a self-loop, an endpoint outside 0..n-1, a repeat of an
    earlier edge in either direction, or an edge closing a cycle.  A faulty
    edge is skipped and the scan goes on, so the first entry is the one
    fault a validator that stops at the first would name."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    seen: set[tuple[int, int]] = set()
    faults = []
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if u == v:
            faults.append(f"self-loop at vertex {u}")
        elif not (0 <= u < n and 0 <= v < n):
            faults.append(f"edge ({u}, {v}) out of range for n={n}")
        elif key in seen:
            faults.append(f"duplicate edge ({u}, {v})")
        else:
            seen.add(key)
            ru, rv = find(u), find(v)
            if ru == rv:
                faults.append(CYCLE)
            else:
                parent[ru] = rv
    return faults


def bfs_rooted(t: Tree, root: int) -> tuple[list[int], list[int], list[int]]:
    """The BFS order from root over t.adjacency, the parent array (-1 at
    the root) and every vertex's subtree size."""
    parent = [-1] * t.n
    parent[root] = root
    order = [root]
    for x in order:
        for y in t.adjacency[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    parent[root] = -1
    size = [1] * t.n
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    return order, parent, size


def reference_centroid(t: Tree) -> int:
    """The centroid reached by walking from vertex 0 toward the one
    component of more than n/2 vertices until none is left: the one nearer
    vertex 0 when n is even and there are two."""
    n = t.n
    _, parent, size = bfs_rooted(t, 0)
    center = 0
    while True:
        heavy = [
            y for y in t.adjacency[center]
            if 2 * (size[y] if parent[y] == center else n - size[center]) > n
        ]
        if not heavy:
            return center
        center = heavy[0]


def reference_orient_all_robinson(t: Tree) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """The centroid, the arcs (aligned with t.edges) and xi of the uniform
    orientation, by two walks: a BFS with subtree sizes from vertex 0 finds
    the centroid, walking toward the too-big component, and a second BFS
    from the centroid gives each vertex its component head, the depth sum
    and every edge's endpoint away from the centroid."""
    n = t.n
    center = reference_centroid(t)
    order, parent, size = bfs_rooted(t, center)
    heads = t.adjacency[center]
    k, chosen = optimal_partition_of_neighbors([size[y] for y in heads], n)
    inward_heads = {heads[i] for i in chosen}
    head = [-1] * n
    for x in order[1:]:
        head[x] = x if parent[x] == center else head[parent[x]]
    arcs = []
    for u, v in t.edges:
        child, par = (v, u) if parent[v] == u else (u, v)
        arcs.append((child, par) if head[child] in inward_heads else (par, child))
    return center, tuple(arcs), sum(size) - n + k * (n - 1 - k)


def role_index(inst) -> dict[str, int]:
    """A reduction instance's vertex index by role name (`vertex_roles`
    inverted)."""
    return {name: v for v, name in inst.vertex_roles.items()}


# the z-pattern table restated: the truth values of a clause's three
# literals at z{j}_1 .. z{j}_7
Z_PATTERNS = (
    (True, False, False),
    (False, True, False),
    (False, False, True),
    (True, True, False),
    (True, False, True),
    (False, True, True),
    (True, True, True),
)


def reference_witness_arcs(inst, assignment) -> set[tuple[int, int]] | None:
    """The witness orientation of a 3-CNF instance as the proof states it,
    with every vertex found by its `vertex_roles` name alone: each selector
    x{i} points to the hub y; a True variable's plus leaves x{i}+{k} point
    to x{i} and its minus leaves x{i}-{k} away from it, a False variable's
    the other way round; of each clause's z{j}_{l}, the one whose pattern
    matches the literals' truth values points away from the hub and the
    other six to it.  None if some clause has no true literal."""
    truths = [
        tuple(bool(assignment[abs(lit) - 1]) == (lit > 0) for lit in clause)
        for clause in inst.cnf.clauses
    ]
    if not all(any(t) for t in truths):
        return None
    index = role_index(inst)
    hub = index["y"]
    arcs = set()
    for v, name in inst.vertex_roles.items():
        if name == "y":
            continue
        if m := re.fullmatch(r"x(\d+)", name):
            arcs.add((v, hub))
        elif m := re.fullmatch(r"x(\d+)([+-])\d+", name):
            i = int(m[1])
            selector = index[f"x{i}"]
            points_in = bool(assignment[i - 1]) == (m[2] == "+")
            arcs.add((v, selector) if points_in else (selector, v))
        elif m := re.fullmatch(r"z(\d+)_(\d+)", name):
            chosen = Z_PATTERNS[int(m[2]) - 1] == truths[int(m[1]) - 1]
            arcs.add((hub, v) if chosen else (v, hub))
        else:
            raise AssertionError(f"unknown role {name!r}")
    return arcs


def reference_assignment_arcs(n: int, kappa: int) -> list[tuple[int, int]]:
    """The oriented assignment path on positions 0..n-1: forward along the
    first kappa positions, then alternating, starting backward."""
    arcs = []
    backward = False
    for t in range(1, n):
        if t < kappa:
            arcs.append((t - 1, t))
            continue
        backward = not backward
        arcs.append((t, t - 1) if backward else (t - 1, t))
    return arcs
