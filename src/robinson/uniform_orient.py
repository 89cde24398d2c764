"""Optimal orientation of an arbitrary tree when every path in it is
Robinson for d.

The optimum always has a central vertex; fixing a centroid as that vertex,
the problem reduces to splitting the centroid's neighbor subtrees into an
In side and an Out side of sizes as balanced as achievable, which is a
bitset subset-sum over the subtree sizes.  The optimum is then a closed
sum, the depths below the centroid plus |In|*|Out|, so nothing recounts
the orientation.  Apart from the subset-sum and the optional premise
check, every step is linear.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import DissimilaritySpace, OrientedTree, Tree, reach_sizes
from .errors import InputError, PreconditionError, SizeGuardError

# the premise check refuses larger trees: it is O(n^3), some 6 s at 600
# points on a monotone path
PREMISE_MAX_POINTS = 1000


def _guard_premise(n: int) -> None:
    if n > PREMISE_MAX_POINTS:
        raise SizeGuardError(
            f"premise verification of {n} points exceeds the limit of {PREMISE_MAX_POINTS}"
        )


def verify_all_paths_robinson(space: DissimilaritySpace, t: Tree) -> bool:
    """True iff for every ordered pair (u, v) the u-to-v tree path is
    one-way-Robinson.  O(n^3): a DFS per root with O(length) checks per
    extension (monotone row/column growth is equivalent to the triple
    condition once the prefix is known good).  Refused above
    PREMISE_MAX_POINTS points."""
    if space.n != t.n:
        raise InputError(f"space has {space.n} points but tree has {t.n} vertices")
    _guard_premise(t.n)
    d = space.d.tolist()  # list reads; numpy would box a scalar per read
    adj = t.adjacency
    for root in range(t.n):
        path = [root]
        iters = [iter(adj[root])]
        parents = [-1]
        while iters:
            nxt = next(iters[-1], None)
            if nxt is None:
                iters.pop()
                path.pop()
                parents.pop()
                continue
            if nxt == parents[-1]:
                continue
            k = len(path)
            tail = path[k - 1]
            for j in range(1, k):
                if d[path[j]][nxt] > d[path[j - 1]][nxt]:
                    return False
            for i in range(k - 1):
                row = d[path[i]]
                if row[tail] > row[nxt]:
                    return False
            path.append(nxt)
            parents.append(tail)
            iters.append(iter(adj[nxt]))
    return True


def _sizes_rooted_at(t: Tree, root: int) -> tuple[list[int], list[int], list[int]]:
    """BFS order, parent array and subtree sizes for the tree rooted at root."""
    n = t.n
    adj = t.adjacency
    parent = [-1] * n
    order = [root]
    parent[root] = root
    for x in order:
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    parent[root] = -1
    size = [1] * n
    for x in reversed(order):
        if parent[x] >= 0:
            size[parent[x]] += size[x]
    return order, parent, size


def find_centroid(t: Tree) -> int:
    """A vertex none of whose removal components exceeds n/2 vertices.

    O(n): compute subtree sizes from vertex 0, then walk toward the unique
    too-big component until none remains; the first valid vertex on that
    walk is returned (even n can have two valid centroids).
    """
    n = t.n
    if n == 1:
        return 0
    _, parent, size = _sizes_rooted_at(t, 0)
    adj = t.adjacency
    x = 0
    while True:
        heavy = -1
        for y in adj[x]:
            comp = size[y] if parent[y] == x else n - size[x]
            if 2 * comp > n:
                heavy = y
                break
        if heavy < 0:
            return x
        x = heavy


def _subset_sum(weights: Sequence[int], cap: int) -> tuple[int, tuple[int, ...]]:
    """The largest sum <= cap over subsets of the weights, and the indices
    of one subset attaining it (ties broken toward exclusion).

    Bit s of reach[j] says some subset of the first j weights sums to s;
    the witness is backtracked from the last weight.  O(p * cap / wordsize).
    """
    mask = (1 << cap + 1) - 1
    reach = [1]
    for w in weights:
        reach.append((reach[-1] | reach[-1] << w) & mask)
    best = reach[-1].bit_length() - 1
    chosen: list[int] = []
    target = best
    for j in range(len(weights), 0, -1):
        if not reach[j - 1] >> target & 1:
            chosen.append(j - 1)
            target -= weights[j - 1]
    chosen.reverse()
    return best, tuple(chosen)


def optimal_partition_of_neighbors(
    weights: Sequence[int], n: int
) -> tuple[int, tuple[int, ...]]:
    """The largest achievable In-size <= floor(n/2) over the component
    sizes, with one index subset attaining it (ties broken toward
    exclusion); it maximizes |In|*|Out| over achievable splits.
    """
    total = sum(weights)
    for w in weights:
        if w < 1:
            raise InputError(f"component weight {w} must be >= 1")
        if w > n:
            raise InputError(f"component weight {w} exceeds n={n}")
    if total > n - 1:
        raise InputError(f"weights sum to {total}, more than n-1={n - 1}")
    return _subset_sum(weights, n // 2)


def orient_all_robinson(
    space: Optional[DissimilaritySpace],
    t: Tree,
    verify_premise: bool = False,
) -> tuple[OrientedTree, int]:
    """Optimal compatible orientation under the all-paths-Robinson premise.

    Every component of T minus the centroid is oriented uniformly toward or
    away from it, the In side chosen by the subset-sum over their sizes.  The premise is
    the caller's promise unless verify_premise is set (it costs O(n^3), more
    than the algorithm, and is refused above PREMISE_MAX_POINTS points);
    space may be None when no verification is requested.
    """
    if space is not None and space.n != t.n:
        raise InputError(f"space has {space.n} points but tree has {t.n} vertices")
    if verify_premise:
        if space is None:
            raise InputError("premise verification needs the dissimilarity space")
        _guard_premise(t.n)
        if not verify_all_paths_robinson(space, t):
            raise PreconditionError("some tree path is not Robinson for d")
    n = t.n
    if n == 1:
        return OrientedTree(t, []), 0
    center = find_centroid(t)
    order, parent, size = _sizes_rooted_at(t, center)
    heads = t.adjacency[center]
    k, chosen = optimal_partition_of_neighbors([size[y] for y in heads], n)
    inward_heads = {heads[i] for i in chosen}
    # component head of every vertex (the centroid neighbor above it)
    head = [-1] * n
    for x in order:
        if x == center:
            continue
        head[x] = x if parent[x] == center else head[parent[x]]
    arcs = []
    for u, v in t.edges:
        child = v if parent[v] == u else u
        par = u if child == v else v
        if head[child] in inward_heads:
            arcs.append((child, par))
        else:
            arcs.append((par, child))
    # each vertex reaches or is reached by its ancestors (depth of them, as
    # sum(size) - n counts), and every In vertex reaches every Out vertex
    return OrientedTree(t, arcs), sum(size) - n + k * (n - 1 - k)


def has_central_vertex(ot: OrientedTree) -> Optional[int]:
    """A vertex with a directed path to or from every other vertex, if one
    exists (lowest index wins)."""
    n = ot.tree.n
    reach_out = reach_sizes(n, ot.out_adjacency)
    reach_in = reach_sizes(n, ot.in_adjacency)
    for x in range(n):
        if reach_out[x] + reach_in[x] == n - 1:
            return x
    return None
