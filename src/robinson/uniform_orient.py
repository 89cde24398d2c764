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

from .core import DissimilaritySpace, OrientedTree, Tree, failing_pair
from .errors import InputError, PreconditionError, SizeGuardError

# the premise check refuses larger trees: it tests all n^2 ordered pairs in
# whole-matrix gathers, O(n^2) time and memory.  At 1,000 points it takes
# about 8-24 ms on a path, a star, a broom or a random tree, with a
# transient of 26 MB (2-core Xeon, Python 3.11, numpy 2.4)
PREMISE_MAX_POINTS = 1000


def verify_all_paths_robinson(space: DissimilaritySpace, t: Tree) -> bool:
    """True iff for every ordered pair (u, v) the u-to-v tree path is
    one-way-Robinson.  Refused above PREMISE_MAX_POINTS points.

    core.failing_pair over the undirected tree: core._tree_breaks tests
    each ordered pair once, by the lemma of core._breaks, in O(n^2); it
    also checks that the sizes agree, after the guard.
    """
    if t.n > PREMISE_MAX_POINTS:
        raise SizeGuardError(
            f"premise verification of {t.n} points exceeds the limit of {PREMISE_MAX_POINTS}"
        )
    return failing_pair(space, t) is None


def find_centroid(t: Tree) -> int:
    """A vertex none of whose removal components exceeds n/2 vertices.

    O(n), one scan of the subtree sizes of the tree rooted at vertex 0:
    the vertices with more than n/2 in their subtree form a path down from
    0, and the last, of least size, is a centroid, its children holding at
    most n/2 and the rest of the tree less.  When n is even and two
    centroids exist, it is the one nearer vertex 0.
    """
    size = t._sizes
    return size.index(min(s for s in size if 2 * s > t.n))


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
    the caller's promise unless verify_premise is set (it costs O(n^2), more
    than the algorithm, and is refused above PREMISE_MAX_POINTS points);
    space may be None when no verification is requested.

    Nothing walks the tree again: everything is re-rooted from the subtree
    sizes of the tree rooted at vertex 0.  One scan of the edges lists the
    centroid's neighbours in edge order, the subset-sum's tie-break; their
    components have sizes size[y] for its children and n - size[center]
    above it.  The depth sum from the centroid is sum(size) - n, the one
    from vertex 0, plus n - 2*size[c] for each c on the path from 0 down to
    the centroid; and an edge's endpoint away from the centroid is its
    child from vertex 0, except on that path, where it is the parent.  The
    arcs go to OrientedTree.from_reversed, one flag per edge.
    """
    if space is not None and space.n != t.n:
        raise InputError(f"space has {space.n} points but tree has {t.n} vertices")
    if verify_premise:
        if space is None:
            raise InputError("premise verification needs the dissimilarity space")
        if not verify_all_paths_robinson(space, t):
            raise PreconditionError("some tree path is not Robinson for d")
    n = t.n
    center = find_centroid(t)
    parent, size = t._parent, t._sizes
    heads = [u ^ v ^ center for u, v in t.edges if u == center or v == center]
    above = parent[center]  # -1 when the centroid is vertex 0
    k, chosen = optimal_partition_of_neighbors(
        [n - size[center] if y == above else size[y] for y in heads], n
    )
    # up[x]: the arc between x and parent[x] points to parent[x].  First
    # mark each vertex whose component is In, copied down from the
    # centroid's neighbours; vertex 0 takes the mark of the side above.
    up = [False] * n
    for i in chosen:
        up[heads[i]] = True
    if above >= 0:
        up[0] = up[above]
    for x in t._order[1:]:
        if parent[x] != center:
            up[x] = up[parent[x]]
    # An In arc points to the centroid, which is up except on the path
    # from the centroid to vertex 0.
    depths = sum(size) - n
    x = center
    while x > 0:
        depths += n - 2 * size[x]
        up[x] = not up[x]
        x = parent[x]
    flags = [up[v] if parent[v] == u else not up[u] for u, v in t.edges]
    # each vertex reaches or is reached by its ancestors (depth of them),
    # and every In vertex reaches every Out vertex
    return OrientedTree.from_reversed(t, flags), depths + k * (n - 1 - k)
