"""Fundamental data model: dissimilarity spaces, trees, orientations.

Also hosts the order predicates, the ground-truth compatibility checker,
the premise check of uniform_orient and the directed-path counter that
every optimization module is validated against.  Each test is one kernel
per shape, all three reading the two adjacent inequalities of the lemma of
_breaks:
- _breaks, for an order: the breaking pairs of d permuted into it, O(k^2)
  in one whole-matrix pass; _two_way_breaks applies it to d and d.T, and
  _first_breaks reads each row's first breaking pair off either mask;
- _tree_breaks, for every path of a tree: all n^2 ordered pairs in two
  whole-matrix gathers;
- _first_failing_pair, for the directed paths of an orientation: a
  per-root walk that returns the first failing pair, O(xi).  From each
  vertex it pops, one loop takes the single successors in turn, each
  either a scalar step or, where the vertex it stands on starts a tail of
  RUN_MIN or more vertices, one numpy slice over that tail.
The tests hold each to the literal triple definition.

Vertices are dense integer indices 0..n-1 throughout; external labels are
mapped at the I/O layer.  All comparisons on dissimilarity values are exact
(no epsilon): instance files control precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InputError

# A vertex order is a plain tuple of vertex indices.  Operations accept any
# sequence of distinct vertices; a full order is a permutation of 0..n-1.
VertexOrder = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class DissimilaritySpace:
    """A set of n points with a nonnegative dissimilarity d, zero on the
    diagonal.  Symmetry is NOT required.  d is a square array or nested
    list of bools, integers or reals; complex, string and bytes entries
    are refused."""

    n: int
    d: np.ndarray

    def __init__(self, d: Iterable[Iterable[float]] | np.ndarray, *, validate: bool = True):
        # an array is copied once, into float: the space never aliases the
        # caller's array, and int and uint64 arrays convert straight into
        # it.  A list is made an array first, so that its kind is checked
        # too: the float cast would drop an imaginary part or parse `1_0`
        # with Python's float().  That array is new, so a float one is kept
        try:
            mat = np.asarray(d)
            if mat.dtype.kind not in "biufO":
                raise TypeError
            mat = mat.astype(float, copy=not isinstance(d, (list, tuple)))
        except (TypeError, ValueError):
            raise InputError("dissimilarity matrix must be a rectangular array of reals") from None
        if validate:
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise InputError(f"dissimilarity matrix must be square, got shape {mat.shape}")
            if mat.shape[0] < 1:
                raise InputError("dissimilarity space needs at least one point")
            if not np.all(np.isfinite(mat)):
                raise InputError("dissimilarity values must be finite")
            if np.any(mat < 0):
                raise InputError("dissimilarity values must be nonnegative")
            if np.any(np.diagonal(mat) != 0):
                raise InputError("diagonal of a dissimilarity matrix must be zero")
        mat.setflags(write=False)
        object.__setattr__(self, "n", mat.shape[0])
        object.__setattr__(self, "d", mat)

    @cached_property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.d, self.d.T))

    def restrict(self, vertices: Sequence[int]) -> "DissimilaritySpace":
        """Sub-space induced by one or more distinct vertices, relabeled 0..k-1."""
        idx = list(vertices)
        if not idx:
            raise InputError("restriction needs at least one vertex")
        return DissimilaritySpace(_order_matrix(self, idx), validate=False)


def integer(value: int, what: str) -> int:
    """``value`` as a Python int through operator.index, which takes Python
    and numpy ints and bools but no float, not even 2.0: int() would
    truncate 2.5 to 2.  Anything else raises InputError naming ``what``."""
    try:
        return index(value)
    except TypeError:
        raise InputError(f"{what} {value} is not an integer") from None


def integer_edges(edges: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Yield each edge as a pair of Python ints.  Endpoints go through
    operator.index, which takes Python and numpy ints and bools but no
    float, not even 2.0: int() would truncate 2.5 to vertex 2."""
    for u, v in edges:
        try:
            yield index(u), index(v)
        except TypeError:
            raise InputError(f"edge ({u}, {v}) has an endpoint that is not an integer") from None


def checked_edges(n: int, edges: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Yield each edge after checking it: a self-loop, an endpoint outside
    0..n-1 or a repeat of an earlier edge, in either direction, raises."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InputError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        yield u, v


@dataclass(frozen=True)
class Tree:
    """An undirected tree on n vertices (exactly n-1 edges, connected).

    The constructor keeps no per-vertex container.  One pass over the
    edges, range-checking each endpoint before indexing, counts each
    vertex's edges and XORs its neighbours; then leaves other than vertex 0
    are peeled, each one's parent its XOR, the one neighbour left.  n-1
    edges form a tree iff all n-1 are peeled: a vertex on a cycle, a
    self-loop or a repeat never gets down to one edge, and a leaf whose
    neighbour went first gets down to none.  Only when the peel falls
    short does checked_edges name the first self-loop, range fault or
    duplicate in edge order; if there is none, the edges contain a cycle.
    The parent array (-1 at vertex 0) and the peel reversed, a walk from 0
    that reaches each parent before its children, are kept for
    find_centroid, orient_all_robinson, count_xi and the premise check.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _order: list[int] = field(init=False, repr=False, compare=False)
    _parent: list[int] = field(init=False, repr=False, compare=False)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        n = integer(n, "vertex count")
        edge_list = tuple(integer_edges(edges))
        if n < 1:
            raise InputError("tree needs at least one vertex")
        if len(edge_list) != n - 1:
            raise InputError(f"tree on {n} vertices needs {n - 1} edges, got {len(edge_list)}")
        deg, nbx = [0] * n, [0] * n
        for u, v in edge_list:
            if not (0 <= u < n and 0 <= v < n):
                break  # fewer than n-1 edges counted: the peel falls short
            deg[u] += 1
            deg[v] += 1
            nbx[u] ^= v
            nbx[v] ^= u
        order = []
        for x in range(1, n):
            while x and deg[x] == 1:  # peel x, then its parent if now a leaf
                p = nbx[x]
                deg[x] = 0
                deg[p] -= 1
                nbx[p] ^= x
                order.append(x)
                x = p
        if len(order) < n - 1:
            for _ in checked_edges(n, edge_list):
                pass
            raise InputError("edges contain a cycle")
        nbx[0] = -1  # a peeled vertex's XOR is its parent
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edge_list)
        object.__setattr__(self, "_order", [0, *reversed(order)])
        object.__setattr__(self, "_parent", nbx)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of each vertex, in edge order, built from the
        edges on first use."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def _sizes(self) -> list[int]:
        """Subtree sizes of the tree rooted at vertex 0."""
        parent = self._parent
        size = [1] * self.n
        for x in self._order[:0:-1]:
            size[parent[x]] += size[x]
        return size

    @classmethod
    def star(cls, n: int, center: int) -> "Tree":
        """The star K_{1,n-1} on 0..n-1: edges (center, v), v ascending."""
        n, center = integer(n, "vertex count"), integer(center, "center")
        if not 0 <= center < n:
            raise InputError(f"center {center} out of range")
        return cls(n, [(center, v) for v in range(n) if v != center])


@dataclass(frozen=True)
class OrientedTree:
    """A tree plus one direction per edge; arc (u, v) means u -> v.

    Arcs are stored aligned with ``tree.edges`` (arcs[i] is edges[i] or its
    reverse).  The constructor accepts arcs in any order and aligns them
    through a set; a producer that already walks ``tree.edges`` hands over
    one reversal flag per edge to from_reversed instead.
    """

    tree: Tree
    arcs: tuple[tuple[int, int], ...]

    def __init__(self, tree: Tree, arcs: Iterable[tuple[int, int]]):
        arc_set = set(integer_edges(arcs))
        if len(arc_set) != len(tree.edges):
            raise InputError(f"expected {len(tree.edges)} arcs, got {len(arc_set)}")
        aligned: list[tuple[int, int]] = []
        for u, v in tree.edges:
            if (u, v) in arc_set:
                aligned.append((u, v))
            elif (v, u) in arc_set:
                aligned.append((v, u))
            else:
                raise InputError(f"edge ({u}, {v}) has no arc")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "arcs", tuple(aligned))

    @classmethod
    def from_reversed(cls, tree: Tree, flags: Sequence[bool]) -> "OrientedTree":
        """The orientation whose arc i is ``tree.edges[i]``, reversed where
        ``flags[i]`` is true.  Aligned by construction: only the count is
        checked."""
        if len(flags) != len(tree.edges):
            raise InputError(f"expected {len(tree.edges)} edge directions, got {len(flags)}")
        ot = cls.__new__(cls)
        object.__setattr__(ot, "tree", tree)
        object.__setattr__(
            ot, "arcs", tuple([e[::-1] if f else e for e, f in zip(tree.edges, flags)])
        )
        return ot

    @cached_property
    def out_adjacency(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.tree.n)]
        for u, v in self.arcs:
            out[u].append(v)
        return tuple(tuple(a) for a in out)


def _order_matrix(space: DissimilaritySpace, order: Sequence[int]) -> np.ndarray:
    """d permuted into ``order``, checked to be distinct vertices: a copy."""
    order = [integer(v, "vertex") for v in order]
    if len(order) > space.n:
        raise InputError(f"order of length {len(order)} over a space of {space.n} points")
    seen: set[int] = set()
    for v in order:
        if not (0 <= v < space.n):
            raise InputError(f"vertex {v} out of range")
        if v in seen:
            raise InputError(f"vertex {v} repeated in order")
        seen.add(v)
    return space.d[np.ix_(order, order)]


def _breaks(D: np.ndarray) -> np.ndarray:
    """The boolean (i, k) mask of the pairs of D, a matrix already permuted
    into an order s, that break an adjacent inequality: k >= i+2 and
    D[i,k] < D[i,k-1] or D[i,k] < D[i+1,k].  O(n^2).

    The lemma behind every one-way test: s is one-way-Robinson, that is
    d(s_a,s_c) >= max(d(s_a,s_b), d(s_b,s_c)) for all a < b < c, iff no
    pair breaks.  Chaining the adjacent inequalities along row s_a and
    column s_c gives the triple condition.  So s[i..j] is one-way-Robinson
    iff s[i+1..j] is and no pair (i, k), k <= j, breaks; and s is
    two-way-Robinson iff neither D nor D.T has a breaking pair.
    """
    b = np.zeros(D.shape, dtype=bool)
    b[:, 1:] = D[:, 1:] < D[:, :-1]
    b[:-1] |= D[:-1] < D[1:]
    return np.triu(b, 2)


def _two_way_breaks(D: np.ndarray) -> np.ndarray:
    """The breaking pairs of D, permuted into an order s, in d and in d.T:
    s is two-way-Robinson iff none is True (the lemma of _breaks)."""
    return _breaks(D) | _breaks(D.T)


def _first_breaks(B: np.ndarray) -> np.ndarray:
    """The column of the first True in each row of a breaking-pair mask B,
    or len(B) for a row with none."""
    first = B.argmax(axis=1)  # 0 on a row with none, whose entry there is False
    first[~B[np.arange(len(B)), first]] = len(B)
    return first


def _tree_breaks(d: np.ndarray, t: Tree) -> np.ndarray:
    """The tree form of _breaks: the boolean (a, b) mask of the ordered
    pairs whose path a, h, ..., p, b in the tree t has d(a,b) < d(a,p) or
    d(a,b) < d(h,b).  O(n^2).  By the lemma of _breaks, every path of the
    tree is one-way-Robinson iff no pair breaks.

    pred[a, b] is the vertex before b on the path from a, so p = pred[a, b]
    and h = pred[b, a]; a pair one edge apart has p = a and h = b, so it
    never breaks.  Row 0 is the parent array of the tree rooted at vertex
    0, and any other vertex's row is its parent's with one entry changed,
    pred[a, parent] = a, filled in the tree's walk, each parent before its
    children; the diagonal, pred[a, a] = a, is set last.  Both tests are
    one gather of row x at pred[x, y]: from d for d(a,p), with x = a, and
    from d.T for d(h,b), with x = b, transposed back.  Each gather stays
    within a row, and the transient is three n-by-n arrays: pred, d.T and
    one gather.
    """
    n, parent = t.n, t._parent
    pred = np.empty((n, n), dtype=np.intp)
    pred[0] = parent
    for a in t._order[1:]:
        pred[a] = pred[parent[a]]
        pred[a, parent[a]] = a
    r = np.arange(n)
    pred[r, r] = r
    pred += n * r[:, None]  # flat indices of row x, column pred[x, y]
    bad = d < d.ravel().take(pred)  # d(a,p)
    dt = d.T.copy()
    bad |= (dt < dt.ravel().take(pred)).T  # d(h,b)
    return bad


# A tail of RUN_MIN or more vertices is tested in one numpy slice, a
# shorter one a pair at a time.  Measured on a 2-core Xeon, Python 3.11,
# numpy 2.4: a slice test costs about 5 us (two gathers, a maximum, a
# comparison, an any), a scalar pair about 0.3 us.  Kernel medians over
# RUN_MIN 16-96 on YES spaces, three sweeps: a 600-point directed line
# 6.1-6.5 ms at 16-48, 6.6 at 64, 7.0-7.2 at 96; a 600-point zigzag path
# with runs of 2-60, 4.0-4.2 ms at 16-32, 4.6-4.7 at 48-96; an in-broom of
# 400, 3.8-4.0 ms at 16-48, 4.6 at 96.  A 401-point star with 200 in- and
# 200 out-leaves (21-23 ms) and an out-broom of 400 (22-25 ms) read nearly
# every pair as a scalar and stay flat.  16-32 are within noise of each
# other on every shape, so 32 stays.
RUN_MIN = 32


def _out_runs(adj: Sequence[Sequence[int]]) -> tuple[list[int], list]:
    """The single successors of an oriented tree's out-adjacency and the
    tails of its runs: maximal chains in which every vertex but the last
    has exactly one out-neighbour, cut where two such chains merge.
    Returns step and tails:
    - step[b] is b's one out-neighbour, or -1 when it has none or several;
    - tails[b] is the rest of b's run from b on, b included, as an index
      array and its last vertex, when that is RUN_MIN or more vertices;
      else None.  The walk looks a tail up at the vertex it stands on, so
      the tail's first entry is the pair it has just tested.
    Each run is read once, so building both is O(n).
    """
    n = len(adj)
    step = [nb[0] if len(nb) == 1 else -1 for nb in adj]
    tails: list = [None] * n
    if n < RUN_MIN:
        return step, tails
    npred = [0] * n
    for c in step:
        if c >= 0:
            npred[c] += 1
    for b in range(n):
        if npred[b] == 1:
            continue  # inside the run of its one predecessor
        run = [b]
        while step[run[-1]] >= 0 and npred[step[run[-1]]] == 1:
            run.append(step[run[-1]])
        if len(run) >= RUN_MIN:
            arr = np.array(run)
            for i in range(len(run) - RUN_MIN + 1):
                tails[run[i]] = (arr[i:], run[-1])
    return step, tails


def _first_failing_pair(d: np.ndarray, adj: Sequence[Sequence[int]]) -> Optional[tuple[int, int]]:
    """The first ordered pair (a, b) joined by a directed path a, h, ...,
    p, b of the out-adjacency ``adj`` with d(a,b) < d(a,p) or
    d(a,b) < d(h,b), or None.

    By the lemma of _breaks, every directed path is one-way-Robinson iff no
    such pair exists, so a walk from every root a, carrying its first hop h
    and the last value d(a,p), tests each ordered reachable pair once,
    O(xi).  Branch vertices keep a Python stack.  From each vertex popped,
    one loop takes the next single successor c of _out_runs from the vertex
    b it stands on: a scalar test of the pair (a, c) when b starts no tail,
    else one numpy slice over the tail B from b, whose first entry d(a,b)
    is the value it carries, already tested: d[a, B] nondecreasing and
    d[a, B] >= d[h, B] past b, which jumps to the run's end.  "First" is
    in walk order: roots a ascending, each a's first hops in adjacency
    order, each hop's subtree depth first, last pushed out-neighbour first;
    along a tail, its order.
    """
    step, tails = _out_runs(adj)
    for a in range(len(adj)):
        row = d[a]
        for h in adj[a]:
            hrow = d[h]
            stack = [(h, 0.0)]  # d(a,h) >= 0 = d(h,h): the first test passes
            while stack:
                b, prev = stack.pop()
                val = row[b]
                if val < prev or val < hrow[b]:
                    return a, b
                c = step[b]
                while c >= 0:
                    if tails[b] is None:
                        nxt = row[c]
                        if nxt < val or nxt < hrow[c]:
                            return a, c
                        val, b = nxt, c
                    else:  # v[0] = d(a,b) = val, already tested
                        idx, b = tails[b]
                        v, hv = row[idx], hrow[idx]
                        bad = v[1:] < np.maximum(v[:-1], hv[1:])
                        if bad.any():
                            return a, int(idx[bad.argmax() + 1])
                        val = v[-1]
                    c = step[b]
                for c in adj[b]:  # a loop: extend() over a generator was 3x slower
                    stack.append((c, val))
    return None


def is_one_way_order(space: DissimilaritySpace, order: Sequence[int]) -> bool:
    """True iff d(p_i,p_k) >= max{d(p_i,p_j), d(p_j,p_k)} for all i<j<k.

    ``order`` may cover a subset of the vertices (distinct entries).  Tests
    the breaking pairs of d permuted into the order (the lemma of _breaks):
    O(k^2) time for k points, holding one k-by-k copy of d and its boolean
    masks.
    """
    return not _breaks(_order_matrix(space, order)).any()


def is_two_way_order(space: DissimilaritySpace, order: Sequence[int]) -> bool:
    """True iff both the order and its reverse are one-way under the same d.

    Tests the breaking pairs of d permuted into the order, in d and in d.T
    (_two_way_breaks, recognition's check): O(k^2) time for k points,
    holding one k-by-k copy of d and its boolean masks.
    """
    return not _two_way_breaks(_order_matrix(space, order)).any()


def count_xi(ot: OrientedTree) -> int:
    """Number of directed paths of length >= 1 (= ordered reachable pairs).

    Simple paths in a tree are unique, so this is the sum over vertices of
    the out-reachable set size, read in O(n) from the tree's walk from
    vertex 0: in reverse walk order, a vertex whose arc points down from
    its parent adds itself and what it reaches to its parent; then in walk
    order, a vertex whose arc points up to its parent adds the parent and
    all that the parent reaches.
    """
    order, parent = ot.tree._order, ot.tree._parent
    down = [False] * ot.tree.n
    for u, v in ot.arcs:
        if parent[v] == u:
            down[v] = True
    reach = [0] * ot.tree.n
    for x in order[:0:-1]:
        if down[x]:
            reach[parent[x]] += 1 + reach[x]
    for x in order[1:]:
        if not down[x]:
            reach[x] += 1 + reach[parent[x]]
    return sum(reach)


def failing_pair(space: DissimilaritySpace, tree: Tree | OrientedTree) -> Optional[tuple[int, int]]:
    """A breaking pair (a, b), by the lemma of _breaks one whose a-to-b path
    is not one-way-Robinson, or None: over the directed paths of an
    OrientedTree, the first in the walk order of _first_failing_pair
    (smallest root a, then its walk); over every path of a Tree, the first
    True of _tree_breaks in row-major order (smallest a, then smallest b).
    """
    t = tree.tree if isinstance(tree, OrientedTree) else tree
    if space.n != t.n:
        raise InputError(f"space has {space.n} points but tree has {t.n} vertices")
    if isinstance(tree, OrientedTree):
        return _first_failing_pair(space.d, tree.out_adjacency)
    bad = _tree_breaks(space.d, tree)
    i = int(bad.argmax())
    return divmod(i, t.n) if bad.flat[i] else None


def check_compatible(space: DissimilaritySpace, ot: OrientedTree) -> bool:
    """True iff every directed path of ``ot`` is one-way-Robinson: no
    failing_pair.

    The ground-truth checker every orientation in the tests and the
    benchmark is validated with, itself tested against the literal triple
    definition.  Each ordered reachable pair is read once: O(xi).
    """
    return failing_pair(space, ot) is None
