"""Exhaustive brute-force references certifying the polynomial algorithms.

Every search here enumerates the full search space behind a hard size
guard; guards refuse (raise) rather than attempt long runs, so test times
stay predictable.  `segment` is the literal, one-point-at-a-time definition
that recognition's vectorised segment columns are checked against, and
`brute_two_way` the literal definition of a two-way order, every triple of
every permutation in both directions: neither shares a kernel or a lemma
with the algorithm it certifies.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb
from typing import Optional

import numpy as np

from .c1p import BinaryMatrix
from .core import (
    DissimilaritySpace,
    OrientedTree,
    Tree,
    VertexOrder,
    check_compatible,
    count_xi,
    integer,
)
from .errors import InputError, SizeGuardError
from .recognition import recognize_two_way

# size guards: largest tree, space and binary matrix each search accepts
ORIENTATION_MAX_N = 21
TWO_WAY_MAX_N = 8
C1P_MAX_ROWS = 8


def brute_optimal_orientation(space: DissimilaritySpace, t: Tree) -> tuple[int, OrientedTree]:
    """Maximum xi over all 2^(n-1) orientations passing check_compatible,
    with a witness.  Enumeration order: edges in stored order, bitmask
    counter; the first orientation attaining the maximum is returned."""
    if t.n > ORIENTATION_MAX_N:
        raise SizeGuardError(f"orientation enumeration guarded to n <= {ORIENTATION_MAX_N}")
    m = len(t.edges)
    best = -1
    witness: Optional[OrientedTree] = None
    for mask in range(1 << m):
        ot = OrientedTree.from_reversed(t, [mask >> i & 1 for i in range(m)])
        if not check_compatible(space, ot):
            continue
        xi = count_xi(ot)
        if xi > best:
            best = xi
            witness = ot
    assert witness is not None  # the all-length-1 alternating orientation always passes
    return best, witness


def segment(space: DissimilaritySpace, x: int, y: int) -> frozenset[int]:
    """S(x,y) = {t : d(x,y) >= max(d(x,t), d(t,y)) and d(y,x) >= max(d(y,t), d(t,x))},
    the points lying 'between' x and y in every compatible order, found one
    point at a time: the scalar reference for recognition's segment columns."""
    x, y = integer(x, "segment anchor"), integer(y, "segment anchor")
    if x == y:
        raise InputError("segment anchors must be distinct")
    if not (0 <= x < space.n and 0 <= y < space.n):
        raise InputError(f"segment anchors ({x}, {y}) out of range")
    d = space.d
    dxy, dyx = d[x, y], d[y, x]
    return frozenset(
        t
        for t in range(space.n)
        if dxy >= d[x, t] and dxy >= d[t, y] and dyx >= d[y, t] and dyx >= d[t, x]
    )


def brute_two_way(space: DissimilaritySpace) -> Optional[VertexOrder]:
    """First permutation (lexicographic) that is two-way-Robinson, if any:
    d(p_a,p_c) >= max(d(p_a,p_b), d(p_b,p_c)) and d(p_c,p_a) >=
    max(d(p_c,p_b), d(p_b,p_a)) for every triple a < b < c of positions.

    Both directions of each ordered triple of points are tabulated once,
    n^3 entries.  The n! permutations are listed once, in lexicographic
    order, and the (n-1)! that share a first point look up their C(n,3)
    position triples in one numpy batch: O(n! n^3) time, and at the guard
    a peak of about 10 MB, 2.6 MB for the permutations and the rest for
    one batch of 5,040 permutations and 56 triples.
    """
    n = space.n
    if n > TWO_WAY_MAX_N:
        raise SizeGuardError(f"permutation search guarded to n <= {TWO_WAY_MAX_N}")
    d, r = space.d, range(n)
    x, y, z = np.ix_(r, r, r)
    # holds[x, y, z]: the triple x, y, z in this order passes both directions
    xz, zx = d[x, z], d[z, x]
    holds = (xz >= d[x, y]) & (xz >= d[y, z]) & (zx >= d[z, y]) & (zx >= d[y, x])
    a, b, c = np.array(list(combinations(r, 3)), dtype=np.intp).reshape(-1, 3).T
    # lexicographic order: batch i holds the permutations that start with i
    for batch in np.array(list(permutations(r)), dtype=np.intp).reshape(n, -1, n):
        ok = holds[batch[:, a], batch[:, b], batch[:, c]].all(axis=1)
        if ok.any():
            return tuple(int(v) for v in batch[ok.argmax()])
    return None


def _column_sets(m: BinaryMatrix) -> list[frozenset[int]]:
    """Each column of m as the set of rows holding a 1."""
    return [frozenset(r for r in range(m.rows) if m.data[r][j]) for j in range(m.cols)]


def brute_c1p(m: BinaryMatrix) -> Optional[VertexOrder]:
    """First row permutation making every column's ones consecutive, if any."""
    if m.rows > C1P_MAX_ROWS:
        raise SizeGuardError(f"row-permutation search guarded to rows <= {C1P_MAX_ROWS}")
    cols = [c for c in _column_sets(m) if len(c) > 1]
    for perm in permutations(range(m.rows)):
        pos = {r: i for i, r in enumerate(perm)}
        if all(max(pos[r] for r in c) - min(pos[r] for r in c) + 1 == len(c) for c in cols):
            return perm
    return None


def brute_robinson_subset(
    space: DissimilaritySpace, kappa: int, max_subsets: int = 10**6
) -> Optional[tuple[int, ...]]:
    """A kappa-subset of the points that is two-way-Robinson, or None.

    Subsets are tried in lexicographic order; each is checked with the
    polynomial recognizer (for symmetric d, two-way-Robinson = Robinson).
    """
    if max_subsets < 0:
        raise InputError(f"budget {max_subsets} must be nonnegative")
    n, kappa = space.n, integer(kappa, "kappa")
    if not 0 <= kappa <= n:
        raise InputError(f"kappa={kappa} out of range for n={n}")
    if kappa == 0:
        return ()
    if comb(n, kappa) > max_subsets:
        raise SizeGuardError(
            f"C({n},{kappa}) = {comb(n, kappa)} subsets exceeds budget {max_subsets}"
        )
    for subset in combinations(range(n), kappa):
        if recognize_two_way(space.restrict(subset)) is not None:
            return subset
    return None
