"""Petal partition and star orientation/assignment for symmetric d.

Two neighbors t, z of a center x are forced to share their edge direction
whenever d(t,z) < max(d(x,t), d(x,z)); petals are the closure classes of
that relation.  Petals orient as blocks, so the optimal star orientation is
a balanced subset-sum over petal sizes with a closed-form xi, and star
assignment is an exact subset-sum over petal sizes tried per candidate
center.  Both use the one bitset subset-sum in `uniform_orient`.

The closure reads d as nested Python lists, converted once per call:
indexing a numpy array per pair would box a scalar on every read.  The two
routines that try every center of K_{1,n-1} share one loop over the
centers, `_star_centers`, and keep only their own scoring: each ranks
(`best_star_center`) or tests (`assign_star`) a center from its petal
sizes alone, so only the winning star is ever built.  The loop is a branch
and bound under a cap that its caller sets, read again at each center: a
center's closure stops as soon as one petal grows past the cap, beyond
which the center can neither win (`best_star_center`, whose cap falls as
its best score rises) nor fit the split (`assign_star`, whose cap is
fixed), and the ranking stops at the first center whose score reaches the
largest possible.

Before the loop, one O(n^2) numpy pass, `_petal_floor`, bounds every
center's largest petal from below by the larger of two sets that one petal
must hold: the points nearer to x's farthest point f than x is, which all
join f, and, with c the point of least row maximum, the points z with
d(c,z) < max(d(x,c), d(x,z)), which all join c.  The loop skips each
center whose floor is above the current cap.  The capped closure returns
None exactly when some petal grows past the cap, so a skipped center is
one the closure would have cut off: no answer changes and the lowest-index
tie rule holds.  The loop copies d into n^2 Python floats and stays cubic
in the worst case, so it refuses more than MAX_POINTS points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import uniform_orient
from .core import DissimilaritySpace, OrientedTree, Tree, integer
from .errors import InputError, PreconditionError, SizeGuardError
from .uniform_orient import _subset_sum

# best_star_center and assign_star refuse larger spaces before copying d:
# the copy is n^2 Python floats and the search stays cubic in the worst
# case.  The worst family measured, triples where two centers in three have
# no balanced split and the rest come last, takes 2.3-4.2 s at 495 points
# in either routine, as no floor there reaches the cap; a line in label
# order, where each center beats the last, 0.61-0.63 s in best_star_center
# and 14 ms in assign_star (direct calls, best of 3), and constant and
# random 2- and 3-valued spaces under 0.2 s (2-core Xeon, Python 3.11)
MAX_POINTS = 500


@dataclass(frozen=True)
class PetalPartition:
    """Disjoint neighbor groups covering N(x) for the center x that
    `petals` was given, each forced to a single direction in every
    compatible orientation.  Canonical form: members ascending, petals by
    smallest member."""

    petals: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StarAssignment:
    center: int
    in_set: tuple[int, ...]
    out_set: tuple[int, ...]


def _require_symmetric(space: DissimilaritySpace) -> None:
    if not space.is_symmetric:
        raise PreconditionError("this operation requires a symmetric dissimilarity")


def _petal_closure(
    rows, x: int, candidates: Sequence[int], cap: Optional[int] = None
) -> Optional[list[list[int]]]:
    """Closure classes of d(t,z) < max(d(x,t), d(x,z)) over the candidates,
    with d given as nested lists (rows[i][j] = d(i,j), symmetric); None as
    soon as a class grows past `cap` points (cap >= 1; None means no cap).

    A class only grows while its BFS runs, so a class seen past the cap
    ends past it and None is exact.  A class stops popping once no
    candidate is left to absorb.  Seeds are taken in the candidates' order;
    the resulting partition does not depend on that order (callers
    canonicalize the presentation).
    """
    dx = rows[x]
    remaining = list(candidates)
    if cap is None:
        cap = len(remaining)
    petals: list[list[int]] = []
    while remaining:
        seed = remaining.pop(0)
        petal = [seed]
        queue = [seed]
        while queue and remaining:
            z = queue.pop()
            dz = rows[z]
            dxz = dx[z]
            keep = []
            for t in remaining:
                if dz[t] < dxz or dz[t] < dx[t]:
                    petal.append(t)
                    queue.append(t)
                else:
                    keep.append(t)
            remaining = keep
            # the cap stays beside the floor: on a shuffled unit chain (d = 1
            # along a Hamiltonian path, 3 elsewhere) every floor is at most 3,
            # so only the cap cuts a closure short; at 500 points, labels
            # permuted by default_rng(10), closing every petal before the cap
            # test took either search from 1.9-2.2 s to 2.5-3.4 s over runs
            # (direct calls, best of 3, 2-core Xeon)
            if len(petal) > cap:
                return None
        petals.append(petal)
    return petals


def _petal_floor(d: np.ndarray) -> list[int]:
    """For every center x of K_{1,n-1}, a lower bound on its largest petal:
    the larger of two sets that one petal of x contains, in O(n^2).

    Ball: with f a farthest point from x, max(d(x,f), d(x,z)) = d(x,f), so
    every z with d(f,z) < d(x,f) shares f's petal (f itself too, x never).
    Hub: with c the point of least row maximum, every z with
    d(c,z) < max(d(x,c), d(x,z)) shares c's petal; the count is 0 at x = c.
    """
    far = d.max(axis=1)
    ball = (d[d.argmax(axis=1)] < far[:, None]).sum(axis=1)
    dc = d[far.argmin()]
    hub = (dc < np.maximum(dc[:, None], d)).sum(axis=1)
    return np.maximum(ball, hub).tolist()


def _star_centers(
    space: DissimilaritySpace, cap: Callable[[], int]
) -> Iterator[tuple[int, list[list[int]]]]:
    """(center, petals) in index order for each center of K_{1,n-1} whose
    petals all have at most cap() points, cap() read again at each center.
    A center whose petal floor is above the cap is skipped without a
    closure.  Refused above MAX_POINTS points before d is copied."""
    if space.n > MAX_POINTS:
        raise SizeGuardError(
            f"star search over {space.n} points exceeds the limit of {MAX_POINTS}"
        )
    rows = space.d.tolist()
    floor = _petal_floor(space.d)
    points = list(range(space.n))
    for center in points:
        limit = cap()
        if floor[center] <= limit:
            groups = _petal_closure(rows, center, points[:center] + points[center + 1 :], limit)
            if groups is not None:
                yield center, groups


def petals(space: DissimilaritySpace, t: Tree, x: int) -> PetalPartition:
    """The petal partition of N(x) in t, in O(n + deg(x)^2): one scan of
    the edges lists the neighbors, all in range as Tree checked, and one
    gather from d reads the submatrix on x and them; only x is checked."""
    _require_symmetric(space)
    if space.n != t.n:
        raise InputError(f"space has {space.n} points but tree has {t.n} vertices")
    x = integer(x, "center")
    if not 0 <= x < t.n:
        raise InputError(f"center {x} out of range")
    local = [x, *(u ^ v ^ x for u, v in t.edges if u == x or v == x)]  # i is vertex local[i]
    rows = space.d[np.ix_(local, local)].tolist()
    groups = [
        tuple(sorted(local[i] for i in g))
        for g in _petal_closure(rows, 0, range(1, len(local)))
    ]
    groups.sort(key=lambda g: g[0])
    return PetalPartition(tuple(groups))


def best_star_center(space: DissimilaritySpace) -> int:
    """The center of K_{1,n-1} whose optimal orientation has the largest xi
    (lowest index on ties).  Each center is ranked by k*(m-k), m = n-1, the
    part of `orient_star`'s xi that varies, with k its balanced petal
    subset-sum; no star is built.  Refused above MAX_POINTS points.

    Bound: a petal of L >= m/2 points lies wholly on one side, so
    min(k, m-k) <= m-L and the score is at most L*(m-L), which falls as L
    grows.  Each closure is capped at the largest L >= ceil(m/2) with
    L*(m-L) above the best score so far, so a center cut off cannot
    strictly beat the best and the lowest-index tie rule holds.  A center
    whose petal floor is above the cap is cut off without a closure.  The
    loop stops at the first score equal to floor(m/2)*ceil(m/2), the
    largest possible.
    """
    _require_symmetric(space)
    n = space.n
    m = n - 1
    top = (m // 2) * (m - m // 2)
    best_score, best_center, cap = -1, 0, m
    for center, groups in _star_centers(space, lambda: cap):
        k = _subset_sum([len(g) for g in groups], n // 2)[0]
        score = k * (m - k)
        if score > best_score:
            best_score, best_center = score, center
            if score == top:
                break
            while cap * (m - cap) <= best_score:
                cap -= 1
    return best_center


def orient_star(space: DissimilaritySpace, center: int) -> tuple[OrientedTree, int]:
    """Optimal compatible orientation of the star K_{1,n-1} centered at
    `center` (Tree.star, which checks the center's range): whole petals in
    or out, the In total k chosen by the balanced subset-sum over petal
    sizes.  Each leaf-center arc is a path and every In leaf reaches every
    Out leaf, so xi = (n-1) + k*(n-1-k).  petals checks symmetry."""
    n = space.n
    t = Tree.star(n, center)
    part = petals(space, t, center)
    # through the module, so a wrapper on the attribute sees the call
    k, chosen = uniform_orient.optimal_partition_of_neighbors([len(p) for p in part.petals], n)
    inward = {v for i in chosen for v in part.petals[i]}
    # edge (center, v) is reversed where v is In: its arc points to the center
    flags = [v in inward for _, v in t.edges]
    return OrientedTree.from_reversed(t, flags), (n - 1) + k * (n - 1 - k)


def assign_star(
    space: DissimilaritySpace, in_count: int, out_count: int
) -> Optional[StarAssignment]:
    """A center whose petals can realize exactly `in_count` inward vertices
    on the star K_{1,n-1}, with the witness split; None if no center works.

    Centers are tried in index order, reading d as lists converted once per
    call; petal subsets are found by an exact subset-sum over petal sizes
    (ties broken toward exclusion).  Refused above MAX_POINTS points.

    Bound: every petal goes wholly In or wholly Out, so a petal larger than
    max(in_count, out_count) rules its center out, and each closure is
    capped there; a center whose petal floor is above the cap is skipped
    without one.  A feasible center is never cut off, so the first one and
    its witness split are those of the uncapped search.
    """
    _require_symmetric(space)
    n = space.n
    in_count, out_count = integer(in_count, "in count"), integer(out_count, "out count")
    if in_count < 0 or out_count < 0 or in_count + out_count != n - 1:
        raise InputError(
            f"in/out counts ({in_count}, {out_count}) must be nonnegative and sum to n-1"
        )
    for center, groups in _star_centers(space, lambda: max(in_count, out_count)):
        best, chosen = _subset_sum([len(g) for g in groups], in_count)
        if best == in_count:
            inward = {v for i in chosen for v in groups[i]}
            out_set = sorted(v for g in groups for v in g if v not in inward)
            return StarAssignment(center, tuple(sorted(inward)), tuple(out_set))
    return None
