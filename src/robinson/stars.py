"""Petal partition and star orientation/assignment for symmetric d.

Two neighbors t, z of a center x are forced to share their edge direction
whenever d(t,z) < max(d(x,t), d(x,z)); petals are the closure classes of
that relation.  Petals orient as blocks, so the optimal star orientation is
a balanced subset-sum over petal sizes with a closed-form xi, and star
assignment is an exact subset-sum over petal sizes tried per candidate
center.  Both use the one bitset subset-sum in `uniform_orient`.

The closure reads d as nested Python lists, converted once per call:
indexing a numpy array per pair would box a scalar on every read.  Routines
that try every center of K_{1,n-1} share one pass over the centers, and the
best center is ranked by the closed-form xi, so only the winning star is
ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core import DissimilaritySpace, OrientedTree, Tree
from .errors import InputError, PreconditionError
from .uniform_orient import _subset_sum, optimal_partition_of_neighbors


@dataclass(frozen=True)
class PetalPartition:
    """Disjoint neighbor groups covering N(center), each forced to a single
    direction in every compatible orientation.  Canonical form: members
    ascending, petals by smallest member."""

    center: int
    petals: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StarAssignment:
    center: int
    in_set: tuple[int, ...]
    out_set: tuple[int, ...]


def _require_symmetric(space: DissimilaritySpace) -> None:
    if not space.is_symmetric:
        raise PreconditionError("this operation requires a symmetric dissimilarity")


def _petal_closure(rows, x: int, candidates: Sequence[int]) -> list[list[int]]:
    """Closure classes of d(t,z) < max(d(x,t), d(x,z)) over the candidates,
    with d given as nested lists (rows[i][j] = d(i,j), symmetric).

    Seeds are taken in the candidates' order; the resulting partition does
    not depend on that order (callers canonicalize the presentation).
    """
    dx = rows[x]
    remaining = list(candidates)
    petals: list[list[int]] = []
    while remaining:
        seed = remaining.pop(0)
        petal = [seed]
        queue = [seed]
        while queue:
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
        petals.append(petal)
    return petals


def _star_petals(space: DissimilaritySpace) -> Iterator[tuple[int, list[list[int]]]]:
    """(center, petal classes of all other vertices) for every center of
    K_{1,n-1} in index order; d is converted to lists once."""
    rows = space.d.tolist()
    n = space.n
    for center in range(n):
        yield center, _petal_closure(rows, center, [v for v in range(n) if v != center])


def petals(space: DissimilaritySpace, t: Tree, x: int) -> PetalPartition:
    """The petal partition of N(x) in t.  O(deg(x)^2): only the submatrix
    on x and its neighbors is read."""
    _require_symmetric(space)
    if space.n != t.n:
        raise InputError(f"space has {space.n} points but tree has {t.n} vertices")
    if not 0 <= x < t.n:
        raise InputError(f"center {x} out of range")
    local = (x,) + t.adjacency[x]  # local index i is vertex local[i]; x is 0
    rows = space.restrict(local).d.tolist()
    groups = [
        tuple(sorted(local[i] for i in g))
        for g in _petal_closure(rows, 0, range(1, len(local)))
    ]
    groups.sort(key=lambda g: g[0])
    return PetalPartition(x, tuple(groups))


def best_star_center(space: DissimilaritySpace) -> int:
    """The center of K_{1,n-1} whose optimal orientation has the largest xi
    (lowest index on ties).  Each center is ranked by k*(n-1-k), the part of
    `orient_star`'s xi that varies, with k its balanced petal subset-sum;
    no star is built."""
    _require_symmetric(space)
    n = space.n
    best_score, best_center = -1, 0
    for center, groups in _star_petals(space):
        k = _subset_sum([len(g) for g in groups], n // 2)[0]
        score = k * (n - 1 - k)
        if score > best_score:
            best_score, best_center = score, center
    return best_center


def orient_star(
    space: DissimilaritySpace, t: Tree, center: int
) -> tuple[OrientedTree, int]:
    """Optimal compatible orientation of a star: whole petals in or out,
    the In total k chosen by the balanced subset-sum over petal sizes.
    Each leaf-center arc is a path and every In leaf reaches every Out
    leaf, so xi = (n-1) + k*(n-1-k)."""
    _require_symmetric(space)
    if space.n != t.n:
        raise InputError(f"space has {space.n} points but tree has {t.n} vertices")
    if not t.is_star(center):
        raise InputError(f"tree is not a star centered at {center}")
    n = t.n
    part = petals(space, t, center)
    k, chosen = optimal_partition_of_neighbors([len(p) for p in part.petals], n)
    inward = {v for i in chosen for v in part.petals[i]}
    # an In leaf's arc points to the center
    flags = [v in inward if u == center else u not in inward for u, v in t.edges]
    return OrientedTree.from_reversed(t, flags), (n - 1) + k * (n - 1 - k)


def assign_star(
    space: DissimilaritySpace, in_count: int, out_count: int
) -> Optional[StarAssignment]:
    """A center whose petals can realize exactly `in_count` inward vertices
    on the star K_{1,n-1}, with the witness split; None if no center works.

    Centers are tried in index order, reading d as lists converted once per
    call; petal subsets are found by an exact subset-sum over petal sizes
    (ties broken toward exclusion).
    """
    _require_symmetric(space)
    n = space.n
    if in_count < 0 or out_count < 0 or in_count + out_count != n - 1:
        raise InputError(
            f"in/out counts ({in_count}, {out_count}) must be nonnegative and sum to n-1"
        )
    for center, groups in _star_petals(space):
        best, chosen = _subset_sum([len(g) for g in groups], in_count)
        if best != in_count:
            continue
        inward = {v for i in chosen for v in groups[i]}
        in_set = sorted(inward)
        out_set = sorted(v for g in groups for v in g if v not in inward)
        return StarAssignment(center, tuple(in_set), tuple(out_set))
    return None
