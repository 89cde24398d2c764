"""Petal partition and star orientation/assignment for symmetric d.

Two neighbors t, z of a center x are forced to share their edge direction
whenever d(t,z) < max(d(x,t), d(x,z)); petals are the closure classes of
that relation.  Petals orient as blocks, so the optimal star orientation is
a balanced subset-sum over petal sizes with a closed-form xi, and star
assignment is an exact subset-sum over petal sizes tried per candidate
center.  Both use the one bitset subset-sum in `uniform_orient`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


def _petal_closure(d, x: int, candidates: Sequence[int]) -> list[list[int]]:
    """Closure classes of d(t,z) < max(d(x,t), d(x,z)) over the candidates.

    Seeds are taken in the candidates' order; the resulting partition does
    not depend on that order (callers canonicalize the presentation).
    """
    remaining = list(candidates)
    petals: list[list[int]] = []
    while remaining:
        seed = remaining.pop(0)
        petal = [seed]
        queue = [seed]
        while queue:
            z = queue.pop()
            dxz = d[x, z]
            keep = []
            for t in remaining:
                if d[t, z] < max(d[x, t], dxz):
                    petal.append(t)
                    queue.append(t)
                else:
                    keep.append(t)
            remaining = keep
        petals.append(petal)
    return petals


def petals(space: DissimilaritySpace, t: Tree, x: int) -> PetalPartition:
    """The petal partition of N(x) in t.  O(deg(x)^2)."""
    _require_symmetric(space)
    if space.n != t.n:
        raise InputError(f"space has {space.n} points but tree has {t.n} vertices")
    if not 0 <= x < t.n:
        raise InputError(f"center {x} out of range")
    groups = [tuple(sorted(g)) for g in _petal_closure(space.d, x, t.adjacency[x])]
    groups.sort(key=lambda g: g[0])
    return PetalPartition(x, tuple(groups))


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
    arcs = []
    for u, v in t.edges:
        leaf = v if u == center else u
        arcs.append((leaf, center) if leaf in inward else (center, leaf))
    return OrientedTree(t, arcs), (n - 1) + k * (n - 1 - k)


def assign_star(
    space: DissimilaritySpace, in_count: int, out_count: int
) -> Optional[StarAssignment]:
    """A center whose petals can realize exactly `in_count` inward vertices
    on the star K_{1,n-1}, with the witness split; None if no center works.

    Centers are tried in index order; petal subsets are found by an exact
    subset-sum over petal sizes (ties broken toward exclusion).
    """
    _require_symmetric(space)
    n = space.n
    if in_count < 0 or out_count < 0 or in_count + out_count != n - 1:
        raise InputError(
            f"in/out counts ({in_count}, {out_count}) must be nonnegative and sum to n-1"
        )
    d = space.d
    for center in range(n):
        groups = _petal_closure(d, center, [v for v in range(n) if v != center])
        best, chosen = _subset_sum([len(g) for g in groups], in_count)
        if best != in_count:
            continue
        inward = {v for i in chosen for v in groups[i]}
        in_set = sorted(inward)
        out_set = sorted(v for g in groups for v in g if v not in inward)
        return StarAssignment(center, tuple(in_set), tuple(out_set))
    return None
