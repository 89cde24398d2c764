"""Optimal orientation of a labeled path under symmetric d.

A compatible orientation cuts the path into runs that share their end
vertices and alternate in direction; each run must be Robinson and adds
C(run length, 2) directed paths.  eta[i] is the farthest position a run
starting at i can reach while staying Robinson, read off the breaking
pairs of d in path order (core._breaks) in one numpy pass, and the optimum
is a 1-D DP over run ends bounded by eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DissimilaritySpace, OrientedTree, Tree, _breaks, _first_breaks, integer
from .errors import InputError, PreconditionError, SizeGuardError

# path orientation refuses larger spaces: the eta table holds an n^2
# permuted copy of d and an n^2 mask, and the DP scans each start's window
# in Python.  At the limit a Robinson line in label order takes 0.7-0.9 s,
# and `robinson orient path` about 2 s with a peak of about 213 MB RSS,
# most of it reading the text file (2-core Xeon, Python 3.11)
MAX_POINTS = 3000


@dataclass(frozen=True)
class EtaTable:
    """Farthest-Robinson-run table over path positions (0-based).

    compressed: pairs (i_k, j_k); eta is constant on [i_k, i_{k+1}) with
    value j_k, the first i is 0 and the last j is n-1.
    expanded: eta for every start position 0..n-2.
    """

    compressed: tuple[tuple[int, int], ...]
    expanded: tuple[int, ...]


def _check_path_inputs(space: DissimilaritySpace, order: Sequence[int]) -> list[int]:
    """The order as Python ints, checked to be a permutation of the space's
    points, once the space is checked to be small enough and symmetric."""
    if space.n > MAX_POINTS:
        raise SizeGuardError(f"path orientation of {space.n} points exceeds the limit of {MAX_POINTS}")
    if not space.is_symmetric:
        raise PreconditionError("path orientation requires a symmetric dissimilarity")
    order = [integer(v, "vertex") for v in order]
    if sorted(order) != list(range(space.n)):
        raise InputError("order must be a permutation of all vertices")
    return order


def eta_table(space: DissimilaritySpace, order: Sequence[int]) -> EtaTable:
    """Run-length table of the farthest Robinson run from each start.  O(n^2).

    A run i..j is Robinson iff i+1..j is and no pair (i, k), k <= j, breaks
    (core._breaks), so eta[i] = min(eta[i+1], first break in row i - 1),
    from eta[n-1] = n-1; a row with no break has its first break at n.
    """
    order = _check_path_inputs(space, order)
    first = _first_breaks(_breaks(space.d[np.ix_(order, order)]))
    eta = np.minimum.accumulate((first - 1)[::-1])[::-1].tolist()
    compressed = [(i, e) for i, e in enumerate(eta) if i == 0 or e != eta[i - 1]]
    return EtaTable(tuple(compressed), tuple(eta[:-1]))


def path_orientation(
    space: DissimilaritySpace, order: Sequence[int]
) -> tuple[EtaTable, OrientedTree, int]:
    """The eta table, an optimal compatible orientation of the path, and
    its directed-path count.  O(n^2).

    best[a] is the optimum over positions a..n-1: the first run ends at some
    b <= eta[a] and contributes C(b-a+1, 2).  b is scanned upward and only a
    strictly better value replaces the incumbent, so every first run is the
    shortest optimal one and the breakpoints are the lexicographically
    smallest optimal set.  Runs alternate, the first one left to right.
    """
    eta = eta_table(space, order)
    n = len(order)
    best = [0] * n
    run_end = [0] * n
    for a in range(n - 2, -1, -1):
        top = -1
        for b in range(a + 1, eta.expanded[a] + 1):
            val = (b - a + 1) * (b - a) // 2 + best[b]
            if val > top:
                top, run_end[a] = val, b
        best[a] = top
    backward: list[bool] = []
    a, forward = 0, True
    while a < n - 1:
        b = run_end[a]
        backward += [not forward] * (b - a)
        a, forward = b, not forward
    tree = Tree(n, [(order[t], order[t + 1]) for t in range(n - 1)])
    return eta, OrientedTree.from_reversed(tree, backward), best[0]
