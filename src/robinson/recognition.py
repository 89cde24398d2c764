"""Two-way-Robinson recognition via segment membership and the C1P.

A space is two-way-Robinson iff some total order makes every segment
S(x,y) an interval, which is a consecutive-ones question on the n x (n^2-n)
segment membership matrix.  The membership tensor is built vectorised in
O(n^3).  Recognition is verify-and-refine (lazy constraint generation):
the C1P reducer gets only a few of the x < y columns, as int bitsets, and
the order it proposes is checked against all of them in one vectorised
pass; violated columns are added and the reduction repeated until the
order passes or the reducer fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .c1p import PQTree, frontier, reduce_columns
from .core import DissimilaritySpace, VertexOrder
from .errors import InputError, SizeGuardError

# recognition refuses larger spaces: its segment tensor takes n^3 bytes, and
# peak memory is about 2n^3 bytes (some 470 MB at the limit)
MAX_POINTS = 600


@dataclass(frozen=True)
class Segment:
    """The set of points lying 'between' x and y in every compatible order."""

    x: int
    y: int
    members: frozenset[int]


def _membership_tensor(space: DissimilaritySpace) -> np.ndarray:
    """Boolean tensor m[x, y, t] = (t is in S(x, y)), vectorized."""
    d = space.d
    one_sided = (d[:, :, None] >= d[:, None, :]) & (d[:, :, None] >= d.T[None, :, :])
    return one_sided & one_sided.transpose(1, 0, 2)


def segment(space: DissimilaritySpace, x: int, y: int) -> Segment:
    """S(x,y) = {t : d(x,y) >= max(d(x,t), d(t,y)) and d(y,x) >= max(d(y,t), d(t,x))}."""
    if x == y:
        raise InputError("segment anchors must be distinct")
    if not (0 <= x < space.n and 0 <= y < space.n):
        raise InputError(f"segment anchors ({x}, {y}) out of range")
    d = space.d
    dxy, dyx = d[x, y], d[y, x]
    members = frozenset(
        t
        for t in range(space.n)
        if dxy >= d[x, t] and dxy >= d[t, y] and dyx >= d[y, t] and dyx >= d[t, x]
    )
    return Segment(x, y, members)


def recognize_two_way(space: DissimilaritySpace) -> Optional[tuple[VertexOrder, PQTree]]:
    """A compatible order plus the PQ-tree of the segment columns reduced on
    the way, or None if the space is not two-way-Robinson.

    Ordered-pair columns come in identical (x,y)/(y,x) twins; only the x < y
    half is used, bit-packed once.  The first 4n of its columns, in
    row-major (x, y) order, go to the C1P reducer as a lazy stream of int
    bitsets, so a NO answer builds none past the first failing column, and
    the tree's leftmost frontier becomes the candidate order.  Every column
    is then tested against it in one vectorised pass; the first 4n columns
    it violates join the reduced ones, and the reduction is redone from a
    fresh tree.  The loop ends when the candidate violates no column or
    every column has been reduced.  A column already reduced is never
    violated, so each round adds at least one new column.  For n <= 9 the
    first round takes every column, so those spaces are decided in one
    round with no check.

    Both answers are exact.  YES: every segment is an interval of the
    returned order, which is therefore compatible.  NO: some subset of the
    segments has no consecutive-ones order, so the whole set has none.

    The returned tree is built from the reduced columns only: its frontiers
    include every compatible order and may include others.  It is the
    PQ-tree of exactly the compatible orders only when every column was
    reduced.
    """
    n = space.n
    if n > MAX_POINTS:
        raise SizeGuardError(f"instance of {n} points exceeds the limit of {MAX_POINTS}")
    cols = _membership_tensor(space)[~np.tri(n, dtype=bool)]  # x < y, row-major (x, y)
    packed = np.packbits(cols, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    k = 4 * n
    offsets = range(0, min(k, len(cols)) * width, width)  # of the columns to reduce
    while True:
        tree = reduce_columns(n, (int.from_bytes(data[o : o + width], "little") for o in offsets))
        if tree is None:
            return None
        order = frontier(tree)
        if len(offsets) == len(cols):
            return order, tree
        # a column is an interval of the order iff its ones start at most once
        p = cols[:, order]
        starts = np.count_nonzero(p[:, 1:] > p[:, :-1], axis=1) + p[:, 0]
        violated = np.flatnonzero(starts > 1)
        if not len(violated):
            return order, tree
        offsets = [*offsets, *(violated[:k] * width).tolist()]
