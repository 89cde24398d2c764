"""Two-way-Robinson recognition via segment membership and the C1P.

A space is two-way-Robinson iff some total order makes every segment
S(x,y) an interval, which is a consecutive-ones question on the segment
membership columns.  Recognition is verify-and-refine (lazy constraint
generation): the C1P reducer gets only a few of the x < y columns, as int
bitsets, and the order it proposes is checked against all of them, built
block by block with the point axis already in that order; violated columns
are added and the reduction repeated until the order passes or the reducer
fails.  No step holds more than O(n^2) membership entries at once, and a NO
found in the first round costs O(n^2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .c1p import PQTree, frontier, reduce_columns
from .core import DissimilaritySpace, VertexOrder
from .errors import SizeGuardError

# recognition refuses larger spaces: each round's check takes O(n^3) time,
# and rounds are bounded only by the number of columns.  Memory is O(n^2):
# peak RSS, interpreter included, is about 66 MB on a planted YES at the limit
MAX_POINTS = 600


def _segment_columns(
    d: np.ndarray, x: np.ndarray, y: np.ndarray, axis: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """Boolean array whose row j marks the members t of S(x[j], y[j]):
    d(x,y) >= max(d(x,t), d(t,y)) and d(y,x) >= max(d(y,t), d(t,x)).

    `axis` is the pair (d[:, order], d.T[:, order]), both C-contiguous, which
    lays the point axis out in that order; by default it is the identity.
    """
    fwd, bwd = (d, d.T) if axis is None else axis
    dxy, dyx = d[x, y][:, None], d[y, x][:, None]
    # one float temporary at a time: a block of them alive together makes
    # the allocator hand pages back and fault them in again on every block
    cols = dxy >= fwd.take(x, 0)
    cols &= dxy >= bwd.take(y, 0)
    cols &= dyx >= fwd.take(y, 0)
    cols &= dyx >= bwd.take(x, 0)
    return cols


def recognize_two_way(space: DissimilaritySpace) -> Optional[tuple[VertexOrder, PQTree]]:
    """A compatible order plus the PQ-tree of the segment columns reduced on
    the way, or None if the space is not two-way-Robinson.

    Ordered-pair columns come in identical (x,y)/(y,x) twins; only the x < y
    half is used, in row-major (x, y) order.  Round 1 builds the first 4n
    columns, bit-packs them and streams them to the C1P reducer as int
    bitsets, so a NO answer reads none past the first failing column, and
    the tree's leftmost frontier becomes the candidate order.  The check
    then builds every column in blocks of 4n, with the point axis already
    in the candidate order, so a column is an interval iff its ones start
    at most once; the scan stops at the 4n-th violated column.  Those
    columns join the reduced ones, which are rebuilt from their (x, y)
    pairs and reduced again from a fresh tree.  The loop ends when the
    candidate violates no column or every column has been reduced.  A
    column already reduced is never violated, so each round adds at least
    one new column.  For n <= 9 the first round takes every column, so
    those spaces are decided in one round with no check.

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
    d = space.d
    r = np.arange(n)
    xs, ys = np.nonzero(r[:, None] < r)  # x < y, row-major (x, y)
    k = 4 * n
    x, y = xs[:k], ys[:k]  # the pairs whose columns are reduced
    while True:
        packed = np.packbits(_segment_columns(d, x, y), axis=1, bitorder="little")
        width, data = packed.shape[1], packed.tobytes()
        stream = (int.from_bytes(data[o : o + width], "little") for o in range(0, len(data), width))
        tree = reduce_columns(n, stream)
        if tree is None:
            return None
        order = frontier(tree)
        if len(x) == len(xs):
            return order, tree
        axis = (d.take(order, 1), d.T.take(order, 1))
        violated: list[int] = []
        for lo in range(0, len(xs), k):
            p = _segment_columns(d, xs[lo : lo + k], ys[lo : lo + k], axis)
            starts = np.count_nonzero(p[:, 1:] > p[:, :-1], axis=1) + p[:, 0]
            violated.extend((np.flatnonzero(starts > 1) + lo).tolist())
            if len(violated) >= k:
                break
        if not violated:
            return order, tree
        v = violated[:k]
        x, y = np.concatenate((x, xs[v])), np.concatenate((y, ys[v]))
