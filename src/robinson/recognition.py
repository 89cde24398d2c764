"""Two-way-Robinson recognition via segment membership and the C1P.

A space is two-way-Robinson iff some total order makes every segment
S(x,y) an interval, which is a consecutive-ones question on the segment
membership columns.  Recognition is verify-and-refine (lazy constraint
generation): the C1P reducer gets only a few of the x < y columns, as int
bitsets, and the order it proposes is checked in O(n^2) by its breaking
pairs (core._breaks).  Each breaking pair names a segment column that the
order violates; those columns are reduced onto the same PQ-tree until the
order has no breaking pair or the reducer fails, so a call builds and
reduces each column at most once.  No step holds more than O(n^2) entries
at once, and a NO found in the first round costs O(n^2).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .c1p import PQTree, frontier, reduce_columns, universal_tree
from .core import DissimilaritySpace, VertexOrder, _breaks
from .errors import SizeGuardError

# recognition refuses larger spaces: a call builds and reduces each column
# at most once, but rounds are bounded only by the number of columns.  At
# the limit a planted YES takes about 0.3 s in one round, half of it in the
# C1P reducer, a rounded planted space 0.8 s in 4, and `robinson recognize`
# peaks at about 110 MB RSS (2-core Xeon, Python 3.11)
MAX_POINTS = 1500


def _segment_columns(d: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean array whose row j marks the members t of S(x[j], y[j]):
    d(x,y) >= max(d(x,t), d(t,y)) and d(y,x) >= max(d(y,t), d(t,x))."""
    dxy, dyx = d[x, y][:, None], d[y, x][:, None]
    # one float temporary at a time, each read by rows of d or by columns:
    # d.T.take(y, 0) would copy all of d first
    cols = dxy >= d.take(x, 0)
    cols &= dxy >= d.take(y, 1).T
    cols &= dyx >= d.take(y, 0)
    cols &= dyx >= d.take(x, 1).T
    return cols


def _column_bitsets(d: np.ndarray, x: np.ndarray, y: np.ndarray) -> Iterator[int]:
    """The segment columns of the pairs (x, y) as int bitsets, built as read
    in blocks of at most 8,192 entries: so a NO builds none past its failing
    column's block, and each 64 KB float temporary, under glibc's least mmap
    threshold (128 KB), reuses heap pages instead of faulting in new ones."""
    k = max(1, 8192 // len(d))
    for lo in range(0, len(x), k):
        cols = _segment_columns(d, x[lo : lo + k], y[lo : lo + k])
        packed = np.packbits(cols, axis=1, bitorder="little")
        width, data = packed.shape[1], packed.tobytes()
        for o in range(0, len(data), width):
            yield int.from_bytes(data[o : o + width], "little")


def recognize_two_way(space: DissimilaritySpace) -> Optional[tuple[VertexOrder, PQTree]]:
    """A compatible order plus the PQ-tree of the segment columns reduced on
    the way, or None if the space is not two-way-Robinson.

    Ordered-pair columns come in identical (x,y)/(y,x) twins; only the x < y
    half is used.  Round 1 takes the first 4n pairs in row-major (x, y)
    order and streams their columns to the C1P reducer as int bitsets,
    built in blocks as it reads them, so a NO answer reads none past the
    first failing column; the tree's leftmost frontier s becomes the
    candidate order.  The check permutes d into s and takes its breaking
    pairs (i, j), in d and in d.T (core._breaks).  Both s_i and s_j lie in
    S(s_i, s_j), and the break puts s_{i+1} or s_{j-1}, which lies between
    them, outside it; so the column of (s_i, s_j) is violated.  The first
    4n of them in row-major (i, j) order have their columns built and
    reduced onto the same tree.  A column already reduced is an interval
    of s, so each of these is new: a call builds and reduces each column
    at most once, and the loop ends when s has no breaking pair or the
    reducer fails.  For n <= 9 the first round takes every column, so
    those spaces are decided in one round with no check.

    Both answers are exact.  YES: s has no breaking pair, so it is
    two-way-Robinson.  NO: some subset of the segments has no
    consecutive-ones order, so the whole set has none.

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
    k = 4 * n
    # the first k pairs x < y in row-major (x, y) order lie in the first nine
    # rows, which hold 9n - 45 >= 4n pairs when n >= 9 and all of them below
    x, y = (a[:k] for a in np.nonzero(r[:9, None] < r))  # the pairs of this round's columns
    tree = universal_tree(n)
    while True:
        tree = reduce_columns(tree, _column_bitsets(d, x, y))
        if tree is None:
            return None
        order = frontier(tree)
        if len(x) == n * (n - 1) // 2:  # round 1 at n <= 9; later rounds take <= 4n pairs
            return order, tree
        s = np.array(order)
        D = d[np.ix_(s, s)]
        i, j = np.nonzero(_breaks(D) | _breaks(D.T))
        if not len(i):
            return order, tree
        a, b = s[i[:k]], s[j[:k]]
        x, y = np.minimum(a, b), np.maximum(a, b)
