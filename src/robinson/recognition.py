"""Two-way-Robinson recognition via segment membership and the C1P.

A space is two-way-Robinson iff some total order makes every segment
S(x,y) an interval, which is a consecutive-ones question on the segment
membership columns.  Recognition is verify-and-refine (lazy constraint
generation): the C1P reducer gets only a few of the x < y columns, as int
bitsets, and the order it proposes is checked in O(n^2) by its breaking
pairs (core._breaks).  Each breaking pair names a segment column that the
order violates; the first breaking pair of each row of the order
(core._first_breaks) has its column reduced onto the same PQ-tree, until
the order has no breaking pair or the reducer fails, so a call builds and
reduces each column at most once.  No step holds more than O(n^2) entries
at once, and a NO found in the first round costs O(n^2).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .c1p import PQTree, frontier, reduce_columns, universal_tree
from .core import DissimilaritySpace, VertexOrder, _first_breaks, _two_way_breaks
from .errors import SizeGuardError

# recognition refuses larger spaces: a call builds and reduces each column
# at most once, but rounds are bounded only by the number of columns.  At
# the limit (direct calls, best of 3) a planted YES takes 0.12-0.17 s in
# one round of n-1 columns, most of it in the C1P reducer, a rounded
# planted space 0.28-0.46 s in 4-5 rounds, a random ultrametric
# 0.23-0.37 s in 4-5 rounds, the line |i - j| in label order 0.12-0.13 s,
# and the comb ultrametric, the slowest YES family known, 0.71-1.20 s in
# 5-6 rounds, most of it descending its deep PQ-tree;
# `robinson recognize` peaks at about 108 MB RSS, set by reading the text
# file, or 100 MB on a rounded file (2-core Xeon, Python 3.11)
MAX_POINTS = 1500


def _segment_columns(d: np.ndarray, dt: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean array whose row j marks the members t of S(x[j], y[j]):
    d(x,y) >= max(d(x,t), d(t,y)) and d(y,x) >= max(d(y,t), d(t,x)).
    dt is a contiguous copy of d.T, so all four gathers read rows."""
    dxy, dyx = d[x, y][:, None], d[y, x][:, None]
    # one float temporary at a time
    cols = dxy >= d.take(x, 0)
    cols &= dxy >= dt.take(y, 0)
    cols &= dyx >= d.take(y, 0)
    cols &= dyx >= dt.take(x, 0)
    return cols


def _column_bitsets(d: np.ndarray, dt: np.ndarray, x: np.ndarray, y: np.ndarray) -> Iterator[int]:
    """The segment columns of the pairs (x, y) as int bitsets, built as read
    in blocks of at most 8,192 entries: so a NO builds none past its failing
    column's block, and each 64 KB float temporary, under glibc's least mmap
    threshold (128 KB), reuses heap pages instead of faulting in new ones."""
    k = max(1, 8192 // len(d))
    for lo in range(0, len(x), k):
        cols = _segment_columns(d, dt, x[lo : lo + k], y[lo : lo + k])
        packed = np.packbits(cols, axis=1, bitorder="little")
        width, data = packed.shape[1], packed.tobytes()
        for o in range(0, len(data), width):
            yield int.from_bytes(data[o : o + width], "little")


def recognize_two_way(space: DissimilaritySpace) -> Optional[tuple[VertexOrder, PQTree]]:
    """A compatible order plus the PQ-tree of the segment columns reduced on
    the way, or None if the space is not two-way-Robinson.

    Ordered-pair columns come in identical (x,y)/(y,x) twins; only the x < y
    half is used.  d is read through its rows and the rows of one contiguous
    copy of d.T, made once per call.  Each round streams its pairs' columns
    to the C1P reducer as int bitsets, built in blocks as it reads them, so
    a NO answer reads none past the first failing column; the tree's
    leftmost frontier s becomes the candidate order.

    For n <= 9 round 1 takes every pair, so those spaces are decided in one
    round with no check.  Otherwise round 1 takes the n-1 pairs of one
    anchor a with every other point.  When each segment is exactly the
    interval of a compatible order between its ends and a is not an end of
    that order, a's segments are nested intervals on both sides of a, which
    pin the order up to reversal: one round and one check decide the space.
    An anchor at an end leaves itself and its neighbour unordered, under a
    chain of n-1 nested P-nodes that each column of the next round
    descends.  So a is the least of 0, 1, 2 that is neither e, the point
    farthest from 0, nor f, the point farthest from e, by max(d(x,y),
    d(y,x)).  In a compatible order both d(x,y) and d(y,x) grow as y moves
    away from x on either side, so e and f are its two ends when no
    distances tie.  Ties widen segments; then the check names the columns
    still needed.

    The check permutes d into s and takes its breaking pairs (i, j), in d
    and in d.T (core._breaks).  Both s_i and s_j lie in S(s_i, s_j), and
    the break puts s_{i+1} or s_{j-1}, which lies between them, outside it;
    so the column of (s_i, s_j) is violated.  Each row i that holds a
    breaking pair gives one: its first, with the least j (core._first_breaks).
    Their columns are built and reduced onto the same tree.  A column
    already reduced is an interval of s, so each of these is new, and no
    two rows give the same pair: a call builds and reduces each column at
    most once, and the loop ends when s has no breaking pair or the reducer
    fails.

    Rounds are bounded only by the number of columns.  Measured over seeded
    YES spaces with labels shuffled, the most rounds per family at n = 60 /
    300 / 1,500 were: rounded planted 4 / 5 / 5, planted / 3 then rounded
    4 / 5 / 6, the comb ultrametric d(i,j) = n - min(i,j) 5 / 6 / 6,
    random ultrametrics 5 / 5 / 5, and sums of 8 interval matrices
    4 / 21 / 6.  So rounds grow slowly with n on the tied families, and the
    interval sums have outliers: three of 90 spaces at n = 300 took 12, 18
    and 21 rounds, most of them reducing a single column, where the others
    took 1-5.

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
    dt = np.ascontiguousarray(d.T)
    r = np.arange(n)
    if n <= 9:
        x, y = np.nonzero(r[:, None] < r)  # the pairs of this round's columns
    else:
        e = int(np.argmax(np.maximum(d[0], dt[0])))
        f = int(np.argmax(np.maximum(d[e], dt[e])))
        a = min({0, 1, 2} - {e, f})
        o = np.delete(r, a)
        x, y = np.minimum(a, o), np.maximum(a, o)
    tree = universal_tree(n)
    while True:
        tree = reduce_columns(tree, _column_bitsets(d, dt, x, y))
        if tree is None:
            return None
        order = frontier(tree)
        # round 1 took every pair: for n <= 9 that skips the check, whose
        # fixed numpy cost outweighs the columns saved.  Sending n = 4-8
        # through the anchor round and the check instead took the per-call
        # p50 of the recognize-small benchmark from 0.037-0.041 to
        # 0.061-0.075 ms (three runs each, 2-core Xeon, Python 3.11)
        if len(x) == n * (n - 1) // 2:
            return order, tree
        s = np.array(order)
        # the n^2 permuted copy and masks are temporaries: none is held
        # through the next round's reduction
        first = _first_breaks(_two_way_breaks(d[np.ix_(s, s)]))
        i = np.flatnonzero(first < n)  # the rows that hold a breaking pair
        if not len(i):
            return order, tree
        a, b = s[i], s[first[i]]
        x, y = np.minimum(a, b), np.maximum(a, b)
