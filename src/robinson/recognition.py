"""Two-way-Robinson recognition via segment membership and the C1P.

A space is two-way-Robinson iff some total order makes every segment
S(x,y) an interval, which is a consecutive-ones question on the n x (n^2-n)
segment membership matrix.  The membership tensor is built vectorised in
O(n^3); its x < y columns go to the C1P reducer as int bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .c1p import PQTree, frontier, reduce_columns
from .core import DissimilaritySpace, VertexOrder
from .errors import InputError


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
    """A compatible order plus the PQ-tree of all row orders making every
    segment an interval, or None if the space is not two-way-Robinson.

    Ordered-pair columns come in identical (x,y)/(y,x) twins; only the x < y
    half is used.  Its columns are bit-packed once and handed to the C1P
    reducer as a lazy stream of int bitsets, so a NO answer builds none
    past the first failing column.  The returned order is the PQ-tree's
    leftmost frontier.
    """
    n = space.n
    member = _membership_tensor(space)
    upper = ~np.tri(n, dtype=bool)  # x < y, in row-major (x, y) order
    packed = np.packbits(member[upper], axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    columns = (int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width))
    tree = reduce_columns(n, columns)
    if tree is None:
        return None
    return frontier(tree), tree
