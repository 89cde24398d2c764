"""Consecutive-ones property testing over 0/1 matrices, with PQ-trees.

Booth-Lueker style template reduction, one column at a time.  A column is
an int bitset over the rows, and every node carries its leaf set as an int
mask, so a child is classified empty, full or partial by one AND.  A leaf
is a bit, not a node: a P-node holds its leaf children as one int bitset
beside its other children, so its leaves split against a column in two
ANDs.  Every node also keeps the prefix unions of its children's masks, so
every internal node is passed by binary search on the way down, and the
first and last of a Q-node's children that a column meets are found the
same way: passing down through a node of k children, or finding that a
column already is a full, contiguous run under a Q-node root and leaving
it as it is, costs O(log k) big-int operations.  A column that changes the
tree also pays for one split of a P-node root's leaves and children into
empty, full and partial ones, and for the chain of partial nodes below the
root.
The templates rearrange the pertinent root in place, so the tree keeps one
root object: a P-node root may become a Q-node, but no node's leaf set
ever changes, so every mask and every prefix union above it still holds.
Everything is plain loops: no recursion, and no process-global state such
as the recursion limit is touched.

A P-node's children may be permuted arbitrarily, a Q-node's children may
only be reversed.  The frontier (leaves left to right) of any arrangement
is a row order making every processed column's ones consecutive, and the
set of frontiers is exactly the set of valid row orders.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InputError

P = "P"
Q = "Q"


def _rows(leaves: int) -> list[int]:
    """The rows of a leaf bitset, ascending: one lowest-bit step per row, so
    a one-bit leaf costs O(1) however high its row."""
    out = []
    while leaves:
        low = leaves & -leaves
        out.append(low.bit_length() - 1)
        leaves ^= low
    return out


def _unions(start: int, nodes: list["_Node"]) -> list[int]:
    """`start`, then `start` OR-ed with each node's mask in turn."""
    out = [start]
    for c in nodes:
        start |= c.mask
        out.append(start)
    return out


class _Node:
    """A PQ-tree node of kind P or Q.  A P-node holds its leaf children as
    one int bitset, `leaves`, and its other children in `children`; a leaf
    is a P-node of one bit and no children.  A Q-node has `leaves` 0 and
    every child, leaves included, in `children`, in order.  `pre` holds the
    prefix unions of the children's masks (`pre[i]` is the union of the
    first i), and `mask`, the node's leaf set as an int bitset, is
    `leaves | pre[-1]`.  The mask is fixed at construction: the templates
    rearrange the pertinent root in place, and may turn a P-node into a
    Q-node, but never change the leaves under a node, so the mask never
    goes stale.  A rearranged node rebuilds the unions it changes, and its
    parent's unions hold because its leaf set does, so `pre` never goes
    stale either."""

    __slots__ = ("kind", "children", "leaves", "mask", "pre")

    def __init__(self, kind: str, children: list["_Node"], leaves: int = 0):
        self.kind, self.children, self.leaves = kind, children, leaves
        self.pre = _unions(0, children)
        self.mask = leaves | self.pre[-1]

    def __repr__(self) -> str:  # debugging aid: a leaf prints as its row
        rows = list(map(str, _rows(self.leaves)))
        if len(rows) == 1 and not self.children:
            return rows[0]
        return f"{self.kind}({', '.join(rows + list(map(repr, self.children)))})"


def _make_p(leaves: int, children: list[_Node]) -> list[_Node]:
    """The leaves and children under one P-node, as a list of zero or one
    nodes: empty when there is nothing, a lone child as itself."""
    if not leaves and len(children) < 2:
        return children
    return [_Node(P, children, leaves)]


@dataclass(frozen=True)
class BinaryMatrix:
    """A rectangular 0/1 matrix, stored by rows."""

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __init__(self, data: Iterable[Iterable[int]]):
        rows = tuple(tuple(row) for row in data)
        if not rows:
            raise InputError("binary matrix needs at least one row")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise InputError("binary matrix rows must have equal length")
            if any(x not in (0, 1) for x in r):  # before int(), which would truncate 0.5 to 0
                raise InputError("binary matrix entries must be 0 or 1")
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", rows)


@dataclass(frozen=True, eq=False)
class PQTree:
    """Result of a successful C1P reduction; frontier set = valid row orders.

    Frozen, but not immutable: `reduce_columns` rearranges the nodes under
    `_root` in place and returns the tree it was given, so a tree handed to
    it must not be read or reduced from another thread meanwhile."""

    _root: _Node
    num_leaves: int


def frontier(t: PQTree) -> tuple[int, ...]:
    """Row order read off the leaves left to right in the current arrangement."""
    out: list[int] = []
    stack = [t._root]
    while stack:
        node = stack.pop()
        out += _rows(node.leaves)  # a P-node's leaves come before its children
        stack += reversed(node.children)
    return tuple(out)


def _split(node: _Node, s: int) -> tuple[int, list[_Node], int, list[_Node], list[_Node]]:
    """A P-node's empty leaves and children, full leaves and children, and
    partial children against column s, each in order: the leaves in two
    big-int ANDs, the children one AND each."""
    empties: list[_Node] = []
    fulls: list[_Node] = []
    partials: list[_Node] = []
    for c in node.children:
        h = c.mask & s
        (fulls if h == c.mask else partials if h else empties).append(c)
    return node.leaves & ~s, empties, node.leaves & s, fulls, partials


def _first(pre: list[int], s: int) -> int:
    """The first child that meets s: one below the least i with pre[i]
    meeting s."""
    return bisect_left(pre, True, 1, key=lambda u: u & s != 0) - 1


def _run(node: _Node, s: int, lo: int) -> Optional[int]:
    """The last child of `node` that meets s, given the first, `lo`; or
    None when a child strictly between them is not full.  With t the node's
    part of s, the last is one below the least j with pre[j] holding all of
    t, and the children between are full iff their union pre[hi] ^ pre[lo +
    1] lies in s: O(log k) big-int operations on k children."""
    pre, t = node.pre, node.mask & s
    hi = bisect_left(pre, True, lo + 1, key=lambda u: u & t == t) - 1
    between = pre[hi] ^ pre[lo + 1] if lo < hi else 0  # nothing between when lo == hi
    return hi if between & s == between else None


def _reduce_partial(node: _Node, s: int) -> Optional[list[_Node]]:
    """Apply the templates to a partial node below the pertinent root.

    Returns the node's subtree as a new flat list of nodes ordered empty
    side to full side, to be spliced into a Q-node by the caller, or None if
    the column cannot be made consecutive.  A partial node below the root
    may have at most one partial child, so the partial nodes form a chain:
    it is walked down, keeping each node's payload on either side of its
    partial child's, then joined bottom-up, without recursion.

    A P-node's payload is its empty leaves and children under one P-node,
    the partial child's payload, then its full leaves and children under
    one P-node; a leaf is never partial.  A Q-node's run of children
    meeting s must reach one end of the node and be full at that end, which
    fixes the orientation; only the child at the other end of the run may
    be partial.
    """
    chain: list[tuple[list[_Node], list[_Node]]] = []
    while True:
        if node.kind == P:
            el, empties, fl, fulls, partials = _split(node, s)
            if len(partials) > 1:
                return None
            chain.append((_make_p(el, empties), _make_p(fl, fulls)))
            if not partials:
                payload: list[_Node] = []
                break
            node = partials[0]
            continue
        lo = _first(node.pre, s)
        hi = _run(node, s, lo)
        if hi is None:
            return None
        children, last = node.children, len(node.children) - 1
        a, b = children[lo], children[hi]
        if hi == last and (lo == hi or b.mask & s == b.mask):
            kids, at = children, lo  # full end on the right
        elif lo == 0 and (lo == hi or a.mask & s == a.mask):
            kids, at = children[::-1], last - hi  # full end on the left
        else:
            return None
        c = kids[at]
        chain.append((kids[:at], kids[at + 1 :]))
        if c.mask & s == c.mask:
            payload = [c]
            break
        node = c
    for before, after in reversed(chain):
        payload = before + payload + after
    return payload


def _reduce_p_root(node: _Node, s: int) -> bool:
    """Apply the templates at a P-node pertinent root, rearranging it in
    place: its empty leaves and children stay, in order, beside one new
    node for the rest, or, with nothing empty, the node itself becomes the
    new Q-node.  Returns False when the column cannot be made consecutive."""
    el, empties, fl, fulls, partials = _split(node, s)
    if not partials:
        if not (el or empties):
            return True  # entire subtree is full: already a block
        # s has two or more bits and no child holds it all, so the fulls
        # are two or more and make one new P-node
        kids = empties + _make_p(fl, fulls)
    else:
        if len(partials) > 2:
            return False
        payloads = [_reduce_partial(c, s) for c in partials]
        if any(p is None for p in payloads):
            return False
        inner = payloads[0] + _make_p(fl, fulls)
        if len(payloads) == 2:
            inner.extend(reversed(payloads[1]))
        # a partial payload has two or more nodes, and a partial child comes
        # with a full sibling or a second partial one (alone it would hold
        # all of s, and the root would lie below): three or more nodes
        node.kind = P if el or empties else Q
        kids = empties + [_Node(Q, inner)] if node.kind == P else inner
    # the leaf set stays, so the node's mask and its parent's unions hold
    node.leaves, node.children, node.pre = el, kids, _unions(0, kids)
    return True


def _reduce_q_root(node: _Node, s: int, lo: int) -> bool:
    """Apply the templates at a Q-node pertinent root whose first child
    meeting s is `lo`, rearranging it in place; False when the column
    cannot be made consecutive.

    The children must read empties, optional partial, fulls, optional
    partial, empties: `_run` finds the last of the run, so a column that
    changes nothing costs O(log k) big-int operations on k children; only a
    splice costs O(k)."""
    hi = _run(node, s, lo)
    if hi is None:
        return False
    children, pre = node.children, node.pre
    a, b = children[lo], children[hi]
    first_full, last_full = a.mask & s == a.mask, b.mask & s == b.mask
    if first_full and last_full:
        return True  # the pertinent children already form a full, contiguous run
    first = [a] if first_full else _reduce_partial(a, s)
    last = [b] if last_full else _reduce_partial(b, s)
    if first is None or last is None:
        return False
    last.reverse()  # full side first
    node.children = children[:lo] + first + children[lo + 1 : hi] + last + children[hi + 1 :]
    # the spliced-in nodes cover exactly the leaves of the two they replace,
    # so every other prefix union keeps its value and only shifts
    node.pre = (
        pre[:lo] + _unions(pre[lo], first[:-1]) + pre[lo + 1 : hi]
        + _unions(pre[hi], last[:-1]) + pre[hi + 1 :]
    )
    return True


def _reduce(node: _Node, s: int) -> bool:
    """Reduce the tree under `node` by one column in place; False when the
    column cannot be made consecutive."""
    # descend to the pertinent root, the deepest node containing all of s: a
    # node is the root when one of its leaves meets s (s has two or more
    # bits), or when its first child meeting s does not hold all of s
    while not node.leaves & s:
        i = _first(node.pre, s)
        if node.pre[i + 1] & s != s:
            return _reduce_q_root(node, s, i) if node.kind == Q else _reduce_p_root(node, s)
        node = node.children[i]
    return _reduce_p_root(node, s)


def universal_tree(rows: int) -> PQTree:
    """The tree of every order of `rows` rows: one P-node whose leaves are
    all the rows."""
    return PQTree(_Node(P, [], (1 << rows) - 1), rows)


def reduce_columns(tree: PQTree, columns: Iterable[int]) -> Optional[PQTree]:
    """Reduce the tree by the given columns, in order, in place; return the
    tree, or None when some column cannot be made consecutive.

    A column is an int bitset whose bit r is set iff row r holds a 1.
    Trivial columns (at most one 1 or all rows) and repeats within the call
    impose nothing new and are skipped.  Columns are read lazily, so on a
    NO answer none past the first failing column is ever built.  Reducing
    by A and then by B, which repeats no column of A, is reducing by A + B
    in one call, so columns added in batches are each reduced once.  The
    shared core behind test_c1p and the segment-matrix recognizer.
    """
    root = tree._root
    full = root.mask
    seen: set[int] = set()
    for s in columns:
        if s.bit_count() <= 1 or s == full or s in seen:
            continue
        seen.add(s)
        if not _reduce(root, s):
            return None
    return tree


def test_c1p(m: BinaryMatrix) -> Optional[PQTree]:
    """PQ-tree of all row orders making every column's ones consecutive,
    or None if no such order exists.  Columns with at most one 1, full
    columns and duplicates impose nothing new and are skipped."""
    # column j as an int whose bit r is row r's entry: the reversed 0/1 digits
    columns = (int("".join(map(str, reversed(col))), 2) for col in zip(*m.data))
    return reduce_columns(universal_tree(m.rows), columns)


test_c1p.__test__ = False  # keep pytest from collecting the library function
