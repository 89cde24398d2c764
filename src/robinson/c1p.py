"""Consecutive-ones property testing over 0/1 matrices, with PQ-trees.

Booth-Lueker style template reduction, one column at a time.  A column is
an int bitset over the rows, and every node carries its leaf set as an int
mask, so a child is classified empty, full or partial by one AND.  A Q-node
also keeps the prefix unions of its children's masks, so the first and last
of its children that a column meets are found by binary search: passing
down through a Q-node of k children, or finding that a column already is a
full, contiguous run under a Q-node root and leaving it as it is, costs
O(log k) big-int operations.  A P-node on the way down is read child by
child, and a column that changes the tree also pays for its root's children
and the chain of partial nodes below them.  Everything is plain loops: no
recursion, and no process-global state such as the recursion limit is
touched.

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

LEAF = "leaf"
P = "P"
Q = "Q"

_EMPTY, _FULL, _PARTIAL = 0, 1, 2


def _unions(start: int, nodes: list["_Node"]) -> list[int]:
    """`start`, then `start` OR-ed with each node's mask in turn."""
    out = [start]
    for c in nodes:
        start |= c.mask
        out.append(start)
    return out


class _Node:
    """A PQ-tree node.  `mask` is its leaf set as an int bitset, fixed at
    construction: the templates rearrange a subtree but never change the
    leaves under a node, so the mask never goes stale.  A Q-node also
    carries `pre`, the prefix unions of its children's masks (`pre[i]` is
    the union of the first i), kept in step with every splice of its
    children; P-nodes and leaves carry None."""

    __slots__ = ("kind", "children", "row", "mask", "pre")

    def __init__(self, kind: str, children: Optional[list["_Node"]] = None, row: int = -1):
        self.kind = kind
        self.children: list[_Node] = children if children is not None else []
        self.row = row
        self.pre: Optional[list[int]] = None
        if kind == Q:
            self.pre = _unions(0, self.children)
            self.mask = self.pre[-1]
        else:
            mask = 1 << row if kind == LEAF else 0
            for c in self.children:
                mask |= c.mask
            self.mask = mask

    def __repr__(self) -> str:  # debugging aid
        if self.kind == LEAF:
            return str(self.row)
        return f"{self.kind}({', '.join(map(repr, self.children))})"


def _make_p(children: list[_Node]) -> _Node:
    if len(children) == 1:
        return children[0]
    return _Node(P, children)


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


@dataclass(eq=False)
class PQTree:
    """Result of a successful C1P reduction; frontier set = valid row orders."""

    _root: _Node
    num_leaves: int


def frontier(t: PQTree) -> tuple[int, ...]:
    """Row order read off the leaves left to right in the current arrangement."""
    out: list[int] = []
    stack = [t._root]
    while stack:
        node = stack.pop()
        if node.kind == LEAF:
            out.append(node.row)
        else:
            stack.extend(reversed(node.children))
    return tuple(out)


def _states(children: list[_Node], hits: list[int]) -> list[int]:
    """Classify each child by its pertinent leaves (`hits`: mask & column)."""
    return [_EMPTY if not h else _FULL if h == c.mask else _PARTIAL for c, h in zip(children, hits)]


def _split(children: list[_Node], states: list[int]) -> tuple[list[_Node], list[_Node]]:
    """The empty children and the full children, each in order."""
    empties = [c for c, st in zip(children, states) if st == _EMPTY]
    fulls = [c for c, st in zip(children, states) if st == _FULL]
    return empties, fulls


def _match_q(children: list[_Node], states: list[int], inner: list[_Node]) -> Optional[list[_Node]]:
    """Read a Q-node's children as empties, then at most one partial (whose
    payload is `inner`), then fulls; return the flattened empty-to-full
    payload, or None."""
    payload: list[_Node] = []
    i, n = 0, len(states)
    while i < n and states[i] == _EMPTY:
        payload.append(children[i])
        i += 1
    if i < n and states[i] == _PARTIAL:
        payload.extend(inner)
        i += 1
    while i < n and states[i] == _FULL:
        payload.append(children[i])
        i += 1
    return payload if i == n else None


def _reduce_partial(node: _Node, s: int) -> Optional[list[_Node]]:
    """Apply the templates to a partial node below the pertinent root.

    Returns the node's subtree as a flat list of nodes ordered empty side
    to full side, to be spliced into a Q-node by the caller, or None if the
    column cannot be made consecutive.  A partial node below the root may
    have at most one partial child, so the partial nodes form a chain: it
    is walked down, then rebuilt bottom-up, without recursion.
    """
    chain: list[tuple[_Node, list[int]]] = []
    while True:
        states = _states(node.children, [c.mask & s for c in node.children])
        chain.append((node, states))
        k = states.count(_PARTIAL)
        if k > 1:
            return None
        if not k:
            break
        node = node.children[states.index(_PARTIAL)]
    payload: list[_Node] = []  # of the partial child below, once there is one
    for node, states in reversed(chain):
        if node.kind == P:
            empties, fulls = _split(node.children, states)
            payload = ([_make_p(empties)] if empties else []) + payload
            if fulls:
                payload.append(_make_p(fulls))
            continue
        q = _match_q(node.children, states, payload)
        if q is None:
            q = _match_q(node.children[::-1], states[::-1], payload)
        if q is None:
            return None
        payload = q
    return payload


def _reduce_p_root(node: _Node, hits: list[int], s: int) -> Optional[_Node]:
    """Apply the templates at a P-node pertinent root, given each child's
    pertinent leaves; return the replacement node (same leaf set), or None."""
    children = node.children
    states = _states(children, hits)
    empties, fulls = _split(children, states)
    partials = [c for c, st in zip(children, states) if st == _PARTIAL]
    if not partials:
        if not empties:
            return node  # entire subtree is full: already a block
        mid = _make_p(fulls)
    else:
        if len(partials) > 2:
            return None
        payloads = [_reduce_partial(c, s) for c in partials]
        if any(p is None for p in payloads):
            return None
        inner = payloads[0] + ([_make_p(fulls)] if fulls else [])
        if len(payloads) == 2:
            inner.extend(reversed(payloads[1]))
        # a partial payload has two or more nodes, and a partial child comes
        # with a full sibling or a second partial one (alone it would hold
        # all of s, and the root would lie below): three or more nodes
        mid = _Node(Q, inner)
    if not empties:
        return mid
    node.children = empties + [mid]
    return node


def _reduce_q_root(node: _Node, lo: int, s: int) -> Optional[_Node]:
    """Apply the templates at a Q-node pertinent root whose first child
    meeting `s` is `lo`; the node is rearranged in place, or None returned.

    The children must read empties, optional partial, fulls, optional
    partial, empties.  The last child meeting `s` is one below the least j
    with pre[j] holding all of s, and the children strictly between the two
    are full iff their union pre[hi] ^ pre[lo + 1] lies in s, so a column
    that changes nothing costs O(log k) big-int operations on k children;
    only a splice costs O(k)."""
    children, pre = node.children, node.pre
    hi = bisect_left(pre, True, lo + 2, key=lambda u: u & s == s) - 1
    between = pre[hi] ^ pre[lo + 1]
    if between & s != between:
        return None
    a, b = children[lo], children[hi]
    first_full, last_full = a.mask & s == a.mask, b.mask & s == b.mask
    if first_full and last_full:
        return node  # the pertinent children already form a full, contiguous run
    first = [a] if first_full else _reduce_partial(a, s)
    last = [b] if last_full else _reduce_partial(b, s)
    if first is None or last is None:
        return None
    last.reverse()  # full side first
    node.children = children[:lo] + first + children[lo + 1 : hi] + last + children[hi + 1 :]
    # the spliced-in nodes cover exactly the leaves of the two they replace,
    # so every other prefix union keeps its value and only shifts
    node.pre = (
        pre[:lo] + _unions(pre[lo], first[:-1]) + pre[lo + 1 : hi]
        + _unions(pre[hi], last[:-1]) + pre[hi + 1 :]
    )
    return node


def _reduce(root: _Node, s: int) -> Optional[_Node]:
    """Reduce the tree by one column; return the new root, or None."""
    # descend to the pertinent root, the deepest node containing all of s,
    # keeping the index of each node among its parent's children
    parent, node, at = None, root, 0
    while True:
        if node.kind == Q:
            # the first child meeting s: the least i with pre[i + 1] & s
            pre = node.pre
            i = bisect_left(pre, True, 1, key=lambda u: u & s != 0) - 1
            if pre[i + 1] & s != s:
                replacement = _reduce_q_root(node, i, s)
                break
        else:
            hits = [c.mask & s for c in node.children]
            if s not in hits:
                replacement = _reduce_p_root(node, hits, s)
                break
            i = hits.index(s)
        parent, node, at = node, node.children[i], i
    if replacement is None or parent is None:
        return replacement
    parent.children[at] = replacement  # same leaf set, so parent.pre holds
    return root


def universal_tree(rows: int) -> PQTree:
    """The tree of every order of `rows` rows: one P-node over the leaves."""
    return PQTree(_make_p([_Node(LEAF, row=r) for r in range(rows)]), rows)


def reduce_columns(tree: PQTree, columns: Iterable[int]) -> Optional[PQTree]:
    """Reduce the tree by the given columns, in order; the tree is consumed.

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
        result = _reduce(root, s)
        if result is None:
            return None
        root = result
    return PQTree(root, tree.num_leaves)


def test_c1p(m: BinaryMatrix) -> Optional[PQTree]:
    """PQ-tree of all row orders making every column's ones consecutive,
    or None if no such order exists.  Columns with at most one 1, full
    columns and duplicates impose nothing new and are skipped."""
    # column j as an int whose bit r is row r's entry: the reversed 0/1 digits
    columns = (int("".join(map(str, reversed(col))), 2) for col in zip(*m.data))
    return reduce_columns(universal_tree(m.rows), columns)


test_c1p.__test__ = False  # keep pytest from collecting the library function
