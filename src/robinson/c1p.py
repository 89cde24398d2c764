"""Consecutive-ones property testing over 0/1 matrices, with PQ-trees.

Booth-Lueker style template reduction, one column at a time.  A column is
an int bitset over the rows, and every node carries its leaf set as an int
mask, so a child is classified empty, full or partial by one AND.  A column
touches only the path down to its pertinent root, that root's children and
the chain of partial nodes below it; a full, contiguous run under a Q-node
root is left as it is.  Everything is plain loops: no recursion, and no
process-global state such as the recursion limit is touched.

A P-node's children may be permuted arbitrarily, a Q-node's children may
only be reversed.  The frontier (leaves left to right) of any arrangement
is a row order making every processed column's ones consecutive, and the
set of frontiers is exactly the set of valid row orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError, SizeGuardError

LEAF = "leaf"
P = "P"
Q = "Q"

_EMPTY, _FULL, _PARTIAL = 0, 1, 2

# size guard of enumerate_frontiers: a P-node over k leaves has k! frontiers
FRONTIER_MAX_LEAVES = 8


class _Node:
    """A PQ-tree node.  `mask` is its leaf set as an int bitset, fixed at
    construction: the templates rearrange a subtree but never change the
    leaves under a node, so the mask never goes stale."""

    __slots__ = ("kind", "children", "row", "mask")

    def __init__(self, kind: str, children: Optional[list["_Node"]] = None, row: int = -1):
        self.kind = kind
        self.children: list[_Node] = children if children is not None else []
        self.row = row
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


def _make_q(children: list[_Node]) -> _Node:
    # a Q-node with two children is equivalent to a P-node with two children
    if len(children) == 1:
        return children[0]
    if len(children) == 2:
        return _Node(P, children)
    return _Node(Q, children)


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


def enumerate_frontiers(t: PQTree) -> set[tuple[int, ...]]:
    """All frontiers of the tree (testing aid; guarded against blow-up)."""
    if t.num_leaves > FRONTIER_MAX_LEAVES:
        raise SizeGuardError(f"frontier enumeration limited to {FRONTIER_MAX_LEAVES} leaves")

    def orders(node: _Node) -> Iterator[tuple[int, ...]]:
        if node.kind == LEAF:
            yield (node.row,)
            return
        if node.kind == P:
            arrangements: Iterable[Sequence[_Node]] = permutations(node.children)
        else:
            arrangements = (node.children, list(reversed(node.children)))
        for arr in arrangements:
            for parts in product(*(tuple(orders(c)) for c in arr)):
                yield tuple(x for part in parts for x in part)

    return set(orders(t._root))


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


def _reduce_root(node: _Node, hits: list[int], s: int) -> Optional[_Node]:
    """Apply the templates at the pertinent root, given each child's
    pertinent leaves; return the replacement node (same leaf set), or None."""
    children = node.children
    if node.kind == P:
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
            mid = _make_q(inner)
        if not empties:
            return mid
        node.children = empties + [mid]
        return node

    # Q-node: empties, optional partial, fulls, optional partial, empties.
    # The non-empty run [lo, hi] is found by C-level list scans, so the
    # Python-level work is proportional to the pertinent children only.
    lo = hits.index(next(filter(None, hits)))
    hi = len(hits) - 1 - hits[::-1].index(next(filter(None, reversed(hits))))
    if hi - lo + 1 != len(hits) - hits.count(0):
        return None
    if hits[lo + 1 : hi] != [c.mask for c in children[lo + 1 : hi]]:
        return None
    first_full, last_full = hits[lo] == children[lo].mask, hits[hi] == children[hi].mask
    if first_full and last_full:
        return node  # the pertinent children already form a full, contiguous run
    first = [children[lo]] if first_full else _reduce_partial(children[lo], s)
    last = [children[hi]] if last_full else _reduce_partial(children[hi], s)
    if first is None or last is None:
        return None
    node.children = children[:lo] + first + children[lo + 1 : hi] + last[::-1] + children[hi + 1 :]
    return node


def _reduce(root: _Node, s: int) -> Optional[_Node]:
    """Reduce the tree by one column; return the new root, or None."""
    # descend to the pertinent root: the deepest node containing all of s
    parent, node = None, root
    hits = [c.mask & s for c in node.children]
    while s in hits:
        parent, node = node, node.children[hits.index(s)]
        hits = [c.mask & s for c in node.children]
    replacement = _reduce_root(node, hits, s)
    if replacement is None or parent is None:
        return replacement
    if replacement is not node:
        parent.children[parent.children.index(node)] = replacement
    return root


def reduce_columns(rows: int, columns: Iterable[int]) -> Optional[PQTree]:
    """Reduce a universal tree by the given columns, in order.

    A column is an int bitset whose bit r is set iff row r holds a 1.
    Trivial columns (at most one 1 or all rows) and duplicates impose
    nothing new and are skipped.  Columns are read lazily, so on a NO
    answer none past the first failing column is ever built.  The shared
    core behind test_c1p and the segment-matrix recognizer.
    """
    if rows == 1:
        return PQTree(_Node(LEAF, row=0), 1)
    root = _Node(P, [_Node(LEAF, row=r) for r in range(rows)])
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
    return PQTree(root, rows)


def test_c1p(m: BinaryMatrix) -> Optional[PQTree]:
    """PQ-tree of all row orders making every column's ones consecutive,
    or None if no such order exists.

    Columns with at most one 1, full columns, and duplicate columns impose
    nothing new and are filtered first.
    """
    # column j as an int whose bit r is row r's entry: the reversed 0/1 digits
    columns = (int("".join(map(str, reversed(col))), 2) for col in zip(*m.data))
    return reduce_columns(m.rows, columns)


test_c1p.__test__ = False  # keep pytest from collecting the library function
