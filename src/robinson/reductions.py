"""Hardness-reduction instance constructors and forward-direction checks.

Three generator families:

* a 3-CNF maps to a tree plus {1,2}-valued dissimilarity whose optimal
  orientation count hits a closed-form target exactly when the formula is
  satisfiable; satisfying assignments yield checkable witness orientations;
* a graph maps to a space whose largest Robinson subset encodes a
  Hamiltonian path;
* a (space, kappa) pair maps to an oriented path whose compatible
  assignments encode Robinson subsets of size kappa.

Only the constructions and the forward (witness) direction are implemented;
deciding satisfiability or exhausting the converse direction is out of
scope by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import DissimilaritySpace, OrientedTree, Tree, checked_edges, integer_edges
from .errors import InputError, SizeGuardError

# truth values of the three literals, one row per z-pattern, in the fixed
# order: exactly-one-true (3 rows), exactly-two-true (3 rows), all-true
_LITERAL_TRUTH_PATTERNS: tuple[tuple[bool, bool, bool], ...] = (
    (True, False, False),
    (False, True, False),
    (False, False, True),
    (True, True, False),
    (True, False, True),
    (False, True, True),
    (True, True, True),
)
_PATTERN_INDEX = {p: k + 1 for k, p in enumerate(_LITERAL_TRUTH_PATTERNS)}

# Largest space a generator builds.  Its dense float matrix takes 8 * points^2
# bytes, 200 MB at this limit; the point count comes from a file header alone,
# so it is checked before anything is allocated.
MAX_POINTS = 5000


def _guard_points(total: int) -> None:
    if total > MAX_POINTS:
        raise SizeGuardError(f"instance of {total} points exceeds the limit of {MAX_POINTS}")


def _leaves_per_family(num_clauses: int) -> int:
    """L, the leaf count of each plus or minus family in the 3-CNF instance."""
    return 7 * num_clauses + 2


# The builders' vertex layouts, one formula each: n variables (graph
# vertices), L leaves per family, m edges; vertex_roles names every index
def _plus_index(n: int, L: int, i: int) -> int:
    return 1 + n + (i - 1) * 2 * L  # x{i}+1; the minus family starts L places on


def _z_index(n: int, L: int, j: int, l: int) -> int:
    return 1 + n + 2 * n * L + (j - 1) * 7 + (l - 1)


def _x_index(m: int, i: int, k: int) -> int:
    return (i - 1) * (m + 1) + (k - 1)


def _y_index(n: int, m: int, j: int) -> int:
    return n * (m + 1) + (j - 1)


@dataclass(frozen=True)
class Cnf3:
    """A 3-CNF: clauses are triples of signed 1-based variable indices."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]]):
        cl = tuple(tuple(int(x) for x in c) for c in clauses)
        if num_vars < 1:
            raise InputError("formula needs at least one variable")
        for c in cl:
            if len(c) != 3:
                raise InputError(f"clause {c} must have exactly 3 literals")
            for lit in c:
                if lit == 0 or not 1 <= abs(lit) <= num_vars:
                    raise InputError(f"literal {lit} out of range")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", cl)

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.num_vars:
            raise InputError("assignment must cover all variables")
        return all(
            any(assignment[abs(lit) - 1] == (lit > 0) for lit in c) for c in self.clauses
        )


def parse_dimacs(text: str) -> Cnf3:
    """DIMACS CNF with one `p cnf n m` header; clauses terminated by 0.  A
    line starting with `%` ends the formula, as in SATLIB files, whose
    trailer is `%` and then `0`.  A second header and clauses with other
    than three literals are rejected."""
    header: Optional[tuple[int, int]] = None
    literals: list[int] = []
    clauses: list[list[int]] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break  # the SATLIB trailer: what follows is not a clause
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise InputError(f"second DIMACS header: {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InputError(f"bad DIMACS header: {line!r}")
            try:
                header = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise InputError(f"bad DIMACS header: {line!r}") from exc
            if min(header) < 0:
                raise InputError(f"bad DIMACS header: {line!r}")
            continue
        for tok in line.split():
            try:
                v = int(tok)
            except ValueError as exc:
                raise InputError(f"bad DIMACS literal {tok!r} in line {line!r}") from exc
            if v == 0:
                clauses.append(literals)
                literals = []
            else:
                literals.append(v)
    if header is None:
        raise InputError("missing DIMACS header")
    num_vars, num_clauses = header
    if literals:
        clauses.append(literals)  # tolerate a missing final 0
    if len(clauses) != num_clauses:
        raise InputError(f"header promises {num_clauses} clauses, found {len(clauses)}")
    return Cnf3(num_vars, clauses)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph, no loops or multi-edges; m need not be n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        es = tuple(checked_edges(n, integer_edges(edges)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", es)


@dataclass(frozen=True)
class OrientationInstance:
    """Tree + dissimilarity + path-count target built from a 3-CNF.

    Vertex layout: the hub first, then one selector per variable, then per
    variable its plus-leaf and minus-leaf families, then 7 clause vertices
    per clause.  vertex_roles records the readable name of each index.
    Tree edges, in order: hub to each selector; per variable, selector to
    each leaf of its plus family, then of its minus family; hub to each
    clause vertex.
    """

    tree: Tree
    space: DissimilaritySpace
    kappa: int
    vertex_roles: dict[int, str]
    cnf: Cnf3


def orientation_kappa(num_vars: int, num_clauses: int) -> int:
    """Closed-form path-count target for the 3-CNF construction."""
    n, m = num_vars, num_clauses
    L = _leaves_per_family(m)
    return (
        7 * m + 5 * n + 14 * n * m  # the edges themselves
        + n * L * L  # plus-to-minus leaf pairs through each selector
        + n * m  # selector -> hub -> chosen clause vertex
        + n * L  # inward leaves reaching the hub
        + n * m * L  # inward leaves reaching chosen clause vertices
        + 6 * m * m  # inward clause vertices reaching chosen ones
    )


def build_orientation_instance(cnf: Cnf3) -> OrientationInstance:
    """The tree and {1,2} dissimilarity encoding the formula, with kappa."""
    n, m = cnf.num_vars, len(cnf.clauses)
    for c in cnf.clauses:
        if len({abs(lit) for lit in c}) != 3:
            raise InputError(f"clause {c} repeats a variable")
    L = _leaves_per_family(m)
    total = _z_index(n, L, m + 1, 1)  # one past the last clause vertex
    _guard_points(total)
    d = np.full((total, total), 2.0)
    d[1 : n + 1, 1 : n + 1] = 1.0
    roles: dict[int, str] = {0: "y"}
    edges: list[tuple[int, int]] = [(0, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        roles[i] = f"x{i}"
        plus = _plus_index(n, L, i)
        for sign, start in (("+", plus), ("-", plus + L)):
            d[start : start + L, start : start + L] = 1.0
            edges.extend((i, v) for v in range(start, start + L))
            roles.update((start + k - 1, f"x{i}{sign}{k}") for k in range(1, L + 1))
    for j, clause in enumerate(cnf.clauses, start=1):
        for l, pattern in enumerate(_LITERAL_TRUTH_PATTERNS, start=1):
            z = _z_index(n, L, j, l)
            roles[z] = f"z{j}_{l}"
            edges.append((0, z))
            for lit, lit_true in zip(clause, pattern):
                # the minus family carries the d=1 tie exactly when the
                # pattern makes the literal's variable True (its plus family
                # then reaches the hub)
                fam = _plus_index(n, L, abs(lit)) + (L if lit_true == (lit > 0) else 0)
                d[z, fam : fam + L] = 1.0
                d[fam : fam + L, z] = 1.0
    tree = Tree(total, edges)
    np.fill_diagonal(d, 0.0)
    return OrientationInstance(
        tree, DissimilaritySpace(d), orientation_kappa(n, m), roles, cnf
    )


def witness_orientation(
    inst: OrientationInstance, assignment: Sequence[bool]
) -> Optional[OrientedTree]:
    """The canonical compatible orientation encoding a satisfying
    assignment (selectors to the hub, leaf families by variable value, one
    outward clause vertex per clause), or None if the assignment does not
    satisfy the formula.  One reversal flag per tree edge, in the order
    OrientationInstance states."""
    cnf = inst.cnf
    if not cnf.evaluate(assignment):
        return None
    L = _leaves_per_family(len(cnf.clauses))
    flags = [True] * cnf.num_vars  # every selector points to the hub
    for a in assignment:  # a True variable's plus leaves point in, minus out
        flags += [a] * L + [not a] * L
    for clause in cnf.clauses:
        chosen = _PATTERN_INDEX[tuple(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)]
        flags += [l != chosen for l in range(1, 8)]  # only the chosen points out
    return OrientedTree.from_reversed(inst.tree, flags)


@dataclass(frozen=True)
class SubsetInstance:
    """Space + kappa built from a graph for the Robinson-subset question."""

    space: DissimilaritySpace
    kappa: int
    vertex_roles: dict[int, str]


def build_subset_instance(g: SimpleGraph) -> SubsetInstance:
    """n*(m+1) clones per graph vertex plus one point per edge; clone blocks
    are mutually close, each edge point is close to its endpoints' blocks,
    everything else is far.  kappa = n*(m+1) + n - 1."""
    n, m = g.n, len(g.edges)
    if m < 1:
        raise InputError("graph needs at least one edge")
    total = _y_index(n, m, m + 1)  # one past the last edge point
    _guard_points(total)
    d = np.full((total, total), 2.0)
    roles: dict[int, str] = {}
    blocks = [slice(_x_index(m, i, 1), _x_index(m, i + 1, 1)) for i in range(1, n + 1)]
    for i, block in enumerate(blocks, start=1):
        d[block, block] = 1.0
        roles.update((_x_index(m, i, k), f"x{i}^{k}") for k in range(1, m + 2))
    for j, (u, v) in enumerate(g.edges, start=1):
        y = _y_index(n, m, j)
        roles[y] = f"y{j}"
        for block in (blocks[u], blocks[v]):  # the clones of graph vertices u + 1, v + 1
            d[y, block] = 1.0
            d[block, y] = 1.0
    np.fill_diagonal(d, 0.0)
    return SubsetInstance(DissimilaritySpace(d), n * (m + 1) + n - 1, roles)


def build_assignment_instance(n: int, kappa: int) -> OrientedTree:
    """The oriented path on n positions whose compatible assignments, for a
    space of n points, are exactly the bijections placing a Robinson subset
    of size kappa on the monotone prefix: positions 1..kappa run forward,
    the tail alternates so every maximal directed path there has a single
    edge."""
    if not 1 <= kappa <= n:
        raise InputError(f"kappa={kappa} out of range for n={n}")
    # edge t joins positions t-1 and t; from t = kappa on, every other
    # edge is reversed
    tree = Tree(n, [(t - 1, t) for t in range(1, n)])
    return OrientedTree.from_reversed(
        tree, [t >= kappa and (t - kappa) % 2 == 0 for t in range(1, n)]
    )
