"""Core data model: order predicates, reachability, path counting, the
compatibility checker."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robinson
from robinson import (
    DissimilaritySpace,
    InputError,
    OrientedTree,
    Tree,
    check_compatible,
    count_xi,
    is_one_way_order,
    is_two_way_order,
)
from robinson.core import _paths_ok
from support import (
    maximal_directed_paths,
    maximal_path_check,
    random_space,
    random_tree,
    reachability,
    tree_path,
    triple_one_way,
    triple_two_way,
)


def constant_space(n, value=1.0):
    d = np.full((n, n), value)
    np.fill_diagonal(d, 0.0)
    return DissimilaritySpace(d)


def sym(entries, n):
    d = np.zeros((n, n))
    for (i, j), v in entries.items():
        d[i, j] = v
        d[j, i] = v
    return DissimilaritySpace(d)


# the asymmetric 3-point counterexample: forward family holds, backward fails
ASYM3 = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [0.5, 1, 0]])


class TestConstruction:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            DissimilaritySpace([[1.0]])

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            DissimilaritySpace([[0, -1], [1, 0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            DissimilaritySpace([[0, 1, 2], [1, 0, 1]])

    def test_symmetry_predicate(self):
        assert sym({(0, 1): 1}, 2).is_symmetric
        assert not ASYM3.is_symmetric

    def test_tree_invariants(self):
        with pytest.raises(InputError):
            Tree(3, [(0, 1)])  # too few edges
        with pytest.raises(InputError):
            Tree(3, [(0, 1), (0, 1)])  # duplicate
        with pytest.raises(InputError):
            Tree(3, [(0, 1), (1, 1)])  # self-loop
        with pytest.raises(InputError):
            Tree(4, [(0, 1), (1, 2), (0, 2)])  # cycle (and disconnected)

    def test_oriented_tree_aligns_arcs(self):
        t = Tree(3, [(0, 1), (1, 2)])
        ot = OrientedTree(t, [(2, 1), (0, 1)])
        assert ot.arcs == ((0, 1), (2, 1))
        with pytest.raises(InputError):
            OrientedTree(t, [(0, 1), (0, 2)])


class TestIsOneWayOrder:
    def test_constant_space_any_order(self):
        space = constant_space(4)
        for order in ([0, 1, 2, 3], [2, 0, 3, 1]):
            assert is_one_way_order(space, order)

    def test_violating_triple(self):
        space = sym({(0, 1): 2, (1, 2): 1, (0, 2): 1}, 3)
        assert not is_one_way_order(space, [0, 1, 2])

    def test_chain(self):
        space = sym({(0, 1): 1, (1, 2): 1, (0, 2): 2}, 3)
        assert is_one_way_order(space, [0, 1, 2])

    def test_partial_order_accepted(self):
        space = sym({(0, 1): 2, (1, 2): 1, (0, 2): 1}, 3)
        assert is_one_way_order(space, [0, 2])  # pairs are always fine

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            is_one_way_order(constant_space(3), [0, 1, 0])


class TestIsTwoWayOrder:
    def test_two_points(self):
        space = constant_space(2)
        assert is_two_way_order(space, [0, 1])
        assert is_two_way_order(space, [1, 0])

    def test_symmetric_one_way_implies_two_way(self):
        space = sym({(0, 1): 1, (1, 2): 1, (0, 2): 2}, 3)
        assert is_one_way_order(space, [0, 1, 2])
        assert is_two_way_order(space, [0, 1, 2])

    def test_backward_family_fails(self):
        # forward triples hold but d(2,0) = 0.5 < max(d(2,1), d(1,0)) = 1
        assert is_one_way_order(ASYM3, [0, 1, 2])
        assert not is_two_way_order(ASYM3, [0, 1, 2])


class TestReachability:
    def test_directed_path(self):
        t = Tree(3, [(0, 1), (1, 2)])
        ot = OrientedTree(t, [(0, 1), (1, 2)])
        assert reachability(ot) == {(0, 1), (1, 2), (0, 2)}

    def test_sink_blocks(self):
        t = Tree(4, [(0, 1), (2, 1), (2, 3)])
        ot = OrientedTree(t, [(0, 1), (2, 1), (2, 3)])
        assert reachability(ot) == {(0, 1), (2, 1), (2, 3)}

    def test_star_all_out(self):
        t = Tree(4, [(0, 1), (0, 2), (0, 3)])
        ot = OrientedTree(t, [(0, 1), (0, 2), (0, 3)])
        assert reachability(ot) == {(0, 1), (0, 2), (0, 3)}


class TestCountXi:
    def test_monotone_path(self):
        t = Tree(5, [(i, i + 1) for i in range(4)])
        ot = OrientedTree(t, [(i, i + 1) for i in range(4)])
        assert count_xi(ot) == 10

    def test_with_sink(self):
        t = Tree(4, [(0, 1), (2, 1), (2, 3)])
        assert count_xi(OrientedTree(t, [(0, 1), (2, 1), (2, 3)])) == 3

    def test_star_two_in_two_out(self):
        t = Tree(5, [(0, i) for i in range(1, 5)])
        ot = OrientedTree(t, [(1, 0), (2, 0), (0, 3), (0, 4)])
        assert count_xi(ot) == 8

    def test_matches_reachability_size(self):
        rng = random.Random(7)
        for _ in range(50):
            t = random_tree(rng, rng.randrange(2, 12))
            arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
            ot = OrientedTree(t, arcs)
            assert count_xi(ot) == len(reachability(ot))


class TestCheckCompatible:
    def test_short_paths_always_pass(self):
        # alternating orientation: every maximal directed path has 2 vertices
        rng = random.Random(3)
        space = random_space(rng, 6)
        t = Tree(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        ot = OrientedTree(t, [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5)])
        assert check_compatible(space, ot)

    def test_constant_space_any_orientation(self):
        rng = random.Random(11)
        space = constant_space(8)
        for _ in range(20):
            t = random_tree(rng, 8)
            arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
            assert check_compatible(space, OrientedTree(t, arcs))

    def test_violating_triple(self):
        space = sym({(0, 1): 2, (1, 2): 1, (0, 2): 1}, 3)
        t = Tree(3, [(0, 1), (1, 2)])
        assert not check_compatible(space, OrientedTree(t, [(0, 1), (1, 2)]))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            check_compatible(constant_space(3), OrientedTree(Tree(2, [(0, 1)]), [(0, 1)]))

    def test_subpaths_of_compatible_pass(self):
        rng = random.Random(5)
        space = constant_space(7)
        t = random_tree(rng, 7)
        arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
        ot = OrientedTree(t, arcs)
        assert check_compatible(space, ot)
        for p in maximal_directed_paths(ot):
            for a in range(len(p)):
                for b in range(a + 2, len(p) + 1):
                    assert is_one_way_order(space, p[a:b])

    def test_matches_maximal_paths_and_triple_definition(self):
        # two references: the sequence test on every maximal directed path,
        # and the literal triple definition on every directed path
        rng = random.Random(29)
        value_sets = [[1.0, 2.0], [1.0, 2.0, 3.0], None]
        yes = 0
        for case in range(3000):
            n = rng.randrange(1, 11)
            space = random_space(rng, n, values=value_sets[case % 3], symmetric=case % 2 == 0)
            t = random_tree(rng, n)
            ot = OrientedTree(t, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges])
            literal = all(triple_one_way(space.d, tree_path(t, u, v)) for u, v in reachability(ot))
            answer = check_compatible(space, ot)
            assert answer == maximal_path_check(space, ot) == literal
            yes += answer
        assert 500 < yes < 2500  # both answers exercised

    @pytest.mark.parametrize("inward", [False, True], ids=["broom", "in-broom"])
    def test_reads_each_pair_at_most_three_times(self, inward):
        # a broom, a 200-vertex path with 200 leaves on its end, makes the
        # maximal-path walk test a handle pair once per leaf
        n, k = 400, 200
        edges = [(i, i + 1) for i in range(k - 1)] + [(k - 1, j) for j in range(k, n)]
        ot = OrientedTree(Tree(n, edges), [(v, u) for u, v in edges] if inward else edges)
        reads = [0]

        class CountingList(list):
            def __getitem__(self, i):
                reads[0] += 1
                return super().__getitem__(i)

        rows = CountingList(CountingList(r) for r in constant_space(n).d.tolist())
        assert _paths_ok(rows, ot.out_adjacency)
        assert reads[0] <= 3 * count_xi(ot)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_way_kernel_matches_triple_definition(data):
    n = data.draw(st.integers(2, 6))
    vals = data.draw(
        st.lists(
            st.floats(0, 5, allow_nan=False, width=32), min_size=n * n, max_size=n * n
        )
    )
    d = np.array(vals).reshape(n, n)
    np.fill_diagonal(d, 0.0)
    space = DissimilaritySpace(d)
    order = data.draw(st.permutations(range(n)))
    assert is_one_way_order(space, order) == triple_one_way(space.d, order)
    assert is_two_way_order(space, order) == triple_two_way(space.d, order)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_two_way_implies_one_way_and_symmetric_equivalences(data):
    n = data.draw(st.integers(2, 6))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    space = random_space(rng, n, values=[1.0, 2.0, 3.0])
    order = data.draw(st.permutations(range(n)))
    if is_two_way_order(space, order):
        assert is_one_way_order(space, order)
    sym_space = random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
    one = is_one_way_order(sym_space, order)
    assert one == is_two_way_order(sym_space, order)
    assert one == is_one_way_order(sym_space, list(reversed(order)))


def test_xi_upper_bound_and_monotone_path_equality():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randrange(2, 10)
        t = random_tree(rng, n)
        arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
        ot = OrientedTree(t, arcs)
        xi = count_xi(ot)
        assert xi <= n * (n - 1) // 2
        if xi == n * (n - 1) // 2:
            # must be a path oriented monotonically: one source reaches all
            out_deg = [len(a) for a in ot.out_adjacency]
            assert sorted(out_deg) == [0] + [1] * (n - 1)


def test_reachability_antisymmetric_transitive():
    rng = random.Random(17)
    for _ in range(30):
        t = random_tree(rng, rng.randrange(2, 10))
        arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
        ot = OrientedTree(t, arcs)
        r = reachability(ot)
        for u, v in r:
            assert (v, u) not in r
        for u, v in r:
            for x, y in r:
                if v == x:
                    assert (u, y) in r
        # pair reachable iff every edge on the tree path points forward
        for u in range(t.n):
            for v in range(t.n):
                if u == v:
                    continue
                p = tree_path(t, u, v)
                forward = all((p[i], p[i + 1]) in set(ot.arcs) for i in range(len(p) - 1))
                assert ((u, v) in r) == forward


def test_every_exported_name_resolves():
    for name in robinson.__all__:
        assert hasattr(robinson, name), name
    # the public surface, pinned: a name added or dropped shows in this diff
    assert sorted(robinson.__all__) == [
        "BinaryMatrix", "Cnf3", "DissimilaritySpace", "EtaTable", "InputError",
        "OrientationInstance", "OrientedTree", "PQTree", "PetalPartition",
        "PreconditionError", "Segment", "SimpleGraph", "SizeGuardError",
        "StarAssignment", "SubsetInstance", "Tree", "VertexOrder", "assign_star",
        "best_star_center", "build_assignment_instance", "build_orientation_instance",
        "build_subset_instance", "check_compatible", "count_xi", "eta_table",
        "find_centroid", "frontier", "is_one_way_order", "is_two_way_order",
        "optimal_partition_of_neighbors",
        "orient_all_robinson", "orient_star", "orientation_kappa", "parse_dimacs",
        "path_orientation", "petals", "recognize_two_way", "segment", "test_c1p",
        "witness_orientation",
    ]
