"""Centroid selection, the balanced subset-sum, and tree orientation under
the all-paths-Robinson premise."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from robinson import (
    DissimilaritySpace,
    InputError,
    OrientedTree,
    SizeGuardError,
    Tree,
    check_compatible,
    count_xi,
)
from robinson.errors import PreconditionError
from robinson.oracle import brute_optimal_orientation
from robinson.uniform_orient import (
    PREMISE_MAX_POINTS,
    _subset_sum,
    find_centroid,
    has_central_vertex,
    optimal_partition_of_neighbors,
    orient_all_robinson,
    verify_all_paths_robinson,
)
from support import (
    component_sizes,
    path_tree,
    planted_symmetric_robinson,
    random_tree,
    star_tree,
    tree_from_pruefer,
    tree_path,
)


def constant_space(n, value=1.0):
    d = np.full((n, n), value)
    np.fill_diagonal(d, 0.0)
    return DissimilaritySpace(d)


class TestVerifyAllPathsRobinson:
    def test_constant_space_any_tree(self):
        rng = random.Random(2)
        for _ in range(20):
            t = random_tree(rng, rng.randrange(2, 12))
            assert verify_all_paths_robinson(constant_space(t.n), t)

    def test_star_with_violating_triple(self):
        d = np.full((4, 4), 2.0)
        np.fill_diagonal(d, 0.0)
        d[1, 2] = d[2, 1] = 1.0  # leaf-center-leaf triple fails: 1 < max(2, 2)
        assert not verify_all_paths_robinson(DissimilaritySpace(d), star_tree(4, center=0))

    def test_planted_robinson_path(self):
        rng = random.Random(3)
        for _ in range(20):
            space, order = planted_symmetric_robinson(rng, rng.randrange(3, 10))
            assert verify_all_paths_robinson(space, path_tree(order))

    def test_matches_naive_pairwise_check(self):
        from robinson import is_one_way_order

        rng = random.Random(5)
        agree = 0
        for _ in range(60):
            n = rng.randrange(3, 8)
            t = random_tree(rng, n)
            d = np.array([[rng.choice([1.0, 2.0]) for _ in range(n)] for _ in range(n)])
            np.fill_diagonal(d, 0.0)
            space = DissimilaritySpace(d)
            naive = all(
                is_one_way_order(space, tree_path(t, u, v))
                for u in range(n)
                for v in range(n)
                if u != v
            )
            assert verify_all_paths_robinson(space, t) == naive
            agree += naive
        assert 0 < agree < 60  # both outcomes exercised

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            verify_all_paths_robinson(constant_space(3), Tree(2, [(0, 1)]))

    def test_size_guard_when_called_directly(self):
        n = PREMISE_MAX_POINTS + 1
        path = Tree(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(SizeGuardError, match=f"premise verification of {n} points exceeds "
                           f"the limit of {PREMISE_MAX_POINTS}"):
            verify_all_paths_robinson(constant_space(n), path)


class TestFindCentroid:
    def test_path_five(self):
        assert find_centroid(path_tree([0, 1, 2, 3, 4])) == 2

    def test_star(self):
        assert find_centroid(star_tree(6, center=0)) == 0

    def test_broom(self):
        t = Tree(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        assert find_centroid(t) == 2

    def test_components_within_half(self):
        rng = random.Random(7)
        for _ in range(60):
            t = random_tree(rng, rng.randrange(1, 20))
            c = find_centroid(t)
            for theta in component_sizes(t, c):
                assert 2 * theta <= t.n

    def test_single_vertex_and_edge(self):
        assert find_centroid(Tree(1, [])) == 0
        assert find_centroid(Tree(2, [(0, 1)])) in (0, 1)


class TestOptimalPartition:
    def test_weights_one_two(self):
        best, chosen = optimal_partition_of_neighbors([1, 2], 4)
        assert best == 2
        assert chosen == (1,)

    def test_weights_three_threes(self):
        best, chosen = optimal_partition_of_neighbors([3, 3, 3], 10)
        assert best == 3
        assert len(chosen) == 1

    def test_unit_weights(self):
        best, chosen = optimal_partition_of_neighbors([1, 1, 1, 1], 5)
        assert best == 2
        assert len(chosen) == 2

    def test_table_monotone_invariants(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(3, 16)
            weights = []
            left = n - 1
            while left:
                w = rng.randrange(1, left + 1)
                weights.append(w)
                left -= w
            best, chosen = optimal_partition_of_neighbors(weights, n)
            # m[i][j]: the subset-sum's optimum with cap i over the first j weights
            m = [[_subset_sum(weights[:j], i)[0] for j in range(len(weights) + 1)]
                 for i in range(n // 2 + 1)]
            for i in range(len(m)):
                assert m[i][0] == 0
                for j in range(len(m[0])):
                    assert m[i][j] <= i
                    if j:
                        assert m[i][j] >= m[i][j - 1]
                    if i:
                        assert m[i][j] >= m[i - 1][j]
            assert best == m[-1][-1]
            assert sum(weights[k] for k in chosen) == best
            # the optimum matches exhaustive subset search
            want = max(
                (
                    s
                    for k in range(len(weights) + 1)
                    for c in combinations(weights, k)
                    if (s := sum(c)) <= n // 2
                ),
                default=0,
            )
            assert best == want

    def test_ties_broken_toward_exclusion(self):
        # the last weight is left out whenever the rest already reach the optimum
        assert _subset_sum([2, 2], 2) == (2, (0,))
        assert _subset_sum([1, 1, 2], 3) == (3, (0, 2))
        assert _subset_sum([3, 1, 2], 3) == (3, (0,))
        assert _subset_sum([4], 3) == (0, ())

    def test_rejects_oversized_weight(self):
        with pytest.raises(InputError):
            optimal_partition_of_neighbors([7], 5)


class TestOrientAllRobinson:
    def test_constant_path_four(self):
        t = path_tree([0, 1, 2, 3])
        ot, xi = orient_all_robinson(constant_space(4), t)
        assert xi == 6
        assert count_xi(ot) == 6

    def test_constant_star_five(self):
        ot, xi = orient_all_robinson(constant_space(5), star_tree(5))
        assert xi == 8

    def test_single_edge(self):
        ot, xi = orient_all_robinson(constant_space(2), Tree(2, [(0, 1)]))
        assert xi == 1

    def test_matches_brute_force_on_small_trees(self):
        rng = random.Random(13)
        for _ in range(40):
            t = random_tree(rng, rng.randrange(2, 10))
            space = constant_space(t.n)
            _, xi = orient_all_robinson(space, t)
            best, _ = brute_optimal_orientation(space, t)
            assert xi == best, t.edges

    def test_distance_monotone_spaces(self):
        # d = f(tree distance) with f nondecreasing makes every path Robinson
        rng = random.Random(14)
        for _ in range(20):
            t = random_tree(rng, rng.randrange(2, 10))
            n = t.n
            steps = sorted(rng.uniform(0.1, 2.0) for _ in range(n))
            f = [0.0]
            for s in steps:
                f.append(f[-1] + s)
            d = np.zeros((n, n))
            for u in range(n):
                for v in range(n):
                    if u != v:
                        d[u, v] = f[len(tree_path(t, u, v)) - 1]
            space = DissimilaritySpace(d)
            assert verify_all_paths_robinson(space, t)
            ot, xi = orient_all_robinson(space, t, verify_premise=True)
            assert check_compatible(space, ot)
            best, _ = brute_optimal_orientation(space, t)
            assert xi == best

    def test_closed_form_xi_matches_recount_at_scale(self):
        rng = random.Random(29)
        legs = [[1 + 3 * k + j for j in range(3)] for k in range(700)]
        spider = Tree(1 + 3 * 700, [e for leg in legs for e in zip([0] + leg, leg)])
        trees = [random_tree(rng, n) for n in (2000, 3001, 5000)]
        trees += [spider, path_tree(list(range(4000))), star_tree(3000, center=7)]
        trees.append(tree_from_pruefer(2500, [rng.randrange(40) for _ in range(2498)]))
        for t in trees:
            ot, xi = orient_all_robinson(None, t)
            assert xi == count_xi(ot)

    def test_has_central_vertex_and_split_balance(self):
        rng = random.Random(17)
        for _ in range(30):
            t = random_tree(rng, rng.randrange(2, 12))
            ot, xi = orient_all_robinson(constant_space(t.n), t)
            assert has_central_vertex(ot) is not None
            assert xi == count_xi(ot)

    def test_split_minimizes_imbalance_over_uniform_orientations(self):
        rng = random.Random(19)
        for _ in range(20):
            t = random_tree(rng, rng.randrange(3, 11))
            n = t.n
            c = find_centroid(t)
            weights = component_sizes(t, c)
            _, chosen = optimal_partition_of_neighbors(weights, n)
            got_in = sum(weights[k] for k in chosen)
            best = min(
                abs((n - 1 - s) - s)
                for k in range(len(weights) + 1)
                for c2 in combinations(weights, k)
                for s in [sum(c2)]
            )
            assert abs((n - 1 - got_in) - got_in) == best

    def test_verify_premise_flag(self):
        d = np.full((4, 4), 2.0)
        np.fill_diagonal(d, 0.0)
        d[1, 2] = d[2, 1] = 1.0
        space = DissimilaritySpace(d)
        t = star_tree(4, center=0)
        with pytest.raises(PreconditionError):
            orient_all_robinson(space, t, verify_premise=True)
        orient_all_robinson(space, t)  # caller's promise: no check, no error

    def test_space_optional_without_verification(self):
        t = path_tree([0, 1, 2, 3, 4])
        ot, xi = orient_all_robinson(None, t)
        assert xi == 10


class TestHasCentralVertex:
    def test_monotone_path_leftmost(self):
        t = path_tree([0, 1, 2, 3])
        ot = OrientedTree(t, [(0, 1), (1, 2), (2, 3)])
        assert has_central_vertex(ot) == 0

    def test_no_central_vertex(self):
        t = Tree(4, [(0, 1), (2, 1), (2, 3)])
        ot = OrientedTree(t, [(0, 1), (2, 1), (2, 3)])
        assert has_central_vertex(ot) is None

    def test_star_all_out(self):
        t = star_tree(4, center=0)
        ot = OrientedTree(t, [(0, 1), (0, 2), (0, 3)])
        assert has_central_vertex(ot) == 0

    def test_agrees_with_reachability(self):
        from robinson import reachability

        rng = random.Random(23)
        for _ in range(40):
            t = random_tree(rng, rng.randrange(2, 10))
            arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
            ot = OrientedTree(t, arcs)
            r = reachability(ot)
            centrals = [
                x
                for x in range(t.n)
                if all((x, y) in r or (y, x) in r for y in range(t.n) if y != x)
            ]
            got = has_central_vertex(ot)
            assert got == (centrals[0] if centrals else None)
