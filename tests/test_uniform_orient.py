"""Centroid selection, the balanced subset-sum, and tree orientation under
the all-paths-Robinson premise."""

from __future__ import annotations

import random
from itertools import combinations, product

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
from robinson.core import failing_pair
from robinson import uniform_orient
from robinson.errors import PreconditionError
from robinson.oracle import brute_optimal_orientation
from robinson.uniform_orient import (
    PREMISE_MAX_POINTS,
    _subset_sum,
    find_centroid,
    optimal_partition_of_neighbors,
    orient_all_robinson,
    verify_all_paths_robinson,
)
from support import (
    component_sizes,
    has_central_vertex,
    path_tree,
    planted_symmetric_robinson,
    random_tree,
    reachability,
    reference_orient_all_robinson,
    tree_from_pruefer,
    tree_path,
    triple_one_way,
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
        assert not verify_all_paths_robinson(DissimilaritySpace(d), Tree.star(4, 0))

    def test_planted_robinson_path(self):
        rng = random.Random(3)
        for _ in range(20):
            space, order = planted_symmetric_robinson(rng, rng.randrange(3, 10))
            assert verify_all_paths_robinson(space, path_tree(order))

    def test_matches_naive_pairwise_check(self):
        # the literal triple definition on every tree path, independent of
        # the adjacent-inequality kernel both library checks are built on
        rng = random.Random(5)
        agree = 0
        for _ in range(200):
            n = rng.randrange(3, 10)
            t = random_tree(rng, n)
            # entries in {1, 2, 3}: the tree distance capped at 3 makes every
            # path Robinson, and up to two random entries may then break it
            d = np.array([[min(3.0, len(tree_path(t, u, v)) - 1) for v in range(n)]
                          for u in range(n)])
            for _ in range(rng.randrange(3)):
                u, v = rng.sample(range(n), 2)
                d[u, v] = rng.choice([1.0, 2.0, 3.0])
            naive = all(
                triple_one_way(d, tree_path(t, u, v))
                for u in range(n)
                for v in range(n)
                if u != v
            )
            assert verify_all_paths_robinson(DissimilaritySpace(d), t) == naive
            agree += naive
            # the first breaking pair, row-major: smallest a, then smallest b
            first = None
            for u, v in product(range(n), repeat=2):
                path = tree_path(t, u, v)
                if len(path) > 2 and (d[u, v] < d[u, path[-2]] or d[u, v] < d[path[1], v]):
                    first = (u, v)
                    break
            assert failing_pair(DissimilaritySpace(d), t) == first
            assert first is None or not triple_one_way(d, tree_path(t, *first))
        assert 0 < agree < 200  # both outcomes exercised

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            verify_all_paths_robinson(constant_space(3), Tree(2, [(0, 1)]))

    def test_size_guard_when_called_directly(self):
        n = PREMISE_MAX_POINTS + 1
        path = Tree(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(SizeGuardError, match=f"premise verification of {n} points exceeds "
                           f"the limit of {PREMISE_MAX_POINTS}"):
            verify_all_paths_robinson(constant_space(n), path)

    def test_size_guard_before_size_mismatch(self):
        # the guard is checked first; failing_pair owns the size check
        n = PREMISE_MAX_POINTS + 1
        path = Tree(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(SizeGuardError):
            verify_all_paths_robinson(constant_space(3), path)


class TestFindCentroid:
    def test_path_five(self):
        assert find_centroid(path_tree([0, 1, 2, 3, 4])) == 2

    def test_star(self):
        assert find_centroid(Tree.star(6, 0)) == 0

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
    def test_refuses_float_weights(self):
        # a TypeError from the subset-sum before; numpy ints and bools still work
        with pytest.raises(InputError, match=r"^component weight 1\.0 is not an integer$"):
            optimal_partition_of_neighbors([1.0, 1.0], 3)
        assert optimal_partition_of_neighbors([np.int64(1), True], np.int64(3)) == (1, (0,))

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

    @pytest.mark.parametrize(
        "weights, message",
        [([2, 0], "component weight 0 must be >= 1"), ([2, 3], "weights sum to 5, more than n-1=4")],
        ids=["weight-below-one", "sum-past-n-1"],
    )
    def test_rejects_bad_weights(self, weights, message):
        with pytest.raises(InputError, match=message):
            optimal_partition_of_neighbors(weights, 5)


class TestOrientAllRobinson:
    def test_constant_path_four(self):
        t = path_tree([0, 1, 2, 3])
        ot, xi = orient_all_robinson(constant_space(4), t)
        assert xi == 6
        assert count_xi(ot) == 6

    def test_constant_star_five(self):
        ot, xi = orient_all_robinson(constant_space(5), Tree.star(5, 0))
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
        trees += [spider, path_tree(list(range(4000))), Tree.star(3000, 7)]
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
        t = Tree.star(4, 0)
        with pytest.raises(PreconditionError):
            orient_all_robinson(space, t, verify_premise=True)
        orient_all_robinson(space, t)  # caller's promise: no check, no error

    @pytest.mark.parametrize(
        "space, message",
        [(constant_space(4), "space has 4 points but tree has 5 vertices"),
         (None, "premise verification needs the dissimilarity space")],
        ids=["size-mismatch", "no-space"],
    )
    def test_bad_inputs_rejected(self, space, message):
        with pytest.raises(InputError, match=message):
            orient_all_robinson(space, path_tree([0, 1, 2, 3, 4]), verify_premise=True)

    def test_space_optional_without_verification(self):
        t = path_tree([0, 1, 2, 3, 4])
        ot, xi = orient_all_robinson(None, t)
        assert xi == 10

    def test_matches_two_walk_reference_on_every_free_tree(self):
        # every free tree with n <= 10, as given and under seeded
        # relabellings, edge-order shuffles and edge-direction flips
        nx = pytest.importorskip("networkx")
        rng = random.Random(10)
        shapes = [(1, []), (2, [(0, 1)])]
        shapes += [(n, list(g.edges())) for n in range(3, 11) for g in nx.nonisomorphic_trees(n)]
        assert len(shapes) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106
        for n, edges in shapes:
            for variant in range(4):
                if variant:
                    label = rng.sample(range(n), n)
                    edges = [(label[v], label[u]) if rng.random() < 0.5 else (label[u], label[v])
                             for u, v in edges]
                    rng.shuffle(edges)
                t = Tree(n, edges)
                center, arcs, want = reference_orient_all_robinson(t)
                assert find_centroid(t) == center, edges
                ot, xi = orient_all_robinson(None, t)
                assert ot.arcs == arcs, edges
                assert xi == want == count_xi(ot), edges


class TestTracedEntryPoints:
    """The benchmark's traced run wraps these uniform_orient attributes;
    orient_all_robinson must still reach them there, or orient-tree's
    centroid and partition times and counts silently read 0."""

    def test_orient_calls_wrapped_entry_points(self, monkeypatch):
        calls = {}

        def count(name):
            fn = getattr(uniform_orient, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(uniform_orient, name, wrapper)

        for name in ("find_centroid", "optimal_partition_of_neighbors"):
            count(name)
        orient_all_robinson(None, random_tree(random.Random(3), 40))
        assert calls == {"find_centroid": 1, "optimal_partition_of_neighbors": 1}


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
        t = Tree.star(4, 0)
        ot = OrientedTree(t, [(0, 1), (0, 2), (0, 3)])
        assert has_central_vertex(ot) == 0

    def test_agrees_with_reachability(self):
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
