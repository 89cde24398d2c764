"""Brute-force reference implementations and their size guards."""

from __future__ import annotations

import random
from itertools import permutations

import numpy as np
import pytest

from robinson import BinaryMatrix, DissimilaritySpace, InputError, SizeGuardError, Tree
from robinson.oracle import (
    C1P_MAX_ROWS,
    brute_c1p,
    brute_optimal_orientation,
    brute_robinson_subset,
    brute_two_way,
    segment,
)
from robinson.reductions import SimpleGraph, build_subset_instance
from support import (
    matrix_from_columns,
    path_tree,
    planted_two_way_space,
    random_space,
    triple_two_way,
)


def constant_space(n):
    d = np.full((n, n), 1.0)
    np.fill_diagonal(d, 0.0)
    return DissimilaritySpace(d)


class TestBruteOptimalOrientation:
    def test_constant_path(self):
        best, ot = brute_optimal_orientation(constant_space(4), path_tree([0, 1, 2, 3]))
        assert best == 6

    def test_single_edge(self):
        best, _ = brute_optimal_orientation(constant_space(2), Tree(2, [(0, 1)]))
        assert best == 1

    def test_break_instance(self):
        d = np.full((4, 4), 2.0)
        np.fill_diagonal(d, 0.0)
        for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            d[i, j] = d[j, i] = 1.0
        best, ot = brute_optimal_orientation(DissimilaritySpace(d), path_tree([0, 1, 2, 3]))
        assert best == 4

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            brute_optimal_orientation(constant_space(25), path_tree(list(range(25))))


class TestBruteTwoWay:
    def test_two_points(self):
        assert brute_two_way(constant_space(2)) == (0, 1)

    def test_chain_lexicographic_first(self):
        space = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert brute_two_way(space) == (0, 1, 2)

    def test_counterexample_absent(self):
        space = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [0.5, 1, 0]])
        assert brute_two_way(space) is None

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            brute_two_way(constant_space(9))

    def test_matches_per_permutation_triple_search(self):
        # the first permutation in lexicographic order that passes the
        # literal triple definition, one permutation at a time
        rng = random.Random(2311)
        for n, count in [(1, 300), (2, 300), (3, 300), (4, 300), (5, 300), (6, 300), (7, 50)]:
            for trial in range(count):
                if trial % 2:
                    space = planted_two_way_space(rng, n)[0]
                else:
                    space = random_space(rng, n, values=[1.0, 2.0, 3.0])
                rows = space.d.tolist()
                want = next((p for p in permutations(range(n)) if triple_two_way(rows, p)), None)
                assert brute_two_way(space) == want, (n, trial)


class TestBruteC1p:
    def test_identity(self):
        m = BinaryMatrix([[1 if i == j else 0 for j in range(3)] for i in range(3)])
        assert brute_c1p(m) == (0, 1, 2)

    def test_pair_triangle_absent(self):
        m = matrix_from_columns(3, [{0, 1}, {1, 2}, {0, 2}])
        assert brute_c1p(m) is None

    def test_all_ones(self):
        assert brute_c1p(BinaryMatrix([[1], [1], [1]])) == (0, 1, 2)

    def test_size_guard(self):
        assert brute_c1p(BinaryMatrix([[1]] * C1P_MAX_ROWS)) == tuple(range(C1P_MAX_ROWS))
        with pytest.raises(SizeGuardError):
            brute_c1p(BinaryMatrix([[1]] * (C1P_MAX_ROWS + 1)))


class TestSegment:
    def test_refuses_float_anchors(self):
        # numpy's IndexError before; numpy ints and bools still work
        space = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(InputError, match=r"^segment anchor 0\.0 is not an integer$"):
            segment(space, 0.0, 1.0)
        assert segment(space, np.int64(0), 2) == {0, 1, 2} and segment(space, True, 2) == {1, 2}


class TestBruteRobinsonSubset:
    def test_kappa_equals_n(self):
        space = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert brute_robinson_subset(space, 3) == (0, 1, 2)

    def test_kappa_two_always_present(self):
        rng = random.Random(3)
        space = random_space(rng, 5, values=[1.0, 2.0], symmetric=True)
        assert brute_robinson_subset(space, 2) == (0, 1)

    def test_star_instance_absent_at_kappa(self):
        inst = build_subset_instance(SimpleGraph(4, [(0, 1), (0, 2), (0, 3)]))
        assert brute_robinson_subset(inst.space, inst.kappa) is None

    def test_budget_guard(self):
        rng = random.Random(5)
        space = random_space(rng, 40, values=[1.0, 2.0], symmetric=True)
        with pytest.raises(SizeGuardError):
            brute_robinson_subset(space, 20, max_subsets=1000)

    @pytest.mark.parametrize("kappa", [-1, 4])
    def test_kappa_out_of_range(self, kappa):
        with pytest.raises(InputError, match=f"kappa={kappa} out of range for n=3"):
            brute_robinson_subset(constant_space(3), kappa)

    def test_refuses_float_kappa(self):
        with pytest.raises(InputError, match=r"^kappa 2\.0 is not an integer$"):
            brute_robinson_subset(constant_space(3), 2.0)
        assert brute_robinson_subset(constant_space(3), np.int64(2)) == (0, 1)

    def test_kappa_zero_is_the_empty_subset(self):
        assert brute_robinson_subset(constant_space(3), 0) == ()

    def test_negative_budget_is_malformed(self):
        # checked before kappa's range and before the size guard
        space = random_space(random.Random(7), 3, values=[1.0], symmetric=True)
        for kappa in (2, 9):
            with pytest.raises(InputError, match="budget -1 must be nonnegative"):
                brute_robinson_subset(space, kappa, max_subsets=-1)
