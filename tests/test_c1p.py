"""PQ-tree consecutive-ones engine, certified against exhaustive search.

The completeness tests enumerate the full frontier set of the returned tree
and require it to equal the set of valid row permutations exactly; that
exercises every reduction template.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations, permutations

import numpy as np
import pytest

from robinson import (
    BinaryMatrix,
    DissimilaritySpace,
    InputError,
    SizeGuardError,
    enumerate_frontiers,
    frontier,
    test_c1p,
)
from robinson.c1p import reduce_columns
from robinson.oracle import brute_c1p
from support import (
    full_segment_reduction,
    matrix_from_columns,
    planted_c1p_matrix,
    planted_two_way_space,
    pq_to_nested,
    random_space,
    triple_two_way,
    valid_c1p_perms,
    validate_pq_tree,
)


class TestBasics:
    def test_identity_matrix_universal(self):
        m = BinaryMatrix([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        t = test_c1p(m)
        assert t is not None
        assert pq_to_nested(t)[0] == "P"
        assert len(enumerate_frontiers(t)) == 24

    def test_three_pair_columns_impossible(self):
        m = matrix_from_columns(3, [{0, 1}, {1, 2}, {0, 2}])
        assert test_c1p(m) is None
        assert brute_c1p(m) is None

    def test_all_ones_universal(self):
        m = BinaryMatrix([[1, 1], [1, 1], [1, 1]])
        t = test_c1p(m)
        assert t is not None
        assert len(enumerate_frontiers(t)) == 6

    def test_single_row(self):
        t = test_c1p(BinaryMatrix([[1, 0, 1]]))
        assert t is not None
        assert frontier(t) == (0,)

    def test_rejects_bad_entries(self):
        with pytest.raises(InputError):
            BinaryMatrix([[0, 2]])
        with pytest.raises(InputError):
            BinaryMatrix([[0, 1], [1]])

    def test_rejects_fractional_entries(self):
        with pytest.raises(InputError):
            BinaryMatrix([[0.5, 1.9]])
        assert BinaryMatrix([[0.0, 1.0]]).data == ((0, 1),)

    def test_frontier_guard(self):
        m = BinaryMatrix([[1] for _ in range(9)])
        t = test_c1p(m)
        assert t is not None
        with pytest.raises(SizeGuardError):
            enumerate_frontiers(t)

    def test_structure_validates(self):
        m = matrix_from_columns(6, [{0, 1}, {1, 2}, {3, 4}, {2, 3}, {0, 1, 2}])
        t = test_c1p(m)
        assert t is not None
        validate_pq_tree(t)


def consecutive(position, column) -> bool:
    pos = sorted(position[r] for r in column)
    return pos[-1] - pos[0] + 1 == len(pos)


class TestBitsetColumns:
    def test_int_columns(self):
        t = reduce_columns(4, [0b0011, 0b0110, 0b1100])
        assert t is not None
        assert frontier(t) in ((0, 1, 2, 3), (3, 2, 1, 0))

    def test_stops_reading_at_first_failing_column(self):
        read = []

        def columns():
            for s in (0b011, 0b110, 0b101, 0b111, 0b001):
                read.append(s)
                yield s

        assert reduce_columns(3, columns()) is None
        assert read == [0b011, 0b110, 0b101]

    def test_deep_partial_chain_leaves_recursion_limit_alone(self, monkeypatch):
        # nested prefixes {0..j} build a k-deep chain of P-nodes; {0, k+1}
        # then makes every node on that chain partial
        def refuse(limit):
            raise AssertionError("sys.setrecursionlimit called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        k = 1500
        cols = [set(range(j + 1)) for j in range(1, k + 1)] + [{0, k + 1}]
        t = test_c1p(matrix_from_columns(k + 2, cols))
        assert t is not None
        validate_pq_tree(t)
        position = {r: i for i, r in enumerate(frontier(t))}
        assert all(consecutive(position, c) for c in cols)


class TestFrontier:
    def test_frontier_is_valid_order(self):
        rng = random.Random(1)
        for _ in range(50):
            m = planted_c1p_matrix(rng, rng.randrange(2, 8), rng.randrange(1, 10))
            t = test_c1p(m)
            assert t is not None  # planted matrices are C1P
            order = frontier(t)
            assert order in valid_c1p_perms(m)

    def test_reversal_closure(self):
        rng = random.Random(2)
        for _ in range(30):
            m = planted_c1p_matrix(rng, rng.randrange(2, 7), rng.randrange(1, 8))
            t = test_c1p(m)
            fs = enumerate_frontiers(t)
            for order in fs:
                assert tuple(reversed(order)) in fs


class TestAgainstBruteForce:
    def test_presence_agreement_random(self):
        rng = random.Random(3)
        for trial in range(400):
            rows = rng.randrange(2, 8)
            cols = rng.randrange(1, 11)
            if trial % 2 == 0:
                m = planted_c1p_matrix(rng, rows, cols)
                if rng.random() < 0.7:  # perturb: may or may not stay C1P
                    data = [list(r) for r in m.data]
                    data[rng.randrange(rows)][rng.randrange(cols)] ^= 1
                    m = BinaryMatrix(data)
            else:
                m = BinaryMatrix(
                    [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
                )
            got = test_c1p(m)
            want = brute_c1p(m)
            assert (got is None) == (want is None), m.data

    def test_frontier_set_equals_valid_set(self):
        rng = random.Random(4)
        checked = 0
        for trial in range(300):
            rows = rng.randrange(2, 7)
            cols = rng.randrange(1, 9)
            if trial % 2 == 0:
                m = planted_c1p_matrix(rng, rows, cols)
            else:
                m = BinaryMatrix(
                    [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
                )
            t = test_c1p(m)
            if t is None:
                assert not valid_c1p_perms(m), m.data
                continue
            validate_pq_tree(t)
            assert enumerate_frontiers(t) == valid_c1p_perms(m), m.data
            checked += 1
        assert checked > 100

    def test_frontier_set_exhaustive_small(self):
        # every subset family over 4 rows with up to 3 distinct columns
        rows = 4
        subsets = [frozenset(s) for k in range(2, 4) for s in combinations(range(rows), k)]
        for k in range(1, 4):
            for cols in combinations(subsets, k):
                m = matrix_from_columns(rows, cols)
                t = test_c1p(m)
                valid = valid_c1p_perms(m)
                if t is None:
                    assert not valid, cols
                else:
                    assert enumerate_frontiers(t) == valid, cols


class TestSegmentColumns:
    """The PQ-tree of all segment columns of a space has exactly the
    two-way orders as its frontiers, checked against brute force."""

    @staticmethod
    def two_way_orders(space):
        d = space.d
        return {p for p in permutations(range(space.n)) if triple_two_way(d, p)}

    def test_pq_tree_frontiers_all_compatible(self):
        chain = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        t = full_segment_reduction(chain)
        assert t is not None
        assert enumerate_frontiers(t) == self.two_way_orders(chain) == {(0, 1, 2), (2, 1, 0)}
        rng = random.Random(5)
        present = 0
        for trial in range(90):
            n = rng.randrange(2, 7)
            if trial % 3 == 0:
                space, _ = planted_two_way_space(rng, n)
                space = DissimilaritySpace(np.round(space.d))  # ties
            else:
                space = random_space(rng, n, values=[1.0, 2.0, 3.0][: 2 + trial % 2])
            t = full_segment_reduction(space)
            want = self.two_way_orders(space)
            if t is None:
                assert not want
            else:
                assert enumerate_frontiers(t) == want
                present += 1
        assert present > 30
