"""PQ-tree consecutive-ones engine, certified against exhaustive search.

The completeness tests enumerate the full frontier set of the returned tree
and require it to equal the set of valid row permutations exactly; that
exercises every reduction template.
"""

from __future__ import annotations

import random
import re
import sys
from itertools import combinations, permutations

import numpy as np
import pytest

from robinson import (
    BinaryMatrix,
    DissimilaritySpace,
    InputError,
    PQTree,
    SizeGuardError,
    frontier,
    test_c1p,
)
import robinson.c1p
from robinson.c1p import Q, _reduce_p_root, _reduce_partial, reduce_columns, universal_tree
from robinson.oracle import brute_c1p
from support import (
    enumerate_frontiers,
    full_segment_reduction,
    matrix_from_columns,
    planted_c1p_matrix,
    planted_two_way_space,
    pq_to_nested,
    random_space,
    reference_reduce,
    reference_universal,
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

    def test_three_partial_children_impossible(self, monkeypatch):
        # three pair columns make the root P(P(0,1), P(2,3), P(4,5)); the
        # last column meets all three pairs in one row each
        calls = []

        def recorded(node, s):
            result = _reduce_p_root(node, s)
            partial = sum(0 < c.mask & s != c.mask for c in node.children)
            calls.append((s, partial, result))
            return result

        monkeypatch.setattr(robinson.c1p, "_reduce_p_root", recorded)
        m = matrix_from_columns(6, [{0, 1}, {2, 3}, {4, 5}, {1, 2, 4}])
        assert test_c1p(m) is None
        assert brute_c1p(m) is None
        assert calls[-1] == (0b10110, 3, False)

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
        t = reduce_columns(universal_tree(4), [0b0011, 0b0110, 0b1100])
        assert t is not None
        assert frontier(t) in ((0, 1, 2, 3), (3, 2, 1, 0))

    def test_stops_reading_at_first_failing_column(self):
        read = []

        def columns():
            for s in (0b011, 0b110, 0b101, 0b111, 0b001):
                read.append(s)
                yield s

        assert reduce_columns(universal_tree(3), columns()) is None
        assert read == [0b011, 0b110, 0b101]

    def test_batches_compose(self):
        # reducing A, then the result by B, is the reduction of A + B
        rng = random.Random(19)
        for _ in range(200):
            rows = rng.randrange(1, 12)
            m = planted_c1p_matrix(rng, rows, rng.randrange(1, 15))
            cols = list(dict.fromkeys(sum(b << r for r, b in enumerate(c)) for c in zip(*m.data)))
            cut = rng.randrange(len(cols) + 1)
            split = reduce_columns(reduce_columns(universal_tree(rows), cols[:cut]), cols[cut:])
            whole = reduce_columns(universal_tree(rows), cols)
            assert repr(split._root) == repr(whole._root)
            assert frontier(split) == frontier(whole)

    def test_frontier_reads_leaves_in_printed_order(self):
        # a P-node's leaf bits come first, ascending, then its other
        # children, which is the order `repr` prints
        rng = random.Random(29)
        for _ in range(200):
            rows = rng.randrange(1, 12)
            t = test_c1p(planted_c1p_matrix(rng, rows, rng.randrange(1, 15)))
            assert frontier(t) == tuple(map(int, re.findall(r"\d+", repr(t._root))))
        t = reduce_columns(universal_tree(5), [0b00110])
        assert repr(t._root) == "P(0, 3, 4, P(1, 2))"
        assert frontier(t) == (0, 3, 4, 1, 2)

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


class TestInPlaceTemplates:
    # the templates rearrange the pertinent root in place, so one tree, and
    # one root object, serve the whole reduction
    @pytest.mark.parametrize(
        "rows, columns, path, before, after",
        [
            # the tree root, a P-node, meets a full leaf and a partial child
            (3, [{0, 1}, {1, 2}], (), "P(2, P(0, 1))", "Q(0, 1, 2)"),
            # the same P-node below the root, beside two empty leaves
            (5, [{0, 1}, {0, 1, 2}, {1, 2}], (0,), "P(2, P(0, 1))", "Q(0, 1, 2)"),
            # a P-node root below the tree root with an empty child keeps it
            (5, [{0, 1, 2}, {0, 1}], (0,), "P(0, 1, 2)", "P(2, P(0, 1))"),
        ],
        ids=["p-root-becomes-q-at-tree-root", "p-root-becomes-q-below", "p-root-with-empties-below"],
    )
    def test_p_root_rearranged_in_place(self, rows, columns, path, before, after):
        # `path` indexes `children`, which lists no leaf of a P-node
        t = universal_tree(rows)
        bits = [sum(1 << r for r in c) for c in columns]
        for s in bits[:-1]:
            assert reduce_columns(t, [s]) is t
            validate_pq_tree(t)
        node = t._root
        for i in path:
            node = node.children[i]
        assert repr(node) == before
        assert reduce_columns(t, bits[-1:]) is t
        validate_pq_tree(t)  # every prefix union above the node still holds
        assert repr(node) == after
        assert enumerate_frontiers(t) == valid_c1p_perms(matrix_from_columns(rows, columns))


class TestPartialNodeBelowRoot:
    # the last column of each matrix meets the root, a P-node, in a full
    # leaf and one partial child, whose payload `_reduce_partial` returns
    # flattened empty side to full side, or None when it refuses
    @pytest.mark.parametrize(
        "columns, partial, payload",
        [
            ([{0, 1}, {1, 2}, {2, 3}, {2, 3, 4}], "Q(0, 1, 2, 3)", "[0, 1, 2, 3]"),
            ([{0, 1}, {1, 2}, {2, 3}, {0, 1, 4}], "Q(0, 1, 2, 3)", "[3, 2, 1, 0]"),
            ([{0, 1}, {1, 2}, {2, 3}, {1, 2, 4}], "Q(0, 1, 2, 3)", None),
            ([{0, 1, 2}, {2, 3}, {1, 4}], "Q(P(0, 1), 2, 3)", "[3, 2, 0, 1]"),
            ([{0, 1, 2}, {2, 3}, {1, 2, 3, 4}], "Q(P(0, 1), 2, 3)", "[0, 1, 2, 3]"),
            ([{0, 1, 2}, {2, 3, 4}, {1, 2, 3, 5}], "Q(P(0, 1), 2, P(3, 4))", None),
            ([{0, 1}, {2, 3}, {0, 1, 2, 3}, {1, 2, 4}], "P(P(0, 1), P(2, 3))", None),
        ],
        ids=[
            "q-run-at-right-end",
            "q-run-at-left-end",
            "q-run-at-neither-end",
            "q-run-of-one-partial-child-at-left-end",
            "q-run-at-right-end-partial-at-its-other-end",
            "q-run-at-both-ends-partial-at-both",
            "p-two-partial-children",
        ],
    )
    def test_payload_or_refusal(self, monkeypatch, columns, partial, payload):
        calls = []

        def recorded(node, s):
            result = _reduce_partial(node, s)
            calls.append((repr(node), None if result is None else repr(result)))
            return result

        monkeypatch.setattr(robinson.c1p, "_reduce_partial", recorded)
        m = matrix_from_columns(6, columns)
        t = test_c1p(m)
        assert calls[-1] == (partial, payload)
        assert (t is None) == (brute_c1p(m) is None) == (payload is None)
        if t is not None:
            validate_pq_tree(t)
            assert enumerate_frontiers(t) == valid_c1p_perms(m)


class TestChildScanningReference:
    def test_matches_reference_after_every_column(self):
        # planted matrices of 30-300 rows, every other one with a few entries
        # flipped; after each column the tree must equal the one the
        # child-scanning reducer builds, or both must fail at that column
        rng = random.Random(23)
        widest = failed = 0
        for trial in range(24):
            rows = rng.randrange(30, 301)
            m = planted_c1p_matrix(rng, rows, rng.randrange(rows // 2, rows + 1))
            cols = [sum(b << r for r, b in enumerate(c)) for c in zip(*m.data)]
            if trial % 2:
                for _ in range(rng.randrange(1, 4)):
                    cols[rng.randrange(len(cols))] ^= 1 << rng.randrange(rows)
            lib, ref = universal_tree(rows), reference_universal(rows)
            for s in cols:
                lib = reduce_columns(lib, [s])
                if s.bit_count() > 1 and s != ref.mask:  # reduce_columns skips the others
                    ref = reference_reduce(ref, s)
                assert (lib is None) == (ref is None)
                if lib is None:
                    failed += 1
                    break
                validate_pq_tree(lib)
                assert repr(lib._root) == repr(ref)
                if lib._root.kind == Q:
                    widest = max(widest, len(lib._root.children))
        assert widest > 50
        assert 0 < failed < 24


class TestBruteForceAfterEveryColumn:
    def test_frontiers_are_the_valid_orders_so_far(self):
        # planted and random matrices of at most 7 rows: after each column,
        # the frontier sets of the library's tree and of the child-scanning
        # reference are both exactly the orders keeping every column read so
        # far consecutive, or the library fails and no such order exists;
        # the library reduces the tree it is given, under one root object
        rng = random.Random(31)
        seen = {"root-already-q": 0, "root-turned-q": 0, "failed": 0}
        for trial in range(160):
            rows, cols = rng.randrange(3, 8), rng.randrange(1, 9)
            if trial % 2:
                m = BinaryMatrix([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])
            else:
                m = planted_c1p_matrix(rng, rows, cols)
            lib, ref = universal_tree(rows), reference_universal(rows)
            root = lib._root
            good = set(permutations(range(rows)))
            for column in zip(*m.data):
                s = sum(b << r for r, b in enumerate(column))
                good &= valid_c1p_perms(matrix_from_columns(rows, [{r for r in range(rows) if s >> r & 1}]))
                kind = root.kind
                result = reduce_columns(lib, [s])
                if result is None:
                    assert not good
                    seen["failed"] += 1
                    break
                assert result is lib and lib._root is root
                validate_pq_tree(lib)
                assert enumerate_frontiers(lib) == good
                seen["root-already-q"] += kind == Q
                seen["root-turned-q"] += kind != Q == root.kind
                if s.bit_count() > 1 and s != ref.mask:  # reduce_columns skips the others
                    ref = reference_reduce(ref, s)
                assert enumerate_frontiers(PQTree(ref, rows)) == good
        assert min(seen.values()) > 10


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
