"""Segment construction and two-way-Robinson recognition."""

from __future__ import annotations

import random
from itertools import permutations

import numpy as np
import pytest

from robinson import (
    DissimilaritySpace,
    InputError,
    is_two_way_order,
    recognize_two_way,
    segment,
)
from robinson.oracle import brute_two_way
import robinson.recognition
from robinson.c1p import frontier, reduce_columns, universal_tree
from robinson.core import _breaks, _first_breaks, _tree_breaks
from robinson.recognition import _column_bitsets, _segment_columns
from support import (
    full_segment_reduction,
    membership_tensor,
    path_tree,
    planted_two_way_space,
    random_space,
    triple_one_way,
)

CHAIN3 = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
ASYM3 = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [0.5, 1, 0]])


def constant_space(n):
    d = np.full((n, n), 1.0)
    np.fill_diagonal(d, 0.0)
    return DissimilaritySpace(d)


class TestSegment:
    def test_two_points(self):
        s = segment(constant_space(2), 0, 1)
        assert s == {0, 1}

    def test_chain_outer_pair_holds_all(self):
        assert segment(CHAIN3, 0, 2) == {0, 1, 2}

    def test_chain_inner_pair_only_anchors(self):
        assert segment(CHAIN3, 0, 1) == {0, 1}

    def test_anchors_always_members(self):
        rng = random.Random(23)
        for _ in range(30):
            space = random_space(rng, 5)
            x, y = rng.sample(range(5), 2)
            s = segment(space, x, y)
            assert x in s and y in s

    def test_same_anchor_rejected(self):
        with pytest.raises(InputError):
            segment(CHAIN3, 1, 1)

    @pytest.mark.parametrize("x, y", [(-1, 0), (0, 3)])
    def test_anchor_out_of_range_rejected(self, x, y):
        with pytest.raises(InputError, match=rf"segment anchors \({x}, {y}\) out of range"):
            segment(CHAIN3, x, y)


def assert_tensor_matches_segment(space):
    """Every (x, y) slice of the membership tensor holds exactly S(x, y)."""
    m = membership_tensor(space)
    for x, y in permutations(range(space.n), 2):
        assert set(np.flatnonzero(m[x, y])) == segment(space, x, y)
    return m


class TestSegmentMatrix:
    """The reference membership tensor m[x, y, t] = (t in S(x, y))."""

    def test_two_points_all_ones(self):
        m = assert_tensor_matches_segment(constant_space(2))
        assert m[0, 1].all() and m[1, 0].all()

    def test_constant_three_points_all_ones(self):
        m = assert_tensor_matches_segment(constant_space(3))
        assert m[~np.eye(3, dtype=bool)].all()

    def test_chain_columns(self):
        m = assert_tensor_matches_segment(CHAIN3)
        assert m[0, 2].all()
        assert m[0, 1].sum() == 2
        assert m[1, 2].sum() == 2

    def test_ordered_pair_columns_identical(self):
        rng = random.Random(29)
        for _ in range(20):
            m = membership_tensor(random_space(rng, 5))
            assert np.array_equal(m, m.transpose(1, 0, 2))

    def test_matches_scalar_segment(self):
        rng = random.Random(31)
        assert_tensor_matches_segment(random_space(rng, 6, values=[1.0, 2.0, 3.0]))


def kernel_spaces():
    """Seeded spaces with n 1-12: ties, asymmetric, constant and CHAIN3."""
    rng = random.Random(59)
    yield CHAIN3
    yield ASYM3
    for n in range(1, 13):
        yield constant_space(n)
        yield random_space(rng, n)
        yield random_space(rng, n, values=[1.0, 2.0])
        yield random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
        yield planted_two_way_space(rng, n)[0]


class TestSegmentColumns:
    """The kernel that builds recognition's x < y segment columns."""

    def test_matches_scalar_segment(self):
        for space in kernel_spaces():
            n = space.n
            x, y = np.nonzero(np.arange(n)[:, None] < np.arange(n))
            cols = _segment_columns(space.d, np.ascontiguousarray(space.d.T), x, y)
            assert cols.shape == (len(x), n)
            for row, a, b in zip(cols, x, y):
                assert set(np.flatnonzero(row)) == segment(space, int(a), int(b))

    def test_planted_no_builds_one_round_of_columns(self, monkeypatch, reductions):
        # the obstruction sits on points 0, 1 and 2, one of which is the
        # anchor, so the n-1 columns of the anchor round already have no
        # consecutive-ones order; columns are built in blocks as the reducer
        # reads them, and none past the block of the failing column is built
        built = []

        def counted(d, dt, x, y):
            built.append(len(x))
            return _segment_columns(d, dt, x, y)

        monkeypatch.setattr(robinson.recognition, "_segment_columns", counted)
        n = 300
        d = np.array(planted_two_way_space(random.Random(67), n)[0].d)
        d[:3, :3] = ASYM3.d
        assert recognize_two_way(DissimilaritySpace(d)) is None
        assert len(reductions) == 1
        assert sum(built[:-1]) < len(reductions[0]) <= sum(built) <= 4 * n


class TestBreaks:
    """core._breaks, the candidate check of recognition, on seeded orders."""

    @staticmethod
    def permuted(rng):
        for space in kernel_spaces():
            order = rng.sample(range(space.n), space.n)
            yield space, order, space.d[np.ix_(order, order)]

    def test_no_break_iff_one_way(self):
        rng = random.Random(71)
        yes = 0
        for space, order, D in self.permuted(rng):
            one_way = triple_one_way(space.d, order)
            assert (not _breaks(D).any()) == one_way
            assert (not _breaks(D.T).any()) == triple_one_way(space.d, order[::-1])
            yes += one_way
        assert 10 < yes < 60

    def test_tree_breaks_on_a_path_tree(self):
        # _tree_breaks on the path s, read in the order s, is _breaks of
        # both directions: (i, k), i < k, on s and (k, i) on s reversed
        rng = random.Random(79)
        cases = [case for _ in range(3) for case in self.permuted(rng)]
        for space, order, D in cases:
            bad = _tree_breaks(space.d, path_tree(order))[np.ix_(order, order)]
            assert np.array_equal(np.triu(bad), _breaks(D))
            assert np.array_equal(np.tril(bad), _breaks(D.T).T)
        assert len(cases) == 186

    def test_first_breaks_is_each_rows_least_true_column(self):
        rng = np.random.default_rng(89)
        for n in (1, 2, 5, 17):
            for p in (0.0, 0.05, 0.5):
                B = rng.random((n, n)) < p
                want = [next((j for j in range(n) if B[i][j]), n) for i in range(n)]
                assert _first_breaks(B).tolist() == want

    def test_breaking_pair_names_violated_segment(self):
        rng = random.Random(73)
        pairs = 0
        for space, order, D in self.permuted(rng):
            for i, k in zip(*np.nonzero(_breaks(D) | _breaks(D.T))):
                pos = {order.index(t) for t in segment(space, order[i], order[k])}
                assert {i, k} <= pos and not {i + 1, k - 1} <= pos
                assert max(pos) - min(pos) + 1 > len(pos)
                pairs += 1
        assert pairs > 400


def rounded_planted(rng, n):
    space, _ = planted_two_way_space(rng, n)
    return DissimilaritySpace(np.round(space.d))


def planted_with_obstruction(rng, n):
    # two-way-Robinson is hereditary, so a non-two-way triple makes it NO
    d = np.array(planted_two_way_space(rng, n)[0].d)
    idx = rng.sample(range(n), 3)
    d[np.ix_(idx, idx)] = ASYM3.d
    return DissimilaritySpace(d)


def few_valued(rng, n):
    return random_space(rng, n, values=[1.0, 2.0, 3.0][: rng.choice((2, 3))])


def ultrametric_like(rng, n):
    """Forward and backward ultrametrics on one random dendrogram, each with
    its own small integer heights per level, labels shuffled: YES."""
    labels = list(range(n))
    rng.shuffle(labels)
    fwd = [0] + sorted(rng.randrange(1, 6) for _ in range(n))
    bwd = [0] + sorted(rng.randrange(1, 6) for _ in range(n))
    d = np.zeros((n, n))
    stack = [(labels, n)]
    while stack:
        block, level = stack.pop()
        if len(block) < 2:
            continue
        cut = rng.randrange(1, len(block))
        left, right = block[:cut], block[cut:]
        for x in left:
            for y in right:
                d[x, y], d[y, x] = fwd[level], bwd[level]
        stack += [(left, level - 1), (right, level - 1)]
    return DissimilaritySpace(d)


class TestRecognize:
    def test_tiny_spaces_present(self):
        assert recognize_two_way(DissimilaritySpace([[0.0]])) is not None
        res = recognize_two_way(constant_space(2))
        assert res is not None
        assert set(res[0]) == {0, 1}

    def test_chain_recognized(self):
        res = recognize_two_way(CHAIN3)
        assert res is not None
        order, _ = res
        assert order in ((0, 1, 2), (2, 1, 0))

    def test_asymmetric_counterexample_absent(self):
        assert recognize_two_way(ASYM3) is None
        assert brute_two_way(ASYM3) is None

    def test_returned_order_is_two_way(self):
        rng = random.Random(37)
        for _ in range(50):
            space, _ = planted_two_way_space(rng, rng.randrange(3, 8))
            res = recognize_two_way(space)
            assert res is not None
            assert is_two_way_order(space, res[0])

    def test_agrees_with_brute_force(self):
        rng = random.Random(41)
        hits = 0
        for trial in range(150):
            n = rng.randrange(3, 7)
            if trial % 3 == 0:
                space, _ = planted_two_way_space(rng, n)
            else:
                space = random_space(rng, n, values=[1.0, 2.0])
            got = recognize_two_way(space)
            want = brute_two_way(space)
            assert (got is None) == (want is None)
            if got is not None:
                assert is_two_way_order(space, got[0])
                hits += 1
        assert hits > 40

    def test_interval_property_of_returned_orders(self):
        rng = random.Random(43)
        for _ in range(30):
            space, _ = planted_two_way_space(rng, rng.randrange(3, 9))
            res = recognize_two_way(space)
            assert res is not None
            order, _ = res
            pos = {v: i for i, v in enumerate(order)}
            for x in range(space.n):
                for y in range(space.n):
                    if x == y:
                        continue
                    ps = sorted(pos[t] for t in segment(space, x, y))
                    assert ps[-1] - ps[0] + 1 == len(ps)

    @pytest.mark.parametrize("n", [40, 80, 120])
    def test_beyond_brute_force_scale(self, n):
        rng = random.Random(n)
        space, _ = planted_two_way_space(rng, n)
        res = recognize_two_way(space)
        assert res is not None
        assert is_two_way_order(space, res[0])
        assert recognize_two_way(planted_with_obstruction(rng, n)) is None


REFINE_FAMILIES = (
    lambda rng, n: planted_two_way_space(rng, n)[0],
    rounded_planted,
    planted_with_obstruction,
    few_valued,
    lambda rng, n: constant_space(n),
    ultrametric_like,
)


def refine_spaces():
    """540 seeded spaces with n 10-40, cycling through REFINE_FAMILIES."""
    rng = random.Random(47)
    for trial in range(540):
        n = rng.randrange(10, 41)
        yield trial, REFINE_FAMILIES[trial % len(REFINE_FAMILIES)](rng, n)


@pytest.fixture
def reductions(monkeypatch):
    """One list per C1P reduction that recognition runs, of the columns read."""
    calls = []

    def counted(tree, columns):
        read = []
        calls.append(read)
        return reduce_columns(tree, (read.append(s) or s for s in columns))

    monkeypatch.setattr(robinson.recognition, "reduce_columns", counted)
    return calls


class TestVerifyAndRefine:
    """Spaces with n >= 10, the sizes at which the recognizer reduces only a
    part of the segment columns and checks the candidate order."""

    def test_agrees_with_full_segment_reduction(self, reductions):
        rounds = []
        yes = 0
        for trial, space in refine_spaces():
            del reductions[:]
            got = recognize_two_way(space)
            rounds.append(len(reductions))
            want = full_segment_reduction(space)
            assert (got is None) == (want is None), trial
            if got is not None:
                assert is_two_way_order(space, got[0]), trial
                yes += 1
        assert 200 < yes < 540
        assert sum(r >= 2 for r in rounds) > 50

    def test_builds_each_column_once(self, monkeypatch, reductions):
        # the rounds refine one tree, so no (x, y) pair's column is built
        # twice, and the tree is the one a single reduction of every column
        # read, in read order, gives from the universal tree
        built = []

        def recorded(d, dt, x, y):
            built.extend(zip(x.tolist(), y.tolist()))
            return _column_bitsets(d, dt, x, y)

        monkeypatch.setattr(robinson.recognition, "_column_bitsets", recorded)
        multi = 0
        for trial, space in refine_spaces():
            del built[:], reductions[:]
            got = recognize_two_way(space)
            assert len(set(built)) == len(built), trial
            multi += len(reductions) >= 2
            if got is not None:
                read = [s for call in reductions for s in call]
                want = reduce_columns(universal_tree(space.n), read)
                assert repr(got[1]._root) == repr(want._root), trial
                assert got[0] == frontier(want), trial
        assert multi > 50

    def test_anchor_round_decides_general_position(self, monkeypatch, reductions):
        # distinct line distances make each segment exactly the interval
        # between its ends, and the anchor is the least of 0, 1, 2 that is
        # not an end of the planted order: its n-1 segments pin the order,
        # and the check finds no breaking pair
        built = []

        def recorded(d, dt, x, y):
            built.append(list(zip(x.tolist(), y.tolist())))
            return _column_bitsets(d, dt, x, y)

        monkeypatch.setattr(robinson.recognition, "_column_bitsets", recorded)
        rng = random.Random(83)
        ends = 0
        for n in range(10, 61):
            space, perm = planted_two_way_space(rng, n)
            a = min({0, 1, 2} - {perm[0], perm[-1]})
            ends += a > 0
            del built[:], reductions[:]
            res = recognize_two_way(space)
            assert res is not None and is_two_way_order(space, res[0]), n
            assert built == [[(min(a, t), max(a, t)) for t in range(n) if t != a]], n
            assert list(map(len, reductions)) == [n - 1], n
        assert ends == 4  # spaces whose planted order starts or ends at 0

    def test_small_spaces_take_one_round(self, reductions):
        # for n <= 9 the first round reduces every column, so no candidate
        # is checked and no second round runs
        rng = random.Random(53)
        for n in range(1, 10):
            space, _ = planted_two_way_space(rng, n)
            del reductions[:]
            assert recognize_two_way(space) is not None
            assert list(map(len, reductions)) == [n * (n - 1) // 2]


def first_breaking_pairs(d, order):
    """For each row i of the order s that holds one, the pair (s_i, s_j) with
    the least j >= i+2 that breaks an adjacent inequality in d or in d.T,
    found by nested loops over d as lists: the rule each refine round reads."""
    D = [[d[u][v] for v in order] for u in order]
    n = len(order)
    pairs = []
    for i in range(n):
        for j in range(i + 2, n):
            fwd = D[i][j] < D[i][j - 1] or D[i][j] < D[i + 1][j]
            bwd = D[j][i] < D[j - 1][i] or D[j][i] < D[j][i + 1]
            if fwd or bwd:
                a, b = order[i], order[j]
                pairs.append((min(a, b), max(a, b)))
                break
    return pairs


def comb_ultrametric(rng, n):
    """d(i, j) = n - min(i, j) off the diagonal, labels shuffled: YES, and
    every segment is a suffix {t >= x} of the label order."""
    p = list(range(n))
    rng.shuffle(p)
    return DissimilaritySpace([[0 if u == v else n - min(p[u], p[v]) for v in range(n)] for u in range(n)])


def random_ultrametric(rng, n):
    """A random binary hierarchy whose heights shrink by a factor in
    [0.3, 1] per level, rounded to integers, labels shuffled: YES."""
    labels = list(range(n))
    rng.shuffle(labels)
    d = np.zeros((n, n))
    stack = [(labels, 100.0)]
    while stack:
        block, h = stack.pop()
        if len(block) < 2:
            continue
        cut = rng.randrange(1, len(block))
        left, right = block[:cut], block[cut:]
        d[np.ix_(left, right)] = d[np.ix_(right, left)] = round(h)
        stack += [(left, h * rng.uniform(0.3, 1)), (right, h * rng.uniform(0.3, 1))]
    return DissimilaritySpace(d)


class TestFirstBreakRefinement:
    """Each round after the first reads one column per row of the candidate
    order: the first breaking pair of that row."""

    def test_rounds_read_the_first_breaking_pair_of_each_row(self, monkeypatch):
        fronts, pairs = [], []

        def reduced(tree, columns):
            tree = reduce_columns(tree, columns)
            fronts.append(None if tree is None else frontier(tree))
            return tree

        def recorded(d, dt, x, y):
            pairs.append(list(zip(x.tolist(), y.tolist())))
            return _column_bitsets(d, dt, x, y)

        monkeypatch.setattr(robinson.recognition, "reduce_columns", reduced)
        monkeypatch.setattr(robinson.recognition, "_column_bitsets", recorded)
        refined = 0
        for trial, space in refine_spaces():
            del fronts[:], pairs[:]
            recognize_two_way(space)
            d = space.d.tolist()
            for r in range(1, len(pairs)):
                assert pairs[r] == first_breaking_pairs(d, fronts[r - 1]), trial
                refined += 1
            if fronts[-1] is not None:
                assert first_breaking_pairs(d, fronts[-1]) == [], trial
        assert refined > 100

    def test_tie_heavy_ultrametrics(self):
        # comb and random ultrametrics with shuffled labels, alternately
        # with a non-two-way triple planted on three random points
        rng = random.Random(97)
        yes = 0
        for trial in range(60):
            n = rng.randrange(10, 81)
            space = (comb_ultrametric, random_ultrametric)[trial % 2](rng, n)
            if trial % 3 == 2:
                d = np.array(space.d)
                idx = rng.sample(range(n), 3)
                d[np.ix_(idx, idx)] = ASYM3.d
                space = DissimilaritySpace(d)
            got = recognize_two_way(space)
            assert (got is None) == (full_segment_reduction(space) is None), trial
            if got is not None:
                assert is_two_way_order(space, got[0]), trial
                yes += 1
        assert yes == 40
