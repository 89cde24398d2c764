"""Eta run table, the DP over run ends, and the orientation it returns."""

from __future__ import annotations

import random

import numpy as np
import pytest

from robinson import DissimilaritySpace, check_compatible, count_xi
from robinson.errors import PreconditionError
from robinson.oracle import brute_optimal_orientation
from robinson.paths import eta_table, path_orientation
from support import lexmin_optimal_path_breakpoints, random_space, triple_one_way


def line_metric(n):
    d = np.abs(np.subtract.outer(np.arange(n, dtype=float), np.arange(n, dtype=float)))
    return DissimilaritySpace(d)


def sym(entries, n, default=0.0):
    d = np.full((n, n), default)
    np.fill_diagonal(d, 0.0)
    for (i, j), v in entries.items():
        d[i, j] = v
        d[j, i] = v
    return DissimilaritySpace(d)


# eta(0)=2, eta(1)=3 (0-based): the (0,1,2) triple fails because d(0,2)=0.5
ETA3 = sym({(0, 1): 1, (1, 2): 1, (0, 2): 0.5}, 3)
# 4-point instance where a single break beats any monotone run
BREAK4 = sym(
    {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 1}, 4
)


def naive_eta(space, order):
    """Direct definition: largest j with the run i..j Robinson, full triple scan."""
    n = len(order)
    out = []
    for i in range(n - 1):
        j = i + 1
        while j + 1 < n and triple_one_way(space.d, order[i : j + 2]):
            j += 1
        out.append(j)
    return tuple(out)


class TestEtaTable:
    def test_fully_robinson_single_pair(self):
        n = 6
        et = eta_table(line_metric(n), list(range(n)))
        assert et.compressed == ((0, n - 1),)
        assert et.expanded == tuple([n - 1] * (n - 1))

    def test_three_point_break(self):
        et = eta_table(ETA3, [0, 1, 2])
        assert et.expanded == (1, 2)

    def test_two_points(self):
        et = eta_table(sym({(0, 1): 1}, 2), [0, 1])
        assert et.expanded == (1,)
        assert et.compressed == ((0, 1),)

    def test_asymmetric_rejected(self):
        d = np.array([[0, 1], [2, 0]], dtype=float)
        with pytest.raises(PreconditionError):
            eta_table(DissimilaritySpace(d), [0, 1])

    def test_monotone_and_matches_naive(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randrange(2, 31)
            space = random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
            order = list(range(n))
            rng.shuffle(order)
            et = eta_table(space, order)
            assert et.expanded == naive_eta(space, order)
            for a, b in zip(et.expanded, et.expanded[1:]):
                assert a <= b
            for i, e in enumerate(et.expanded):
                assert e >= i + 1
            assert et.compressed[0][0] == 0
            assert et.compressed[-1][1] == n - 1
            # compressed is the run-length encoding of expanded: nonempty
            # runs that cover it, each value differing from the one before
            ends = [i for i, _ in et.compressed[1:]] + [n - 1]
            for (i, j), end in zip(et.compressed, ends):
                assert end > i and et.expanded[i:end] == (j,) * (end - i)
            for (_, a), (_, b) in zip(et.compressed, et.compressed[1:]):
                assert a != b

    def test_one_point(self):
        et = eta_table(DissimilaritySpace([[0.0]]), [0])
        assert et.compressed == ((0, 0),)
        assert et.expanded == ()


class TestPathOrientation:
    def test_fully_robinson_base_case(self):
        _, ot, xi = path_orientation(line_metric(4), [0, 1, 2, 3])
        assert xi == 6
        assert ot.arcs == ((0, 1), (1, 2), (2, 3))

    def test_break_instance(self):
        _, ot, xi = path_orientation(BREAK4, [0, 1, 2, 3])
        assert xi == 4
        # breaks at 1 and at 2 both score 4; the smallest one is taken
        assert (0, 1) in ot.arcs and (2, 1) in ot.arcs
        assert check_compatible(BREAK4, ot)
        assert count_xi(ot) == 4
        best, _ = brute_optimal_orientation(BREAK4, ot.tree)
        assert best == 4

    def test_two_points(self):
        _, ot, xi = path_orientation(sym({(0, 1): 1}, 2), [0, 1])
        assert xi == 1

    def test_optimal_vs_brute_force(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randrange(2, 11)
            space = random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
            order = list(range(n))
            rng.shuffle(order)
            _, ot, xi = path_orientation(space, order)
            assert check_compatible(space, ot)
            assert count_xi(ot) == xi
            best, _ = brute_optimal_orientation(space, ot.tree)
            assert xi == best

    def test_tie_rule_matches_enumeration(self):
        # the arcs are the alternating orientation of the lexicographically
        # smallest optimal breakpoint set, first run left to right
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(2, 13)
            space = random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
            order = list(range(n))
            rng.shuffle(order)
            best, breaks = lexmin_optimal_path_breakpoints(space.d, order)
            bounds = (0,) + breaks + (n - 1,)
            want = []
            for run, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                for a in range(lo, hi):
                    u, v = order[a], order[a + 1]
                    want.append((u, v) if run % 2 == 0 else (v, u))
            _, ot, xi = path_orientation(space, order)
            assert xi == best
            assert set(ot.arcs) == set(want)

    def test_run_validity(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randrange(3, 12)
            space = random_space(rng, n, values=[1.0, 2.0], symmetric=True)
            order = list(range(n))
            rng.shuffle(order)
            _, ot, _ = path_orientation(space, order)
            eta = eta_table(space, order).expanded
            pos = {v: i for i, v in enumerate(order)}
            arcset = set(ot.arcs)
            # maximal runs along the path: direction switches at breakpoints
            a = 0
            while a < n - 1:
                b = a
                forward = (order[a], order[a + 1]) in arcset
                while b < n - 1 and ((order[b], order[b + 1]) in arcset) == forward:
                    b += 1
                assert b <= eta[a]
                a = b


class TestReconstruction:
    def test_no_break_monotone_left_to_right(self):
        _, ot, _ = path_orientation(line_metric(5), [0, 1, 2, 3, 4])
        assert ot.arcs == tuple((i, i + 1) for i in range(4))

    def test_one_break_alternates(self):
        _, ot, _ = path_orientation(BREAK4, [0, 1, 2, 3])
        # runs [0,1] then [1,3]: first left-to-right, second right-to-left
        assert ot.arcs == ((0, 1), (2, 1), (3, 2))

    def test_every_breakpoint_is_source_or_sink(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randrange(3, 12)
            space = random_space(rng, n, values=[1.0, 2.0], symmetric=True)
            order = list(range(n))
            rng.shuffle(order)
            _, ot, _ = path_orientation(space, order)
            outs = {u for u, _ in ot.arcs}
            ins = {v for _, v in ot.arcs}
            for v in range(n):
                deg = sum(1 for e in ot.tree.edges if v in e)
                if deg == 2 and not (v in outs and v in ins):
                    assert (v in outs) != (v in ins) or deg < 2
