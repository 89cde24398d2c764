"""Tests of the benchmark itself: generators against the brute-force oracles,
failure counting, and repeatable counters.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from itertools import product

import numpy as np
import pytest

from robinson import DissimilaritySpace, OrientedTree, Tree, check_compatible
from robinson.oracle import brute_optimal_orientation, brute_two_way

import generators as gen
import tracer
import workloads
from run import WORKLOAD_NAMES, Runner


@pytest.mark.parametrize("seed", range(6))
def test_planted_answers_match_brute_two_way(seed):
    rng = np.random.default_rng(seed)
    gadget = gen.obstruction(rng)
    assert brute_two_way(DissimilaritySpace(gadget)) is None
    for n in range(4, 8):
        d, _ = gen.planted_two_way(rng, n)
        assert brute_two_way(DissimilaritySpace(d)) is not None
        assert gen.is_two_way_literal(d)
        assert brute_two_way(DissimilaritySpace(gen.planted_no(rng, n, gadget))) is None


@pytest.mark.parametrize("seed", range(8))
def test_path_optimum_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    for n in range(2, 8):
        d, order = gen.zigzag_path(rng, n, turn=0.4)
        tree = Tree(n, list(zip(order, order[1:])))
        assert gen.path_optimum(d, order) == brute_optimal_orientation(DissimilaritySpace(d), tree)[0]
        upper = np.triu(rng.integers(1, 5, size=(n, n)), 1)
        d = upper + upper.T
        assert gen.path_optimum(d, order) == brute_optimal_orientation(DissimilaritySpace(d), tree)[0]


@pytest.mark.parametrize("seed", range(8))
def test_uniform_tree_optimum_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 8):
        edges = gen.pruefer_edges(rng, n) if n > 2 else [(0, 1)][: n - 1]
        constant = np.ones((n, n)) - np.eye(n)  # every path is Robinson
        expected = brute_optimal_orientation(DissimilaritySpace(constant), Tree(n, edges))[0]
        assert gen.uniform_tree_optimum(n, edges) == expected
    spider = gen.spider_edges(3, 2)
    constant = np.ones((7, 7)) - np.eye(7)
    assert gen.uniform_tree_optimum(7, spider) == brute_optimal_orientation(
        DissimilaritySpace(constant), Tree(7, spider))[0]


def _star(n, c):
    return Tree(n, [(c, v) for v in range(n) if v != c])


@pytest.mark.parametrize("rays, length", [(2, 3), (4, 1), (2, 2)])
def test_spoke_star_optimum_is_the_balanced_bound(rays, length):
    d = gen.spoke_matrix(np.random.default_rng(rays + length), rays, length)
    space = DissimilaritySpace(d)
    n = space.n
    best = max(brute_optimal_orientation(space, _star(n, c))[0] for c in range(n))
    half = (n - 1) // 2
    assert best == (n - 1) + half * (n - 1 - half)


@pytest.mark.parametrize("seed", range(3))
def test_one_petal_space_allows_no_split(seed):
    d = gen.one_petal_matrix(np.random.default_rng(seed), 6)
    space = DissimilaritySpace(d)
    for c in range(6):
        star = _star(6, c)
        in_sizes = set()
        for flips in product((0, 1), repeat=5):
            arcs = [(v, c) if f else (c, v) for (_, v), f in zip(star.edges, flips)]
            if check_compatible(space, OrientedTree(star, arcs)):
                in_sizes.add(sum(flips))
        assert in_sizes == {0, 5}


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "LARGE_SHAPES", [(12, True), (12, False)])
    monkeypatch.setattr(workloads, "SMALL_COUNT", 40)
    monkeypatch.setattr(workloads, "TREE_N", 300)
    monkeypatch.setattr(workloads, "SPIDER_LEGS", 20)
    monkeypatch.setattr(workloads, "PATH_N", 30)
    monkeypatch.setattr(workloads, "SPOKE_RAYS", 6)
    monkeypatch.setattr(workloads, "SPOKE_LEN", 3)
    monkeypatch.setattr(workloads, "PETAL_N", 20)
    monkeypatch.setattr(workloads, "CHECK_N", 40)


def _corrupt(result):
    if result is None:
        return ((0, 1), None)
    if isinstance(result[0], int):  # CLI: (exit code, stdout)
        return (result[0] + 1, result[1])
    if isinstance(result[1], int):  # tree: (orientation, xi)
        return (result[0], result[1] + 1)
    return None  # recognition: a YES answer turned into NO


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_answer_is_checked(name, small_sizes, tmp_path):
    wl = workloads.WORKLOADS[name]
    instances = wl.setup(3, tmp_path)
    runner = Runner(wl, instances)
    runner.one_pass(False)
    runner.one_pass(False)
    assert (runner.attempted, runner.failed) == (2 * len(instances), 0)

    broken = dataclasses.replace(wl, call=lambda inst: _corrupt(wl.call(inst)))
    runner = Runner(broken, instances)
    runner.one_pass(False)
    assert runner.failed == runner.attempted == len(instances)


def _traced_counters(wl, seed, path):
    path.mkdir()
    rec = tracer.Recorder(workloads.API)
    runner = Runner(wl, wl.setup(seed, path), rec)
    rec.install()
    try:
        runner.one_pass(True)
    finally:
        rec.remove()
    assert runner.failed == 0
    layers = Counter()
    for row in rec.instance_layers(0).values():
        layers.update(row)
    assert set(tracer.with_share(layers)) == set(tracer.LAYER_TIMES) | {"c1p.reduce_share"}
    return dict(rec.counts) | wl.input_counters(runner.instances)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_exactly(name, small_sizes, tmp_path):
    wl = workloads.WORKLOADS[name]
    first = _traced_counters(wl, 5, tmp_path / "a")
    second = _traced_counters(wl, 5, tmp_path / "b")
    assert first == second
    assert first and all(v > 0 for v in first.values())
    assert workloads.API.recognize_two_way is workloads.recognize_two_way  # wrappers removed


def test_spider_partition_cells(small_sizes, tmp_path):
    counts = _traced_counters(workloads.WORKLOADS["orient-tree"], 0, tmp_path / "t")
    n_spider = 1 + workloads.SPIDER_LEGS * workloads.SPIDER_LEG
    assert counts["uniform_orient.partition_cells"] >= (n_spider // 2 + 1) * (workloads.SPIDER_LEGS + 1)


def test_command_line_names_every_workload():
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
