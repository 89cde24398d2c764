"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with `pytest tests/test_acceptance.py -v -s`).

Criteria, in order:
 1. recognition agrees with brute force on exhaustive 3/4-point grids
    plus seeded random 5..7-point spaces
 2. every segment of a recognized space is an interval of the order
 3. the C1P engine agrees with brute force and its frontiers validate
 4. tree orientation is optimal on all shapes up to n=8 plus random 9,10
 5. n=20,000 orientation completes in under 5 seconds
 6. star orientation optimal, petals stable, assignment matches search
 7. path DP optimal, its orientation consistent, eta exact
 8. satisfiable 3-CNF witnesses are compatible and hit kappa exactly
 9. Hamiltonian-path existence matches Robinson-subset presence
10. CLI round trips and text/JSON parity
"""

from __future__ import annotations

import itertools
import json
import random
import time

import numpy as np

from robinson import (
    DissimilaritySpace,
    OrientedTree,
    Tree,
    check_compatible,
    count_xi,
    is_two_way_order,
    orient_all_robinson,
    recognize_two_way,
    segment,
)
from robinson.c1p import BinaryMatrix, frontier, test_c1p
from robinson.cli import main as cli_main
from robinson.fileio import write_matrix, write_oriented_tree, write_tree
from robinson.oracle import (
    brute_c1p,
    brute_optimal_orientation,
    brute_robinson_subset,
    brute_two_way,
)
from robinson.paths import eta_table, path_orientation
from robinson.reductions import Cnf3, SimpleGraph, build_orientation_instance, build_subset_instance, witness_orientation
from robinson.stars import _petal_closure, assign_star, orient_star
from support import (
     path_tree,
    planted_c1p_matrix,
    planted_two_way_space,
    random_space,
    random_tree,
    valid_c1p_perms,
)


def _report(num: int, name: str, detail: str, start: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {num:2d}] PASS  {name}: {detail} ({elapsed:.1f}s)", flush=True)


def constant_space(n: int) -> DissimilaritySpace:
    d = np.full((n, n), 1.0)
    np.fill_diagonal(d, 0.0)
    return DissimilaritySpace(d)


# -- criterion 1 --------------------------------------------------------------

OFFDIAG4 = [(i, j) for i in range(4) for j in range(4) if i != j]


def _grid_matrices(n: int, values=(1.0, 2.0, 3.0)) -> np.ndarray:
    """All value assignments to the off-diagonal cells, as one (S, n, n) array."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    size = len(values) ** len(cells)
    ids = np.arange(size)
    out = np.zeros((size, n, n))
    base = 1
    for i, j in cells:
        out[:, i, j] = np.asarray(values)[(ids // base) % len(values)]
        base *= len(values)
    return out


def _vectorized_two_way_present(mats: np.ndarray) -> np.ndarray:
    """Brute permutation scan over every space at once (triple definition)."""
    n = mats.shape[1]
    present = np.zeros(len(mats), dtype=bool)
    triples = list(itertools.combinations(range(n), 3))
    for perm in itertools.permutations(range(n)):
        m = mats[:, perm][:, :, perm]
        ok = np.ones(len(mats), dtype=bool)
        for i, j, k in triples:
            ok &= (m[:, i, k] >= m[:, i, j]) & (m[:, i, k] >= m[:, j, k])
            ok &= (m[:, k, i] >= m[:, k, j]) & (m[:, k, i] >= m[:, j, i])
        present |= ok
    return present


def test_criterion_01_recognition_matches_brute_force():
    start = time.perf_counter()
    # 3-point grid straight against the library oracle
    grid3 = _grid_matrices(3)
    for mat in grid3:
        space = DissimilaritySpace(mat, validate=False)
        got = recognize_two_way(space)
        want = brute_two_way(space)
        assert (got is None) == (want is None)
        if got is not None:
            assert is_two_way_order(space, got[0])
    # 4-point grid: the permutation scan is vectorized across the grid;
    # brute_two_way itself is spot-validated against it on a seeded sample
    grid4 = _grid_matrices(4)
    present = _vectorized_two_way_present(grid4)
    rng = random.Random(20240801)
    for idx in rng.sample(range(len(grid4)), 2000):
        space = DissimilaritySpace(grid4[idx], validate=False)
        assert (brute_two_way(space) is not None) == bool(present[idx])
    for idx in range(len(grid4)):
        space = DissimilaritySpace(grid4[idx], validate=False)
        got = recognize_two_way(space)
        assert (got is not None) == bool(present[idx]), f"grid point {idx}"
        if got is not None:
            assert is_two_way_order(space, got[0])
    # seeded random spaces, n in {5, 6, 7}
    rng = random.Random(116)
    for trial in range(500):
        n = rng.choice([5, 6, 7])
        if trial % 2 == 0:
            space, _ = planted_two_way_space(rng, n)
        else:
            space = random_space(rng, n, values=[1.0, 2.0, 3.0])
        got = recognize_two_way(space)
        want = brute_two_way(space)
        assert (got is None) == (want is None)
        if got is not None:
            assert is_two_way_order(space, got[0])
    _report(1, "recognition vs brute force",
            f"{len(grid3)} + {len(grid4)} grid points, 500 random spaces", start)


# -- criterion 2 --------------------------------------------------------------

def test_criterion_02_segments_are_intervals():
    start = time.perf_counter()
    rng = random.Random(2202)
    recognized = 0
    while recognized < 200:
        n = rng.randrange(3, 11)
        space, _ = planted_two_way_space(rng, n)
        res = recognize_two_way(space)
        assert res is not None
        order, _ = res
        pos = {v: i for i, v in enumerate(order)}
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                ps = sorted(pos[t] for t in segment(space, x, y))
                assert ps[-1] - ps[0] + 1 == len(ps), (x, y, order)
        recognized += 1
    _report(2, "interval property", "200 recognized spaces, every segment contiguous", start)


# -- criterion 3 --------------------------------------------------------------

def test_criterion_03_c1p_engine():
    start = time.perf_counter()
    rng = random.Random(3303)
    validated = 0
    for trial in range(1000):
        rows = rng.randrange(2, 8)
        cols = rng.randrange(1, 13)
        if trial % 2 == 0:
            m = planted_c1p_matrix(rng, rows, cols)
            data = [list(r) for r in m.data]
            data[rng.randrange(rows)][rng.randrange(cols)] ^= 1
            m = BinaryMatrix(data)
        else:
            m = planted_c1p_matrix(rng, rows, cols)
        got = test_c1p(m)
        want = brute_c1p(m)
        assert (got is None) == (want is None), m.data
        if got is not None:
            order = frontier(got)
            assert order in valid_c1p_perms(m), m.data
            validated += 1
    _report(3, "C1P engine vs brute force", f"1000 matrices, {validated} frontiers validated", start)


# -- criterion 4 --------------------------------------------------------------

def _free_trees_up_to(n_max: int):
    import networkx as nx

    yield Tree(1, [])
    yield Tree(2, [(0, 1)])
    for n in range(3, n_max + 1):
        for g in nx.nonisomorphic_trees(n):
            yield Tree(n, list(g.edges()))


def test_criterion_04_tree_orientation_optimal():
    start = time.perf_counter()
    shapes = 0
    for t in _free_trees_up_to(8):
        space = constant_space(t.n)
        _, xi = orient_all_robinson(space, t)
        best, _ = brute_optimal_orientation(space, t)
        assert xi == best, t.edges
        shapes += 1
    rng = random.Random(4404)
    for _ in range(100):
        t = random_tree(rng, rng.choice([9, 10]))
        space = constant_space(t.n)
        _, xi = orient_all_robinson(space, t)
        best, _ = brute_optimal_orientation(space, t)
        assert xi == best, t.edges
    _report(4, "tree orientation optimality", f"{shapes} shapes + 100 random trees", start)


# -- criterion 5 --------------------------------------------------------------

def test_criterion_05_large_tree_smoke():
    rng = random.Random(5505)
    t = random_tree(rng, 20000)
    start = time.perf_counter()
    ot, xi = orient_all_robinson(None, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert xi == count_xi(ot)
    _report(5, "n=20000 smoke test", f"xi={xi} in {elapsed:.2f}s", time.perf_counter() - elapsed)


# -- criterion 6 --------------------------------------------------------------

def test_criterion_06_stars():
    start = time.perf_counter()
    rng = random.Random(6606)
    assign_checked = 0
    for trial in range(300):
        n = rng.randrange(3, 13)
        space = random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
        t = Tree.star(n, 0)
        ot, xi = orient_star(space, 0)
        assert check_compatible(space, ot)
        assert count_xi(ot) == xi
        best, _ = brute_optimal_orientation(space, t)
        assert xi == best
        # petal stability under shuffled traversal
        candidates = list(range(1, n))
        reference = {frozenset(g) for g in _petal_closure(space.d, 0, candidates)}
        for _ in range(10):
            rng.shuffle(candidates)
            assert {frozenset(g) for g in _petal_closure(space.d, 0, candidates)} == reference
        # assignment vs exhaustive center+subset search
        if n <= 9:
            a = rng.randrange(n)
            got = assign_star(space, a, n - 1 - a)
            want = False
            for center in range(n):
                others = [v for v in range(n) if v != center]
                st = Tree.star(n, center)
                for inward in itertools.combinations(others, a):
                    arcs = [(v, center) if v in inward else (center, v) for v in others]
                    if check_compatible(space, OrientedTree(st, arcs)):
                        want = True
                        break
                if want:
                    break
            assert (got is not None) == want
            assign_checked += 1
    _report(6, "stars", f"300 instances, {assign_checked} assignment checks", start)


# -- criterion 7 --------------------------------------------------------------

def test_criterion_07_paths():
    start = time.perf_counter()
    rng = random.Random(7707)
    for _ in range(300):
        n = rng.randrange(2, 13)
        space = random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
        order = list(range(n))
        rng.shuffle(order)
        _, ot, xi = path_orientation(space, order)
        assert check_compatible(space, ot)
        assert count_xi(ot) == xi
        best, _ = brute_optimal_orientation(space, path_tree(order))
        assert xi == best
    # expanded eta vs naive direct computation, n up to 30
    from support import triple_one_way

    for _ in range(60):
        n = rng.randrange(2, 31)
        space = random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
        order = list(range(n))
        rng.shuffle(order)
        expanded = eta_table(space, order).expanded
        for i in range(n - 1):
            j = i + 1
            while j + 1 < n and triple_one_way(space.d, order[i : j + 2]):
                j += 1
            assert expanded[i] == j
    _report(7, "paths", "300 DP instances + 60 eta tables", start)


# -- criterion 8 --------------------------------------------------------------

def test_criterion_08_sat_witnesses():
    start = time.perf_counter()
    rng = random.Random(8808)
    formulas = 0
    while formulas < 20:
        n = rng.randrange(3, 5)
        m = rng.randrange(1, 4)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        cnf = Cnf3(n, clauses)
        sats = [
            bits
            for bits in itertools.product([False, True], repeat=n)
            if cnf.evaluate(bits)
        ]
        if not sats:
            continue
        inst = build_orientation_instance(cnf)
        for bits in sats[:2]:
            ot = witness_orientation(inst, bits)
            assert ot is not None
            assert check_compatible(inst.space, ot)
            counted = count_xi(ot)
            assert counted == inst.kappa, (
                f"brute path count {counted} (ground truth) != kappa formula {inst.kappa}"
            )
        formulas += 1
    _report(8, "3-CNF witness orientations", "20 satisfiable formulas, xi = kappa exactly", start)


# -- criterion 9 --------------------------------------------------------------

def _connected_graphs_up_to_iso(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        comp = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        if len(comp) != n:
            continue
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in itertools.permutations(range(n))
        )
        if canon in seen:
            continue
        seen.add(canon)
        yield edges


def _has_hamiltonian_path(n: int, edges) -> bool:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return any(
        all(p[i + 1] in adj[p[i]] for i in range(n - 1))
        for p in itertools.permutations(range(n))
    )


def test_criterion_09_subset_equivalence():
    start = time.perf_counter()
    graphs = 0
    for n in range(2, 6):
        for edges in _connected_graphs_up_to_iso(n):
            g = SimpleGraph(n, edges)
            inst = build_subset_instance(g)
            subset = brute_robinson_subset(inst.space, inst.kappa, max_subsets=10**8)
            assert (subset is not None) == _has_hamiltonian_path(n, edges), edges
            graphs += 1
    _report(9, "Robinson-subset equivalence", f"{graphs} connected graphs up to iso", start)


# -- criterion 10 -------------------------------------------------------------

def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_10_cli_round_trip(tmp_path, capsys):
    start = time.perf_counter()
    rng = random.Random(101010)
    for trial in range(100):
        kind = trial % 3
        mpath = tmp_path / f"m{trial}.matrix"
        opath = tmp_path / f"o{trial}.orient"
        if kind == 0:
            t = random_tree(rng, rng.randrange(2, 10))
            write_matrix(constant_space(t.n), mpath)
            tpath = tmp_path / f"t{trial}.tree"
            write_tree(t, tpath)
            argv = ["orient", "tree", str(mpath), str(tpath)]
        elif kind == 1:
            n = rng.randrange(3, 10)
            write_matrix(random_space(rng, n, values=[1.0, 2.0], symmetric=True), mpath)
            argv = ["orient", "star", str(mpath), "--center", "0"]
        else:
            n = rng.randrange(2, 10)
            write_matrix(random_space(rng, n, values=[1.0, 2.0], symmetric=True), mpath)
            order = list(range(n))
            rng.shuffle(order)
            argv = ["orient", "path", str(mpath), "--order", ",".join(map(str, order))]
        code, text_out = _run_cli(capsys, *argv)
        assert code == 0
        code, json_out = _run_cli(capsys, "--json", *argv)
        assert code == 0
        payload = json.loads(json_out)
        # text/JSON parity
        text_fields = dict(
            ln.partition(": ")[::2] for ln in text_out.strip().splitlines()
        )
        assert text_fields["answer"] == payload["answer"] == "YES"
        assert int(text_fields["xi"]) == payload["xi"]
        assert text_fields["orientation"].split() == [
            f"{u}>{v}" for u, v in payload["orientation"]
        ]
        # round trip through `check`
        arcs = [tuple(a) for a in payload["orientation"]]
        n_vertices = len(arcs) + 1
        ot = OrientedTree(Tree(n_vertices, arcs), arcs)
        write_oriented_tree(ot, opath)
        code, check_out = _run_cli(capsys, "check", str(mpath), str(opath))
        assert code == 0
        check_fields = dict(
            ln.partition(": ")[::2] for ln in check_out.strip().splitlines()
        )
        assert check_fields["answer"] == "YES"
        assert int(check_fields["xi"]) == payload["xi"]
    _report(10, "CLI round trip", "100 orient outputs re-checked, text/JSON parity", start)
