"""Core data model: order predicates, reachability, path counting, the
compatibility checker."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from itertools import groupby

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
    find_centroid,
    is_one_way_order,
    is_two_way_order,
)
from robinson.core import RUN_MIN, _first_failing_pair, failing_pair
from support import (
    CYCLE,
    bfs_rooted,
    maximal_directed_paths,
    maximal_path_check,
    path_tree,
    planted_two_way_space,
    random_space,
    random_tree,
    reach_sizes,
    reachability,
    reference_centroid,
    reference_first_failing_pair,
    reference_tree_faults,
    tree_from_pruefer,
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, value):
        with pytest.raises(InputError, match="dissimilarity values must be finite"):
            DissimilaritySpace([[0, value], [1, 0]])

    def test_symmetry_predicate(self):
        assert sym({(0, 1): 1}, 2).is_symmetric
        assert not ASYM3.is_symmetric

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.array([[0.0, 1.0], [2.0, 0.0]]),
            lambda: np.array([[0, 1], [2, 0]]),
            lambda: [[0, 1], [2, 0]],
        ],
        ids=["float-array", "int-array", "list"],
    )
    def test_matrix_is_a_read_only_copy(self, make):
        given = make()
        space = DissimilaritySpace(given)
        assert space.d.dtype == float and not space.d.flags.writeable
        assert not np.shares_memory(space.d, np.asarray(given))
        given[0][1] = 7
        assert space.d.tolist() == [[0.0, 1.0], [2.0, 0.0]]
        sub = space.restrict([1, 0])
        assert not sub.d.flags.writeable and not np.shares_memory(sub.d, space.d)

    def test_space_and_pq_tree_are_frozen(self):
        space = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        _, pq = robinson.recognize_two_way(space)
        for obj, name in [(space, "n"), (space, "d"), (pq, "_root"), (pq, "num_leaves")]:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 7)
        assert space.n == 3 and pq.num_leaves == 3
        assert space.is_symmetric  # a cached property still caches on a frozen space

    def test_restrict_relabels(self):
        sub = ASYM3.restrict([2, 0])
        assert sub.d.tolist() == [[0.0, 0.5], [2.0, 0.0]]

    @pytest.mark.parametrize(
        "vertices",
        [[-1, 0], [5], [], [1, 1]],
        ids=["negative", "out-of-range", "empty", "repeated"],
    )
    def test_restrict_rejects_bad_vertices(self, vertices):
        with pytest.raises(InputError):
            ASYM3.restrict(vertices)

    def test_tree_invariants(self):
        with pytest.raises(InputError):
            Tree(3, [(0, 1)])  # too few edges
        with pytest.raises(InputError):
            Tree(3, [(0, 1), (0, 1)])  # duplicate
        with pytest.raises(InputError):
            Tree(3, [(0, 1), (1, 1)])  # self-loop
        with pytest.raises(InputError):
            Tree(4, [(0, 1), (1, 2), (0, 2)])  # cycle (and disconnected)

    def test_tree_refuses_float_endpoints(self):
        # int() would truncate 2.5 to vertex 2; numpy ints and bools still work
        with pytest.raises(InputError, match=r"^edge \(1, 2\.5\) has an endpoint that is not an integer$"):
            Tree(3, [(0, 1), (1, 2.5)])
        with pytest.raises(InputError, match="not an integer"):
            Tree(2, [(0, np.float64(1.0))])
        assert Tree(3, [(np.int64(0), True), (1, np.int32(2))]).edges == ((0, 1), (1, 2))

    def test_oriented_tree_refuses_float_endpoints(self):
        t = Tree(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError, match=r"^edge \(1, 2\.9\) has an endpoint that is not an integer$"):
            OrientedTree(t, [(0, 1), (1, 2.9)])
        assert OrientedTree(t, [(np.int64(1), False), (True, 2)]).arcs == ((1, 0), (1, 2))

    def test_tree_refuses_float_vertex_count(self):
        # numpy ints and bools still work, and are kept as Python ints
        with pytest.raises(InputError, match=r"^vertex count 3\.0 is not an integer$"):
            Tree(3.0, [(0, 1), (1, 2)])
        assert type(Tree(np.int64(2), [(0, 1)]).n) is int and Tree(True, []).n == 1

    def test_star_refuses_float_size_and_center(self):
        with pytest.raises(InputError, match=r"^vertex count 3\.0 is not an integer$"):
            Tree.star(3.0, 1)
        with pytest.raises(InputError, match=r"^center 1\.0 is not an integer$"):
            Tree.star(3, 1.0)
        assert Tree.star(np.int64(3), True).edges == ((1, 0), (1, 2))

    def test_restrict_refuses_float_vertices(self):
        with pytest.raises(InputError, match=r"^vertex 0\.0 is not an integer$"):
            ASYM3.restrict([0.0, 1.0])
        assert ASYM3.restrict([np.int64(2), False]).d.tolist() == [[0.0, 0.5], [2.0, 0.0]]

    @pytest.mark.parametrize("d", [[[0, 1], [1]], [[0, 1j], [1, 0]]], ids=["ragged", "complex"])
    def test_space_refuses_what_is_not_a_real_matrix(self, d):
        # numpy's own ValueError and TypeError, which `except InputError` missed
        with pytest.raises(InputError, match="^dissimilarity matrix must be a rectangular array of reals$"):
            DissimilaritySpace(d)

    @pytest.mark.parametrize("arcs", [[(0, 1)], [(0, 1), (1, 2), (2, 1)]], ids=["too-few", "too-many"])
    def test_oriented_tree_rejects_wrong_arc_count(self, arcs):
        with pytest.raises(InputError, match=f"expected 2 arcs, got {len(set(arcs))}"):
            OrientedTree(Tree(3, [(0, 1), (1, 2)]), arcs)

    def test_oriented_tree_aligns_arcs(self):
        t = Tree(3, [(0, 1), (1, 2)])
        ot = OrientedTree(t, [(2, 1), (0, 1)])
        assert ot.arcs == ((0, 1), (2, 1))
        with pytest.raises(InputError):
            OrientedTree(t, [(0, 1), (0, 2)])

    def test_oriented_tree_from_reversed_flags(self):
        t = Tree(3, [(0, 1), (1, 2)])
        ot = OrientedTree.from_reversed(t, [False, True])
        assert ot.arcs == ((0, 1), (2, 1))
        assert ot == OrientedTree(t, [(2, 1), (0, 1)])
        with pytest.raises(InputError, match="expected 2 edge directions, got 1"):
            OrientedTree.from_reversed(t, [True])

    def test_tree_accepts_exactly_trees_and_names_the_fault(self):
        # n-1 pairs drawn around a random tree, with self-loops, endpoints
        # out of range, repeats and rewired edges (which may close a cycle)
        # mixed in; the union-find reference lists every fault in edge order
        nx = pytest.importorskip("networkx")
        rng = random.Random(16)
        seen = set()
        for _ in range(3000):
            n = rng.randrange(1, 9)
            edges = [[u, v] if rng.random() < 0.5 else [v, u] for u, v in random_tree(rng, n).edges]
            rng.shuffle(edges)
            for _ in range(rng.choice((0, 1, 1, 1, 2, 3)) if n > 1 else 0):
                i, kind = rng.randrange(n - 1), rng.randrange(4)
                if kind == 0:
                    edges[i] = [rng.randrange(n)] * 2
                elif kind == 1:
                    edges[i][rng.randrange(2)] = rng.choice((-1, n, n + 5))
                elif kind == 2:
                    edges[i] = list(edges[rng.randrange(n - 1)])[:: rng.choice((1, -1))]
                else:
                    edges[i] = rng.sample(range(n), 2)
            edges = [tuple(e) for e in edges]
            faults = reference_tree_faults(n, edges)
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(edges)
            assert (not faults) == nx.is_tree(g), edges
            if not faults:
                assert Tree(n, edges).edges == tuple(edges)
                continue
            with pytest.raises(InputError) as exc:
                Tree(n, edges)
            # a self-loop, range fault or repeat is named before any cycle
            want = next((f for f in faults if f != CYCLE), CYCLE)
            assert str(exc.value) == want, edges
            if len(faults) == 1:
                assert want == faults[0]
                seen.add(want.split()[0])
            elif faults[0] == CYCLE and want != CYCLE:
                seen.add("cycle first")
        assert seen == {"self-loop", "edge", "duplicate", "edges", "cycle first"}

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(2, 1), (3, 2)], "edge (3, 2) out of range for n=3"),
            (5, [(1, 2), (0, 3), (3, 4), (4, 0)], CYCLE),
        ],
        ids=["range-fault", "cycle"],
    )
    def test_leaf_pair_away_from_vertex_0_is_no_tree(self, n, edges, message):
        # peeling 1 leaves 2 with no edge: 2 is not peeled, so the peel
        # falls short of n-1 vertices
        with pytest.raises(InputError) as exc:
            Tree(n, edges)
        assert str(exc.value) == message

    def test_star_edges_and_center_range(self):
        assert Tree.star(4, 2).edges == ((2, 0), (2, 1), (2, 3))
        assert Tree.star(1, 0).edges == ()
        for n, center in ((4, 4), (4, -1), (0, 0)):
            with pytest.raises(InputError) as exc:
                Tree.star(n, center)
            assert str(exc.value) == f"center {center} out of range"


def spider_tree(legs: int, length: int, center: int) -> Tree:
    """A centre with `legs` paths of `length` vertices each, the centre
    labelled `center` and the legs taking the other labels in order."""
    n = 1 + legs * length
    others = [v for v in range(n) if v != center]
    edges = []
    for i in range(legs):
        leg = others[i * length:(i + 1) * length]
        edges += zip([center] + leg, leg)
    return Tree(n, edges)


def rooting_family(name: str) -> list[Tree]:
    rng = random.Random(27)
    if name == "pruefer":
        trees = []
        for n in (*range(3, 40), *rng.sample(range(40, 301), 20)):
            t = random_tree(rng, n)
            edges = [e[::-1] if rng.random() < 0.5 else e for e in t.edges]
            rng.shuffle(edges)
            trees += [t, Tree(n, edges)]
        return trees
    if name == "path":
        return [path_tree(range(5000)), path_tree(range(4999, -1, -1))]
    if name == "star":
        return [Tree.star(n, c) for n in (3, 4, 101) for c in (0, n - 1)]
    if name == "spider":
        shapes = [(2, 3), (3, 4), (7, 2), (50, 3), (4, 25)]
        return [spider_tree(k, m, c) for k, m in shapes for c in (0, k * m, 1 + m // 2)]
    return [Tree(1, []), Tree(2, [(0, 1)]), Tree(2, [(1, 0)])]


class TestTreeRooting:
    """The leaf peel's parent array, subtree sizes and walk, and the
    centroid read off them, against a BFS from vertex 0."""

    @pytest.mark.parametrize("family", ["pruefer", "path", "star", "spider", "tiny"])
    def test_matches_bfs_reference(self, family):
        for t in rooting_family(family):
            n = t.n
            # the neighbours of each vertex in edge order, by sorting the
            # incidences (vertex, edge index, neighbour)
            incidences = sorted((x, i, y) for i, e in enumerate(t.edges) for x, y in (e, e[::-1]))
            want = [()] * n
            for x, group in groupby(incidences, key=lambda inc: inc[0]):
                want[x] = tuple(y for _, _, y in group)
            assert t.adjacency == tuple(want), t.edges
            _, parent, size = bfs_rooted(t, 0)
            assert t._parent == parent, t.edges
            assert t._sizes == size, t.edges
            order = t._order
            assert order[0] == 0 and sorted(order) == list(range(n)), t.edges
            position = {x: i for i, x in enumerate(order)}
            assert all(position[parent[x]] < position[x] for x in order[1:]), t.edges
            assert find_centroid(t) == reference_centroid(t), t.edges


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

    @pytest.mark.parametrize("check", [is_one_way_order, is_two_way_order])
    def test_refuses_float_vertices(self, check):
        # numpy's IndexError before; numpy ints and bools still work
        with pytest.raises(InputError, match=r"^vertex 1\.0 is not an integer$"):
            check(ASYM3, [1.0, 0.0])
        assert check(ASYM3, [np.int64(1), False])

    @pytest.mark.parametrize("check", [is_one_way_order, is_two_way_order])
    def test_rejects_order_longer_than_space(self, check):
        with pytest.raises(InputError, match="order of length 4 over a space of 3 points"):
            check(constant_space(3), [0, 1, 2, 0])


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

    @pytest.mark.parametrize("check", [is_one_way_order, is_two_way_order])
    def test_empty_and_one_point_orders(self, check):
        assert check(ASYM3, []) and check(ASYM3, [2])


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

    @staticmethod
    def away_from(t, root):
        """Reversal flags orienting every edge of t away from root."""
        depth = {root: 0}
        queue = [root]
        for x in queue:
            for y in t.adjacency[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    queue.append(y)
        return [depth[u] > depth[v] for u, v in t.edges]

    def directions(self, rng, t):
        """Random flags and their complement, all forward and all reversed,
        and every edge away from and toward a random vertex."""
        m = len(t.edges)
        flags = [rng.random() < 0.5 for _ in range(m)]
        away = self.away_from(t, rng.randrange(t.n))
        return [flags, [not f for f in flags], [False] * m, [True] * m, away, [not f for f in away]]

    def test_matches_reference_reach_sizes(self):
        rng = random.Random(29)
        trees = [Tree(1, [])]
        for n in range(2, 41):
            trees += [Tree.star(n, rng.randrange(n)), path_tree(rng.sample(range(n), n))]
            trees += [random_tree(rng, n) for _ in range(5)]
        for t in trees:
            for flags in self.directions(rng, t):
                ot = OrientedTree.from_reversed(t, flags)
                assert count_xi(ot) == sum(reach_sizes(t.n, ot.out_adjacency))

    def test_matches_reference_on_a_large_pruefer_tree(self):
        rng = random.Random(31)
        n = 50_000
        t = tree_from_pruefer(n, [rng.randrange(n) for _ in range(n - 2)])
        for flags in self.directions(rng, t):
            ot = OrientedTree.from_reversed(t, flags)
            assert count_xi(ot) == sum(reach_sizes(n, ot.out_adjacency))

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
        # maximal-path walk test a handle pair once per leaf.  The handle is
        # one run, read in numpy slices, and the leaves one pair at a time:
        # a read is a scalar read or one entry of a slice
        n, k = 400, 200
        edges = [(i, i + 1) for i in range(k - 1)] + [(k - 1, j) for j in range(k, n)]
        ot = OrientedTree(Tree(n, edges), [(v, u) for u, v in edges] if inward else edges)
        reads = [0]

        class CountingList(list):
            def __getitem__(self, i):
                reads[0] += 1
                return super().__getitem__(i)

        class CountingArray(np.ndarray):
            def __getitem__(self, key):
                out = super().__getitem__(key)
                if self.ndim == 2:
                    return out  # a row, counted as it is read
                reads[0] += np.size(key)
                return out.view(np.ndarray) if isinstance(out, np.ndarray) else out

            def tolist(self):
                return [CountingList(r) for r in np.asarray(self).tolist()]

        d = constant_space(n).d.view(CountingArray)
        adj = ot.out_adjacency
        assert _first_failing_pair(d, adj) is None
        assert 0 < reads[0] <= 3 * count_xi(ot)


def long_run_shape(rng, kind):
    """Arcs of a tree whose chains are longer than RUN_MIN, before labels
    are shuffled: a path, a broom (a handle with leaves on its end) out or
    in, a caterpillar (a spine with in- and out-leaves far apart) or a
    spider with in- and out-legs."""

    def leg():
        return rng.randrange(RUN_MIN + 1, 2 * RUN_MIN + 10)

    if kind == "path":
        n = rng.randrange(RUN_MIN + 2, 300)
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind in ("out-broom", "in-broom"):
        k, leaves = leg(), rng.randrange(2, 60)
        arcs = [(i, i + 1) for i in range(k - 1)] + [(k - 1, k + j) for j in range(leaves)]
        return k + leaves, arcs if kind == "out-broom" else [(v, u) for u, v in arcs]
    if kind == "caterpillar":
        spine = rng.randrange(3 * RUN_MIN, 250)
        arcs = [(i, i + 1) for i in range(spine - 1)]
        n = spine
        for s in range(rng.randrange(RUN_MIN), spine, RUN_MIN + 5):
            for _ in range(rng.randrange(1, 4)):
                arcs.append((s, n) if rng.random() < 0.6 else (n, s))
                n += 1
        return n, arcs
    legs = [leg() for _ in range(rng.randrange(3, 6))]
    arcs, n = [], 1
    for i, k in enumerate(legs):
        chain = [0] + list(range(n, n + k))
        n += k
        inward = i == 0 or (i > 2 and rng.random() < 0.5)  # one in-leg, two out-legs at least
        pairs = list(zip(chain, chain[1:]))
        arcs += [(v, u) for u, v in pairs] if inward else pairs
    return n, arcs


def path_metric(rng, t, symmetric, arcs=None):
    """Sums of random edge weights along tree paths, each direction its own
    unless symmetric, put through a floor division to make ties: every path
    is one-way-Robinson.  With ``arcs``, pairs joined by no directed path
    either way get random values instead."""
    w = {}
    for u, v in t.edges:
        w[u, v] = rng.randrange(4)
        w[v, u] = w[u, v] if symmetric else rng.randrange(4)
    d = np.zeros((t.n, t.n))
    for a in range(t.n):
        seen, queue = {a}, [a]
        for x in queue:
            for y in t.adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    d[a, y] = d[a, x] + w[x, y]
                    queue.append(y)
    d //= rng.choice((1, 2, 3))
    if arcs is not None:
        reach = reachability(OrientedTree(t, arcs))
        for u in range(t.n):
            for v in range(u + 1, t.n):
                if (u, v) not in reach and (v, u) not in reach:
                    d[u, v] = rng.randrange(3 * t.n)
                    d[v, u] = d[u, v] if symmetric else rng.randrange(3 * t.n)
    return d


def plant(rng, d, t, out, symmetric, undirected=False):
    """Lower one d(a,b), on a path a, h, ..., p, b following ``out``,
    below either d(a,p) or d(h,b) but not both, so the pair (a, b) alone
    fails (and (b, a) too when symmetric and the path runs both ways).  b
    is drawn from one place along a chain: its first or second vertex (a
    walk pops the first and may slice from the second), its middle, its
    last vertex, or just past it at a branch; a from all vertices
    before p, often the farthest.  ``out`` is an oriented tree's
    out-adjacency, or a tree's adjacency when undirected.  Returns (a, b),
    the place and the test, or None."""
    outdeg = [len(nb) - undirected for nb in out]  # ways on from a vertex entered
    into = [[] for _ in out]
    for u, nb in enumerate(out):
        for v in nb:
            into[v].append(u)
    places = {
        "first": lambda p, b: outdeg[p] != 1 and outdeg[b] == 1,
        "second": lambda p, b: outdeg[p] == 1 and all(outdeg[q] != 1 for q in into[p] if q != b),
        "middle": lambda p, b: outdeg[p] == 1 and outdeg[b] == 1,
        "last": lambda p, b: outdeg[p] == 1 and outdeg[b] != 1,
        "past": lambda p, b: outdeg[p] > 1 and any(outdeg[q] == 1 for q in into[p] if q != b),
    }
    tries = [(place, test) for place in sorted(places) for test in ("d(a,p)", "d(h,b)")]
    rng.shuffle(tries)  # the first place and test that the tree allows
    for place, test in tries:
        cands = [(p, b) for b in range(t.n) for p in into[b] if places[place](p, b)]
        for p, b in rng.sample(cands, min(len(cands), 20)):
            before, seen = [p], {p, b}
            for x in before:
                for q in into[x]:
                    if q not in seen:
                        seen.add(q)
                        before.append(q)
            before.pop(0)
            far = before[-1:] if rng.random() < 0.5 else []  # a long walk to p
            for a in far + rng.sample(before, min(len(before), 10)):
                h = tree_path(t, a, b)[1]
                low, keep = (d[a, p] - 1, d[h, b]) if test == "d(a,p)" else (d[h, b] - 1, d[a, p])
                if low < max(keep, 0):
                    continue  # the other test would fail too
                d[a, b] = low
                if symmetric:
                    d[b, a] = low
                return (a, b), place, test
    return None


class TestLongRuns:
    """Trees whose chains reach the numpy slices, against the references,
    with YES spaces and spaces with one planted failing pair."""

    KINDS = ("path", "out-broom", "in-broom", "caterpillar", "spider")

    def check_no_pair(self, d, t, pair, directed_arcs=None):
        a, b = pair
        path = tree_path(t, a, b)
        if directed_arcs is not None:
            assert all(arc in directed_arcs for arc in zip(path, path[1:]))
        assert not triple_one_way(d.tolist(), path)

    def test_oriented_trees_match_references(self):
        rng = random.Random(12)
        counts = {"yes": 0, "no": 0}
        for case in range(150):
            n, arcs = long_run_shape(rng, self.KINDS[case % 5])
            labels = list(range(n))
            rng.shuffle(labels)
            arcs = [(labels[u], labels[v]) for u, v in arcs]
            t = Tree(n, arcs)
            ot = OrientedTree(t, arcs)
            symmetric = case % 3 == 0
            d = path_metric(rng, t, symmetric, arcs)
            planted = plant(rng, d, t, ot.out_adjacency, symmetric) if case % 2 else None
            if planted is not None:
                planted, place, test = planted
                counts[place, test] = counts.get((place, test), 0) + 1
            space = DissimilaritySpace(d)
            pair = failing_pair(space, ot)
            assert check_compatible(space, ot) == (pair is None) == maximal_path_check(space, ot)
            if n <= 60:  # every triple of a directed path lies on a maximal one
                rows = d.tolist()
                literal = all(triple_one_way(rows, p) for p in maximal_directed_paths(ot))
                assert literal == (pair is None)
            assert pair == planted
            if pair is not None:
                self.check_no_pair(d, t, pair, set(ot.arcs))
            counts["no" if pair else "yes"] += 1
        assert counts["yes"] > 50 and len(counts) == 12  # every place, either test

    def test_first_of_several_failing_pairs_in_walk_order(self):
        # with two to four planted pairs failing, failing_pair names the one
        # the walk order reaches first, as the reference's plain DFS does.
        # On the line 0 -> ... -> 99 the root 5 comes before the root 10,
        # and along 10's run the pair (10, 40) before (10, 60)
        x = np.arange(100)
        d = abs(x[:, None] - x).astype(float)
        d[10, 60], d[5, 80], d[10, 40] = 0.5, 1.5, 2.5
        arcs = [(i, i + 1) for i in range(99)]
        ot = OrientedTree(Tree(100, arcs), arcs)
        assert failing_pair(DissimilaritySpace(d), ot) == reference_first_failing_pair(d, ot) == (5, 80)
        d[5, 80] = 75
        assert failing_pair(DissimilaritySpace(d), ot) == (10, 40)
        rng = random.Random(25)
        places, later = set(), 0
        for case in range(150):
            n, arcs = long_run_shape(rng, self.KINDS[case % 5])
            labels = list(range(n))
            rng.shuffle(labels)
            arcs = [(labels[u], labels[v]) for u, v in arcs]
            t = Tree(n, arcs)
            ot = OrientedTree(t, arcs)
            symmetric = case % 3 == 0
            d = path_metric(rng, t, symmetric, arcs)
            planted = []
            for _ in range(rng.randrange(2, 5)):
                found = plant(rng, d, t, ot.out_adjacency, symmetric)
                if found is not None:
                    planted.append(found[0])
                    places.add(found[1])
            pair = failing_pair(DissimilaritySpace(d), ot)
            assert pair == reference_first_failing_pair(d, ot), case
            assert pair in planted  # planting one pair makes no other fail
            later += pair != planted[0]
        assert len(places) == 5 and later > 30  # every place; the order decides

    def test_trees_match_references(self):
        # every tree path lies on a path leading away from a leaf, so the
        # premise holds iff each orientation away from a leaf is compatible
        rng = random.Random(21)
        counts = {"yes": 0, "no": 0}
        for case in range(100):
            n, arcs = long_run_shape(rng, self.KINDS[case % 5])
            if n > 200:
                continue
            labels = list(range(n))
            rng.shuffle(labels)
            t = Tree(n, [(labels[u], labels[v]) for u, v in arcs])
            symmetric = case % 3 == 0
            d = path_metric(rng, t, symmetric)
            planted = plant(rng, d, t, t.adjacency, symmetric, True) if case % 2 else None
            planted = planted and planted[0]
            space = DissimilaritySpace(d)
            pair = failing_pair(space, t)
            leaves = [u for u in range(n) if len(t.adjacency[u]) == 1]
            assert (pair is None) == all(maximal_path_check(space, away_from(t, u)) for u in leaves)
            if n <= 60:  # every tree path lies on a leaf-to-leaf one
                rows = d.tolist()
                literal = all(triple_one_way(rows, tree_path(t, u, v)) for u in leaves for v in leaves if u != v)
                assert literal == (pair is None)
            if planted is not None and symmetric:
                planted = min(planted, planted[::-1])
            assert pair == planted
            if pair is not None:
                self.check_no_pair(d, t, pair)
            counts["no" if pair else "yes"] += 1
        assert min(counts.values()) > 10


def away_from(t, root):
    """t with every edge pointing away from root."""
    arcs, seen, queue = [], {root}, [root]
    for x in queue:
        for y in t.adjacency[x]:
            if y not in seen:
                seen.add(y)
                arcs.append((x, y))
                queue.append(y)
    return OrientedTree(t, arcs)


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


def test_order_predicates_on_subsets_match_triple_definition():
    # orders of k < n points read only their k-by-k submatrix; a subset of a
    # planted order, kept in that order, is two-way
    rng = random.Random(23)
    for trial in range(600):
        n = rng.randrange(2, 9)
        k = rng.randrange(0, n)
        if trial % 2:
            space, planted = planted_two_way_space(rng, n)
            keep = set(rng.sample(range(n), k))
            order = [v for v in planted if v in keep]
            assert is_two_way_order(space, order)
        else:
            space = random_space(rng, n, values=[1.0, 2.0, 3.0])
            order = rng.sample(range(n), k)
        assert is_one_way_order(space, order) == triple_one_way(space.d, order), trial
        assert is_two_way_order(space, order) == triple_two_way(space.d, order), trial


def test_order_predicates_on_a_planted_1500_point_order():
    # the planted order of independent forward and backward line metrics,
    # labels shuffled, then the same order with two far-apart points swapped
    n = 1500
    rng = np.random.default_rng(1500)
    fwd, bwd = np.sort(rng.uniform(0, 10, n)), np.sort(rng.uniform(0, 10, n))
    i = np.arange(n)
    d = np.where(i[:, None] < i, abs(fwd[:, None] - fwd), abs(bwd[:, None] - bwd))
    order = rng.permutation(n)  # order[i] is the label of position i
    pos = np.argsort(order)
    space = DissimilaritySpace(d[np.ix_(pos, pos)])
    assert is_one_way_order(space, order)
    assert is_two_way_order(space, order)
    order[[100, 1400]] = order[[1400, 100]]
    assert not is_one_way_order(space, order)
    assert not is_two_way_order(space, order)


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
        "PreconditionError", "SimpleGraph", "SizeGuardError",
        "StarAssignment", "SubsetInstance", "Tree", "VertexOrder", "assign_star",
        "best_star_center", "build_assignment_instance", "build_orientation_instance",
        "build_subset_instance", "check_compatible", "count_xi", "eta_table",
        "find_centroid", "frontier", "is_one_way_order", "is_two_way_order",
        "optimal_partition_of_neighbors",
        "orient_all_robinson", "orient_star", "orientation_kappa", "parse_dimacs",
        "path_orientation", "petals", "recognize_two_way", "segment", "test_c1p",
        "verify_all_paths_robinson", "witness_orientation",
    ]
