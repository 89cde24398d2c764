"""Petal partition, star orientation, star assignment."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from robinson import (
    DissimilaritySpace,
    InputError,
    OrientedTree,
    Tree,
    check_compatible,
    count_xi,
)
import robinson.stars
from robinson.errors import PreconditionError, SizeGuardError
from robinson.oracle import brute_optimal_orientation
from robinson.stars import (
    MAX_POINTS,
    _petal_closure,
    _petal_floor,
    assign_star,
    best_star_center,
    orient_star,
    petals,
)
from support import (
    petal_classes,
    random_space,
    random_tree,
    reference_assign_star,
    reference_best_star_center,
    reference_star_petals,
)


def tied_spaces(seed, count, max_n=12):
    """Seeded symmetric spaces with n in 1..max_n and 2-4 distinct values,
    so many pairs tie."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        values = [float(v) for v in range(1, rng.randrange(3, 6))]
        yield random_space(rng, n, values=values, symmetric=True)


def canonical(classes):
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def constant_space(n, value=1.0):
    d = np.full((n, n), value)
    np.fill_diagonal(d, 0.0)
    return DissimilaritySpace(d)


def space_from(entries, n, default=2.0):
    d = np.full((n, n), default)
    np.fill_diagonal(d, 0.0)
    for (i, j), v in entries.items():
        d[i, j] = v
        d[j, i] = v
    return DissimilaritySpace(d)


def group_space(n, size):
    """Points in consecutive groups of `size`: distance 1 inside a group,
    2 across it."""
    label = np.arange(n) // size
    d = np.where(label[:, None] == label, 1.0, 2.0)
    np.fill_diagonal(d, 0.0)
    return DissimilaritySpace(d)


def spoke_space(rays, length):
    """Tree metric of a hub, labelled last, and `rays` rays of `length`
    points at radii 1..length: from the hub the petals are the rays."""
    ray = np.repeat(np.arange(rays + 1), [length] * rays + [1])
    radius = np.append(np.tile(np.arange(1.0, length + 1), rays), 0.0)
    same = ray[:, None] == ray
    d = np.where(same, np.abs(radius[:, None] - radius), radius[:, None] + radius)
    np.fill_diagonal(d, 0.0)
    return DissimilaritySpace(d)


def one_petal_space(rng, n):
    """Random symmetric space (n even) whose points are paired at a distance
    above every other entry, so every center has a single petal."""
    d = np.array([[float(rng.randrange(1, 5)) for _ in range(n)] for _ in range(n)])
    d = np.triu(d, 1) + np.triu(d, 1).T
    perm = list(range(n))
    rng.shuffle(perm)
    for a, b in zip(perm[::2], perm[1::2]):
        d[a, b] = d[b, a] = 9.0
    return DissimilaritySpace(d)


def line_space(rng, n, shuffle):
    coords = np.array(sorted(rng.sample(range(1000), n)), dtype=float)
    if shuffle:
        rng.shuffle(coords)
    return DissimilaritySpace(np.abs(coords[:, None] - coords))


def star_families():
    """Seeded 2-, 3- and 5-valued spaces (n <= 13), spokes, one-petal
    spaces, lines in and out of label order, constant spaces and disjoint
    pairs and triples, n = 1 and 2 among them."""
    for values, seed in ((2, 41), (3, 43), (5, 47)):
        rng = random.Random(seed)
        for _ in range(80):
            n = rng.randrange(1, 14)
            yield random_space(rng, n, values=[float(v) for v in range(1, values + 1)], symmetric=True)
    rng = random.Random(53)
    for rays, length in ((1, 1), (2, 3), (3, 2), (4, 3), (5, 2), (6, 2)):
        yield spoke_space(rays, length)
    for n in (2, 4, 6, 8, 10, 12):
        yield one_petal_space(rng, n)
    for n in range(1, 14):
        yield line_space(rng, n, shuffle=False)
        yield line_space(rng, n, shuffle=True)
        yield constant_space(n)
        yield group_space(n, 2)
        yield group_space(n, 3)


# center 0, leaves 1..3; only the (1,2) pair is forced together
TWO_PETALS = space_from({(1, 2): 1.0}, 4)
# chain closure: (1,2) and (2,3) violate, (1,3) does not; one petal
ONE_PETAL = space_from({(1, 2): 1.0, (2, 3): 1.0}, 4)


class TestPetals:
    def test_constant_space_singletons(self):
        part = petals(constant_space(5), Tree.star(5, 0), 0)
        assert part.petals == ((1,), (2,), (3,), (4,))

    def test_pair_merges(self):
        part = petals(TWO_PETALS, Tree.star(4, 0), 0)
        assert part.petals == ((1, 2), (3,))

    def test_chain_closure_single_petal(self):
        part = petals(ONE_PETAL, Tree.star(4, 0), 0)
        assert part.petals == ((1, 2, 3),)

    def test_asymmetric_rejected(self):
        d = np.array([[0, 1, 2], [2, 0, 1], [2, 1, 0]], dtype=float)
        with pytest.raises(PreconditionError):
            petals(DissimilaritySpace(d), Tree.star(3, 0), 0)

    @pytest.mark.parametrize(
        "n, center, message",
        [(5, 0, "space has 4 points but tree has 5 vertices"), (4, 4, "center 4 out of range")],
        ids=["size-mismatch", "center-out-of-range"],
    )
    def test_bad_inputs_rejected(self, n, center, message):
        with pytest.raises(InputError, match=message):
            petals(constant_space(4), Tree.star(n, 0), center)

    def test_partition_invariant_under_traversal_order(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randrange(3, 10)
            space = random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
            rows = space.d.tolist()
            candidates = list(range(1, n))
            reference = {
                frozenset(g) for g in _petal_closure(rows, 0, candidates)
            }
            for _ in range(10):
                rng.shuffle(candidates)
                got = {frozenset(g) for g in _petal_closure(rows, 0, candidates)}
                assert got == reference

    def test_kernel_matches_union_find(self):
        for space in tied_spaces(23, 300):
            n = space.n
            rows = space.d.tolist()
            for x in range(n):
                candidates = [v for v in range(n) if v != x]
                want = petal_classes(space.d, x, candidates)
                assert {frozenset(g) for g in _petal_closure(rows, x, candidates)} == want
                assert petals(space, Tree.star(n, x), x).petals == canonical(want)

    def test_capped_closure_stops_exactly_past_the_cap(self):
        for space in tied_spaces(59, 150):
            n = space.n
            rows = space.d.tolist()
            for x in range(n):
                candidates = [v for v in range(n) if v != x]
                want = petal_classes(space.d, x, candidates)
                largest = max(map(len, want), default=0)
                for cap in range(1, n):
                    got = _petal_closure(rows, x, candidates, cap)
                    if largest > cap:
                        assert got is None
                    else:
                        assert {frozenset(g) for g in got} == want

    def test_non_star_tree_reads_neighbors_only(self):
        rng = random.Random(29)
        for space in tied_spaces(31, 100):
            t = random_tree(rng, space.n)
            for x in range(space.n):
                want = canonical(petal_classes(space.d, x, t.adjacency[x]))
                assert petals(space, t, x).petals == want

    def test_cross_petal_pairs_not_violating(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randrange(3, 9)
            space = random_space(rng, n, values=[1.0, 2.0], symmetric=True)
            part = petals(space, Tree.star(n, 0), 0)
            d = space.d
            for a, b in combinations(range(len(part.petals)), 2):
                for t in part.petals[a]:
                    for z in part.petals[b]:
                        assert d[t, z] >= max(d[0, t], d[0, z])


class TestPetalForcing:
    def test_separation_witness(self):
        # orienting one petal in and the others out is always compatible
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(3, 9)
            space = random_space(rng, n, values=[1.0, 2.0], symmetric=True)
            t = Tree.star(n, 0)
            part = petals(space, t, 0)
            if len(part.petals) < 2:
                continue
            inward = set(part.petals[0])
            arcs = [
                (v, 0) if v in inward else (0, v)
                for _, v in ((e if e[0] == 0 else (e[1], e[0])) for e in t.edges)
            ]
            assert check_compatible(space, OrientedTree(t, arcs))

    def test_cohesion_no_compatible_split(self):
        # same petal never splits across In/Out in any compatible orientation
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randrange(3, 8)
            space = random_space(rng, n, values=[1.0, 2.0], symmetric=True)
            t = Tree.star(n, 0)
            part = petals(space, t, 0)
            petal_of = {v: k for k, p in enumerate(part.petals) for v in p}
            for mask in range(1 << (n - 1)):
                arcs = [
                    (v, 0) if mask >> (v - 1) & 1 else (0, v) for v in range(1, n)
                ]
                if not check_compatible(space, OrientedTree(t, arcs)):
                    continue
                inward = {v for v in range(1, n) if mask >> (v - 1) & 1}
                for p in part.petals:
                    inside = sum(1 for v in p if v in inward)
                    assert inside in (0, len(p)), (p, inward)


class TestOrientStar:
    def test_constant_star_five(self):
        ot, xi = orient_star(constant_space(5), 0)
        assert xi == 8
        assert check_compatible(constant_space(5), ot)

    def test_two_petal_star(self):
        ot, xi = orient_star(TWO_PETALS, 0)
        assert xi == 3 + 1 * 2
        assert check_compatible(TWO_PETALS, ot)

    def test_single_petal_forces_one_way(self):
        ot, xi = orient_star(ONE_PETAL, 0)
        assert xi == 3

    def test_optimal_vs_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(3, 10)
            space = random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
            center = rng.randrange(n)
            t = Tree.star(n, center)
            ot, xi = orient_star(space, center)
            assert check_compatible(space, ot)
            assert count_xi(ot) == xi
            best, _ = brute_optimal_orientation(space, t)
            assert xi == best

    def test_xi_closed_form(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randrange(3, 10)
            space = random_space(rng, n, values=[1.0, 2.0], symmetric=True)
            ot, xi = orient_star(space, 0)
            n_in = sum(1 for u, v in ot.arcs if v == 0)
            assert xi == (n - 1) + n_in * (n - 1 - n_in)

    def test_closed_form_xi_matches_recount_on_every_center(self):
        rng = random.Random(17)
        for n in (2, 7, 25, 60):
            space = random_space(rng, n, values=[1.0, 2.0, 3.0], symmetric=True)
            for c in range(n):
                ot, xi = orient_star(space, c)
                assert xi == count_xi(ot)


def counted_closures(monkeypatch):
    """The centers whose petal closure runs, in call order, from now on."""
    closures = []

    def counted(rows, x, candidates, cap=None):
        closures.append(x)
        return _petal_closure(rows, x, candidates, cap)

    monkeypatch.setattr(robinson.stars, "_petal_closure", counted)
    return closures


class TestPetalFloor:
    @staticmethod
    def floor_families():
        """Tied spaces, spokes with the hub at every label, one-petal
        spaces and lines in label order."""
        yield from tied_spaces(61, 200)
        rng = random.Random(67)
        for rays, length in ((1, 1), (2, 3), (3, 2), (5, 2)):
            spoke = spoke_space(rays, length)
            n = spoke.n
            for hub in range(n):
                # the hub, labelled n-1 in spoke, becomes point `hub`
                perm = [*range(hub), n - 1, *range(hub, n - 1)]
                yield DissimilaritySpace(spoke.d[np.ix_(perm, perm)])
        for n in (2, 4, 6, 8, 10, 12):
            yield one_petal_space(rng, n)
        for n in range(1, 14):
            yield line_space(rng, n, shuffle=False)

    def test_floor_is_at_most_the_largest_petal(self):
        for space in self.floor_families():
            floor = _petal_floor(space.d)
            for center, groups in reference_star_petals(space):
                assert floor[center] <= max(map(len, groups), default=0)

    def test_searches_match_references_on_seeded_spaces(self):
        # n 1-13 with 1-5 values, a third of them with zero off-diagonal
        # entries, at every in-count
        rng = random.Random(71)
        for i in range(300):
            n = rng.randrange(1, 14)
            values = [float(v) for v in range(1, rng.randrange(2, 7))]
            if i % 3 == 0:
                values.append(0.0)
            space = random_space(rng, n, values=values, symmetric=True)
            assert best_star_center(space) == reference_best_star_center(space)
            for a in range(n):
                assert assign_star(space, a, n - 1 - a) == reference_assign_star(space, a, n - 1 - a)

    def test_spoke_runs_the_hub_alone(self, monkeypatch):
        # every center off the hub has a ray past the cap; best_star_center
        # still runs center 0, since its first cap is n-1
        space = spoke_space(30, 6)
        closures = counted_closures(monkeypatch)
        assert best_star_center(space) == 180
        assert closures == [0, 180]
        closures.clear()
        assert assign_star(space, 18, 162).center == 180
        assert closures == [180]

    def test_one_petal_no_runs_no_closure(self, monkeypatch):
        space = one_petal_space(random.Random(73), 200)
        closures = counted_closures(monkeypatch)
        assert assign_star(space, 57, 142) is None
        assert closures == []


class TestBestStarCenter:
    @staticmethod
    def every_center(space):
        """A star and its optimal orientation for every center, keeping
        the first strictly larger xi."""
        best = None
        for c in range(space.n):
            ot, xi = orient_star(space, c)
            if best is None or xi > best[0]:
                best = (xi, c, ot.arcs)
        return best

    def test_matches_every_center_loop(self):
        spaces = list(tied_spaces(37, 200)) + [constant_space(n) for n in (1, 2, 7)]
        spaces.append(TWO_PETALS)
        for space in spaces:
            c = best_star_center(space)
            ot, xi = orient_star(space, c)
            assert (xi, c, ot.arcs) == self.every_center(space)

    def test_matches_reference_loop(self):
        # orient_star is unchanged, so an equal center gives an equal star
        for space in star_families():
            assert best_star_center(space) == reference_best_star_center(space)

    def test_constant_space_stops_at_first_center(self, monkeypatch):
        # center 0 reaches the largest score, so no other closure runs
        closures = counted_closures(monkeypatch)
        assert best_star_center(constant_space(400)) == 0
        assert closures == [0]

    def test_asymmetric_rejected(self):
        d = np.array([[0, 1, 2], [2, 0, 1], [2, 1, 0]], dtype=float)
        with pytest.raises(PreconditionError):
            best_star_center(DissimilaritySpace(d))

    def test_size_guard(self):
        assert best_star_center(constant_space(MAX_POINTS)) == 0
        with pytest.raises(SizeGuardError):
            best_star_center(constant_space(MAX_POINTS + 1))


class TestAssignStar:
    def test_constant_space_any_split(self):
        n = 6
        space = constant_space(n)
        for a in range(n):
            res = assign_star(space, a, n - 1 - a)
            assert res is not None
            assert len(res.in_set) == a and len(res.out_set) == n - 1 - a

    def test_single_petal_everywhere_absent(self):
        # 4-cycle metric: every center sees one petal, so no mixed split
        d = np.full((4, 4), 2.0)
        np.fill_diagonal(d, 0.0)
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            d[i, j] = d[j, i] = 1.0
        space = DissimilaritySpace(d)
        for center in range(4):
            part = petals(space, Tree.star(4, center), center)
            assert len(part.petals) == 1
        assert assign_star(space, 1, 2) is None
        assert assign_star(space, 2, 1) is None
        assert assign_star(space, 0, 3) is not None

    def test_exact_subset_of_petals(self):
        res = assign_star(TWO_PETALS, 1, 2)
        assert res is not None
        assert res.in_set == (3,)  # the singleton petal is the only size-1 union

    def test_matches_reference_loop_at_every_in_count(self):
        for space in star_families():
            n = space.n
            for a in range(n):
                assert assign_star(space, a, n - 1 - a) == reference_assign_star(space, a, n - 1 - a)

    def test_size_guard(self):
        half = (MAX_POINTS - 1) // 2
        res = assign_star(constant_space(MAX_POINTS), half, MAX_POINTS - 1 - half)
        assert res is not None and res.center == 0
        with pytest.raises(SizeGuardError):
            assign_star(constant_space(MAX_POINTS + 1), half, MAX_POINTS - half)

    def test_count_mismatch_rejected(self):
        with pytest.raises(InputError):
            assign_star(constant_space(4), 1, 1)

    def test_induced_orientation_compatible(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randrange(3, 9)
            space = random_space(rng, n, values=[1.0, 2.0], symmetric=True)
            a = rng.randrange(n)
            res = assign_star(space, a, n - 1 - a)
            if res is None:
                continue
            t = Tree.star(n, res.center)
            arcs = [(v, res.center) for v in res.in_set] + [
                (res.center, v) for v in res.out_set
            ]
            assert check_compatible(space, OrientedTree(t, arcs))

    def test_agreement_with_exhaustive_search(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randrange(3, 8)
            space = random_space(rng, n, values=[1.0, 2.0], symmetric=True)
            a = rng.randrange(n)
            want = False
            for center in range(n):
                t = Tree.star(n, center)
                others = [v for v in range(n) if v != center]
                for inward in combinations(others, a):
                    arcs = [
                        (v, center) if v in inward else (center, v) for v in others
                    ]
                    if check_compatible(space, OrientedTree(t, arcs)):
                        want = True
                        break
                if want:
                    break
            got = assign_star(space, a, n - 1 - a)
            assert (got is not None) == want
