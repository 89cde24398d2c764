"""Hardness-reduction instance generators and forward-direction checks."""

from __future__ import annotations

import random
from itertools import permutations, product

import numpy as np
import pytest

from robinson import (
    DissimilaritySpace,
    InputError,
    SizeGuardError,
    Tree,
    check_compatible,
    count_xi,
    is_two_way_order,
    recognize_two_way,
)
from robinson.oracle import brute_robinson_subset
from robinson.reductions import (
    Cnf3,
    SimpleGraph,
    build_assignment_instance,
    build_orientation_instance,
    build_subset_instance,
    orientation_kappa,
    parse_dimacs,
    witness_orientation,
)
from support import (
    maximal_directed_paths,
    random_space,
    reference_assignment_arcs,
    reference_witness_arcs,
    role_index,
)


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> Cnf3:
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return Cnf3(num_vars, clauses)


def satisfying_assignments(cnf: Cnf3):
    for bits in product([False, True], repeat=cnf.num_vars):
        if cnf.evaluate(bits):
            yield bits


CNF1 = Cnf3(3, [(1, 2, 3)])


class TestDimacs:
    def test_parse_basic(self):
        cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
        assert cnf.num_vars == 3
        assert cnf.clauses == ((1, -2, 3), (-1, 2, -3))

    def test_rejects_non_three_literal_clause(self):
        with pytest.raises(InputError):
            parse_dimacs("p cnf 2 1\n1 -2 0\n")

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(InputError):
            parse_dimacs("p cnf 2 1\n1 2 5 0\n")

    def test_missing_final_zero_tolerated(self):
        assert parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3\n").clauses == ((1, 2, 3), (-1, -2, -3))

    def test_satlib_trailer_ends_the_formula(self):
        # SATLIB files end with a `%` line and then a lone 0, which is no
        # empty clause
        text = "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
        assert parse_dimacs(text + "%\n0\n\n") == parse_dimacs(text)
        assert parse_dimacs(text + "%\n0\n").clauses == ((1, -2, 3), (-1, 2, -3))

    def test_rejects_second_header(self):
        with pytest.raises(InputError, match="second DIMACS header: 'p cnf 5 1'"):
            parse_dimacs("p cnf 3 1\n1 2 3 0\np cnf 5 1\n")

    def test_rejects_clause_count_mismatch(self):
        with pytest.raises(InputError, match="header promises 2 clauses, found 1"):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_rejects_no_variables(self):
        with pytest.raises(InputError, match="formula needs at least one variable"):
            Cnf3(0, [])

    @pytest.mark.parametrize("assignment", [[True, False], [True] * 4], ids=["short", "long"])
    def test_rejects_assignment_of_wrong_length(self, assignment):
        with pytest.raises(InputError, match="assignment must cover all variables"):
            CNF1.evaluate(assignment)
        with pytest.raises(InputError, match="assignment must cover all variables"):
            witness_orientation(build_orientation_instance(CNF1), assignment)


class TestOrientationInstance:
    def test_sizes_small(self):
        inst = build_orientation_instance(CNF1)
        assert inst.tree.n == 65
        assert len(inst.tree.edges) == 64
        assert inst.space.n == 65

    def test_kappa_closed_form(self):
        assert orientation_kappa(3, 1) == 7 + 15 + 42 + 3 * 81 + 3 + 27 + 27 + 6 == 370
        inst = build_orientation_instance(CNF1)
        assert inst.kappa == 370

    def test_every_edge_has_distance_two(self):
        inst = build_orientation_instance(CNF1)
        for u, v in inst.tree.edges:
            assert inst.space.d[u, v] == 2.0
            assert inst.space.d[v, u] == 2.0

    def test_space_symmetric_and_binary(self):
        inst = build_orientation_instance(random_cnf(random.Random(1), 4, 2))
        assert inst.space.is_symmetric
        off = inst.space.d[~np.eye(inst.space.n, dtype=bool)]
        assert set(np.unique(off)) == {1.0, 2.0}

    def test_pattern_ties_follow_sign_table(self):
        # clause (v1 or not-v2 or v3): the seven patterns tie the families
        # minus/minus/plus, plus/plus/plus, plus/minus/minus, minus/plus/plus,
        # minus/minus/minus, plus/plus/minus, minus/plus/minus in that order
        inst = build_orientation_instance(Cnf3(3, [(1, -2, 3)]))
        d = inst.space.d
        expected = [
            ("-", "-", "+"),
            ("+", "+", "+"),
            ("+", "-", "-"),
            ("-", "+", "+"),
            ("-", "-", "-"),
            ("+", "+", "-"),
            ("-", "+", "-"),
        ]
        index = role_index(inst)
        L = 7 * 1 + 2  # leaves per family: 7 per clause plus 2
        for l, fams in enumerate(expected, start=1):
            z = index[f"z1_{l}"]
            for i, fam in enumerate(fams, start=1):
                other_fam = "+" if fam == "-" else "-"
                for k in range(1, L + 1):
                    tied = index[f"x{i}{fam}{k}"]
                    other = index[f"x{i}{other_fam}{k}"]
                    assert d[z, tied] == 1.0
                    assert d[z, other] == 2.0

    def test_repeated_variable_rejected(self):
        with pytest.raises(InputError):
            build_orientation_instance(Cnf3(2, [(1, -1, 2)]))

    def test_size_formulas_fuzz(self):
        rng = random.Random(5)
        for _ in range(10):
            n, m = rng.randrange(3, 6), rng.randrange(1, 4)
            inst = build_orientation_instance(random_cnf(rng, n, m))
            assert inst.tree.n == 1 + n + 2 * n * (7 * m + 2) + 7 * m
            assert len(inst.tree.edges) == inst.tree.n - 1
            assert len(inst.vertex_roles) == inst.tree.n


class TestWitnessOrientation:
    def test_satisfying_assignment_hits_kappa(self):
        inst = build_orientation_instance(CNF1)
        ot = witness_orientation(inst, (True, False, False))
        assert ot is not None
        assert check_compatible(inst.space, ot)
        assert count_xi(ot) == inst.kappa

    def test_non_satisfying_absent(self):
        inst = build_orientation_instance(CNF1)
        assert witness_orientation(inst, (False, False, False)) is None

    def test_all_true_selects_seventh_pattern(self):
        inst = build_orientation_instance(CNF1)
        ot = witness_orientation(inst, (True, True, True))
        assert ot is not None
        index = role_index(inst)
        out_z = [l for l in range(1, 8) if (0, index[f"z1_{l}"]) in set(ot.arcs)]
        assert out_z == [7]

    def test_matches_reference_from_roles(self):
        # every assignment of 48 seeded formulas, n 3-5, m 1-3
        rng = random.Random(29)
        satisfied = unsatisfied = 0
        for _ in range(48):
            cnf = random_cnf(rng, rng.randrange(3, 6), rng.randrange(1, 4))
            inst = build_orientation_instance(cnf)
            for bits in product([False, True], repeat=cnf.num_vars):
                ot = witness_orientation(inst, bits)
                expected = reference_witness_arcs(inst, bits)
                if expected is None:
                    assert ot is None
                    unsatisfied += 1
                    continue
                assert len(expected) == len(inst.tree.edges)
                assert set(ot.arcs) == expected
                satisfied += 1
        assert satisfied > 500 and unsatisfied > 50

    def test_every_satisfying_assignment_of_small_formulas(self):
        rng = random.Random(7)
        for _ in range(6):
            cnf = random_cnf(rng, 3, rng.randrange(1, 3))
            inst = build_orientation_instance(cnf)
            hit = 0
            for bits in satisfying_assignments(cnf):
                ot = witness_orientation(inst, bits)
                assert ot is not None
                assert check_compatible(inst.space, ot)
                assert count_xi(ot) == inst.kappa
                hit += 1
                if hit >= 3:
                    break


class TestSubsetInstance:
    def test_single_edge_whole_set_robinson(self):
        inst = build_subset_instance(SimpleGraph(2, [(0, 1)]))
        assert inst.space.n == 5
        assert inst.kappa == 5
        index = role_index(inst)
        block_order = [index[name] for name in ("x1^1", "x1^2", "y1", "x2^1", "x2^2")]
        assert is_two_way_order(inst.space, block_order)
        assert recognize_two_way(inst.space) is not None

    def test_path_graph_whole_set_robinson(self):
        inst = build_subset_instance(SimpleGraph(3, [(0, 1), (1, 2)]))
        assert inst.space.n == 11
        assert inst.kappa == 11
        assert recognize_two_way(inst.space) is not None

    def test_star_graph_not_robinson(self):
        inst = build_subset_instance(SimpleGraph(4, [(0, 1), (0, 2), (0, 3)]))
        assert inst.space.n == 19
        assert inst.kappa == 19
        assert recognize_two_way(inst.space) is None

    def test_symmetric_binary_values(self):
        inst = build_subset_instance(SimpleGraph(3, [(0, 1), (1, 2), (0, 2)]))
        assert inst.space.is_symmetric
        off = inst.space.d[~np.eye(inst.space.n, dtype=bool)]
        assert set(np.unique(off)) == {1.0, 2.0}

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(1, 1), (0, 1)], "self-loop at vertex 1"),
            ([(0, 1), (1, 3)], "edge (1, 3) out of range for n=3"),
            ([(0, 1), (1, 0)], "duplicate edge (1, 0)"),
        ],
    )
    def test_graph_edges_rejected_as_tree_edges(self, edges, message):
        for build in (SimpleGraph, Tree):
            with pytest.raises(InputError) as exc:
                build(3, edges)
            assert str(exc.value) == message

    def test_graph_refuses_float_endpoints(self):
        # int() would truncate 1.5 to vertex 1; numpy ints and bools still work
        with pytest.raises(InputError, match=r"^edge \(0, 1\.5\) has an endpoint that is not an integer$"):
            SimpleGraph(3, [(0, 1.5)])
        assert SimpleGraph(3, [(np.int64(0), True), (1, 2)]).edges == ((0, 1), (1, 2))

    def test_edgeless_graph_rejected(self):
        with pytest.raises(InputError, match="graph needs at least one edge"):
            build_subset_instance(SimpleGraph(3, []))

    def test_size_guard_before_allocation(self):
        # 2 * 2500 clone points plus one edge point: one over the limit
        with pytest.raises(SizeGuardError):
            build_subset_instance(SimpleGraph(2500, [(0, 1)]))
        with pytest.raises(SizeGuardError):
            build_orientation_instance(Cnf3(1000, []))  # 1 + 5 * 1000 points


class TestAssignmentInstance:
    def test_full_kappa_monotone(self):
        space = random_space(random.Random(11), 5, values=[1.0, 2.0], symmetric=True)
        ot = build_assignment_instance(space.n, 5)
        assert ot.arcs == tuple((t, t + 1) for t in range(4))

    def test_five_with_prefix_three(self):
        space = random_space(random.Random(13), 5, values=[1.0, 2.0], symmetric=True)
        ot = build_assignment_instance(space.n, 3)
        assert ot.arcs == ((0, 1), (1, 2), (3, 2), (3, 4))

    def test_six_three_alternation(self):
        space = random_space(random.Random(17), 6, values=[1.0, 2.0], symmetric=True)
        ot = build_assignment_instance(space.n, 3)
        assert ot.arcs == ((0, 1), (1, 2), (3, 2), (3, 4), (5, 4))
        tail_paths = [p for p in maximal_directed_paths(ot) if p[0] != 0]
        assert all(len(p) == 2 for p in tail_paths)

    def test_matches_forward_prefix_then_alternating(self):
        for n in range(1, 31):
            space = DissimilaritySpace(np.zeros((n, n)))
            for kappa in range(1, n + 1):
                ot = build_assignment_instance(space.n, kappa)
                assert list(ot.arcs) == reference_assignment_arcs(n, kappa)

    def test_kappa_out_of_range(self):
        space = random_space(random.Random(19), 4, values=[1.0], symmetric=True)
        with pytest.raises(InputError):
            build_assignment_instance(space.n, 0)
        with pytest.raises(InputError):
            build_assignment_instance(space.n, 5)

    def test_bijection_exists_iff_robinson_subset(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randrange(3, 7)
            space = random_space(rng, n, values=[1.0, 2.0], symmetric=True)
            kappa = rng.randrange(1, n + 1)
            ot = build_assignment_instance(space.n, kappa)
            exists = False
            for perm in permutations(range(n)):
                relabeled = DissimilaritySpace(space.d[np.ix_(perm, perm)])
                if check_compatible(relabeled, ot):
                    exists = True
                    break
            subset = brute_robinson_subset(space, kappa)
            assert exists == (subset is not None)
