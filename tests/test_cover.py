import copy
import pickle
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import floor, lcm

import pytest

from kcover.certificates import (
    CertificateError,
    check_cover,
    check_half_cut,
    check_improved_parts,
)
from kcover.cover import (
    bipartize_half_weight,
    cover_k_cliques_basic,
    cover_k_cliques_improved,
    cover_k_cycles_basic,
    cover_k_cycles_odd,
    round_basic,
    round_improved,
    round_threshold,
)
from kcover.graph import (
    EdgeSet,
    WeightedGraph,
    complete_graph,
    edge_induced_subgraph,
    remove_edges,
    total_weight,
    two_coloring,
)
from kcover.lp import FractionalSolution, solve_covering_lp
from kcover.structures import CoveringProblem, build_incidence, enumerate_k_cycles, verify_cover


def random_graph(rng, n, p):
    edges = [
        (u, v, rng.randint(1, 10))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedGraph.build(range(n), edges)


def fake_solution(values):
    """A solution with the given values and no rows, for the rounding helpers alone."""
    fractions = {e: Fraction(v) for e, v in values.items()}
    den = lcm(*(x.denominator for x in fractions.values()))
    nums = tuple(int(x * den) for x in fractions.values())
    objective = sum(fractions.values(), Fraction(0))
    return FractionalSolution(tuple(fractions), den, nums, objective, 0, 1, (), ())


class TestRoundThreshold:
    def test_ties_included(self):
        sol = fake_solution({(0, 1): Fraction(1, 3), (0, 2): Fraction(1, 3), (1, 2): Fraction(1, 3)})
        assert round_threshold(sol, Fraction(1, 3)) == EdgeSet([(0, 1), (0, 2), (1, 2)])

    def test_strictly_below_excluded(self):
        sol = fake_solution({(0, 1): Fraction(1, 5), (0, 2): Fraction(9, 10)})
        assert round_threshold(sol, Fraction(1, 3)) == EdgeSet([(0, 2)])

    def test_all_zero(self):
        sol = fake_solution({(0, 1): 0, (0, 2): 0})
        assert round_threshold(sol, Fraction(1, 100)) == EdgeSet()

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            round_threshold(fake_solution({(0, 1): 0}), Fraction(0))


class TestBipartize:
    def test_single_edge_in_cut(self):
        g = WeightedGraph.build(range(2), [(0, 1, 5)])
        b = bipartize_half_weight(g)
        assert b.cut_edges == EdgeSet([(0, 1)])
        assert b.inner_edges == EdgeSet()

    def test_four_cycle_fully_cut(self):
        g = WeightedGraph.build(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        b = bipartize_half_weight(g)
        assert total_weight(g, b.cut_edges) >= 2
        assert total_weight(g, b.cut_edges) == 4  # deterministic greedy finds the bipartition

    def test_triangle_cuts_exactly_two(self):
        g = complete_graph(3)
        # Oracle: scan all 8 assignments; the best cut of a unit triangle is 2,
        # and every local optimum of single-vertex moves also cuts exactly 2.
        best = 0
        for assignment in product((0, 1), repeat=3):
            cut = sum(1 for u, v in g.edges if assignment[u] != assignment[v])
            best = max(best, cut)
        assert best == 2
        b = bipartize_half_weight(g)
        assert total_weight(g, b.cut_edges) == 2
        assert len(b.inner_edges) == 1

    def test_empty_graph(self):
        g = WeightedGraph.build([], [])
        b = bipartize_half_weight(g)
        assert b.side1 == () and b.side2 == ()
        assert b.cut_edges == EdgeSet()

    def test_half_weight_on_random_graphs(self):
        rng = random.Random(321)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            b = bipartize_half_weight(g)
            assert set(b.side1) | set(b.side2) == set(g.vertices)
            assert not set(b.side1) & set(b.side2)
            assert (b.cut_edges | b.inner_edges) == g.edge_set()
            assert not (b.cut_edges & b.inner_edges)
            assert 2 * total_weight(g, b.cut_edges) >= total_weight(g, g.edge_set())

    def test_deterministic(self):
        rng = random.Random(9)
        g = random_graph(rng, 9, 0.6)
        assert bipartize_half_weight(g) == bipartize_half_weight(g)


class TestBasicCycleCover:
    def test_triangle(self):
        g = complete_graph(3)
        res = cover_k_cycles_basic(g, 3)
        assert res.lp_objective == 1
        assert res.ratio_bound == 3
        assert res.cover_weight <= 3
        assert verify_cover(g, 3, "cycle", res.cover)

    def test_k4(self):
        g = complete_graph(4)
        res = cover_k_cycles_basic(g, 3)
        assert res.lp_objective == 2
        assert res.cover_weight <= 6
        assert verify_cover(g, 3, "cycle", res.cover)

    def test_triangle_free_graph(self):
        g = WeightedGraph.build(range(4), [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 5)])
        res = cover_k_cycles_basic(g, 3)
        assert res.cover == EdgeSet()
        assert res.cover_weight == 0
        assert res.lp_objective == 0

    def test_algorithm_tag(self):
        assert cover_k_cycles_basic(complete_graph(3), 3).algorithm == "basic-cycle"


class TestBasicCliqueCover:
    def test_k4_single_clique(self):
        g = complete_graph(4)
        res = cover_k_cliques_basic(g, 4)
        assert res.ratio_bound == 6
        assert res.cover_weight <= 6 * res.lp_objective
        assert verify_cover(g, 4, "clique", res.cover)

    def test_k5_four_cliques(self):
        g = complete_graph(5)
        res = cover_k_cliques_basic(g, 4)
        assert res.cover_weight <= 6 * res.lp_objective
        assert verify_cover(g, 4, "clique", res.cover)

    def test_clique_free_graph(self):
        g = WeightedGraph.build(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        res = cover_k_cliques_basic(g, 3)
        assert res.cover == EdgeSet() and res.cover_weight == 0


class TestImprovedCycleCover:
    def test_five_cycle(self):
        g = WeightedGraph.build(range(5), [(i, (i + 1) % 5, 1) for i in range(4)] + [(0, 4, 1)])
        res = cover_k_cycles_odd(g, 5)
        assert res.lp_objective == 1
        assert res.ratio_bound == Fraction(9, 2)
        assert res.cover_weight <= Fraction(9, 2) * 1
        assert verify_cover(g, 5, "cycle", res.cover)

    def test_k4_weight_at_most_five(self):
        g = complete_graph(4)
        res = cover_k_cycles_odd(g, 3)
        assert res.lp_objective == 2
        assert res.ratio_bound == Fraction(5, 2)
        assert res.cover_weight <= 5
        assert verify_cover(g, 3, "cycle", res.cover)

    def test_bipartite_graph_empty_cover(self):
        g = WeightedGraph.build(range(6), [(u, v, 3) for u in (0, 1, 2) for v in (3, 4, 5)])
        for k in (3, 5):
            res = cover_k_cycles_odd(g, k)
            assert res.cover == EdgeSet() and res.cover_weight == 0

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            cover_k_cycles_odd(complete_graph(5), 4)


class TestPickling:
    def test_improved_result_with_parts_round_trip(self):
        # A draw whose threshold and bipartization parts are both non-empty.
        g = random_graph(random.Random(38), 9, 0.5)
        res = cover_k_cycles_odd(g, 5)
        assert res.parts.threshold_edges and res.parts.bipartization_edges
        for copied in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
            assert copied == res and copied is not res
            assert copied.parts == res.parts
            assert copied.parts.bipartition == res.parts.bipartition
            assert copied.solution == res.solution
            assert verify_cover(g, 5, "cycle", copied.cover)


class TestImprovedCliqueCover:
    def test_k4_k3(self):
        g = complete_graph(4)
        res = cover_k_cliques_improved(g, 3)
        assert res.lp_objective == 2
        assert res.ratio_bound == Fraction(5, 2)
        assert res.cover_weight <= 5
        assert verify_cover(g, 3, "clique", res.cover)

    def test_k5_k4(self):
        g = complete_graph(5)
        res = cover_k_cliques_improved(g, 4)
        assert res.ratio_bound == Fraction(11, 2)
        assert res.cover_weight <= Fraction(11, 2) * res.lp_objective
        assert verify_cover(g, 4, "clique", res.cover)

    def test_no_clique_graph(self):
        g = WeightedGraph.build(range(5), [(i, (i + 1) % 5, 2) for i in range(4)] + [(0, 4, 2)])
        res = cover_k_cliques_improved(g, 3)
        assert res.cover == EdgeSet()

    def test_ratio_equals_half_integer_form(self):
        for k in (3, 4, 5):
            res = cover_k_cliques_improved(complete_graph(3), k)
            assert res.ratio_bound == Fraction(k * k - k - 1, 2)


class TestCycleCliqueAgreementAtK3:
    def test_pipelines_agree(self):
        rng = random.Random(2024)
        for _ in range(10):
            g = random_graph(rng, rng.randint(3, 8), 0.6)
            basic_cycle = cover_k_cycles_basic(g, 3)
            basic_clique = cover_k_cliques_basic(g, 3)
            assert basic_cycle.cover == basic_clique.cover
            assert basic_cycle.lp_objective == basic_clique.lp_objective
            assert basic_cycle.ratio_bound == basic_clique.ratio_bound
            improved_cycle = cover_k_cycles_odd(g, 3)
            improved_clique = cover_k_cliques_improved(g, 3)
            assert improved_cycle.cover == improved_clique.cover
            assert improved_cycle.ratio_bound == improved_clique.ratio_bound


class TestInvariantSweep:
    CASES = [
        ("cycle", 3, cover_k_cycles_basic, False),
        ("cycle", 3, cover_k_cycles_odd, True),
        ("cycle", 5, cover_k_cycles_odd, True),
        ("clique", 3, cover_k_cliques_improved, True),
        ("clique", 4, cover_k_cliques_basic, False),
        ("clique", 4, cover_k_cliques_improved, True),
    ]

    def test_all_invariants_on_random_graphs(self):
        rng = random.Random(555)
        for trial in range(12):
            g = random_graph(rng, rng.randint(4, 9), rng.choice([0.4, 0.7]))
            for kind, k, algorithm, improved in self.CASES:
                res = algorithm(g, k)
                assert verify_cover(g, k, kind, res.cover)
                assert Fraction(res.cover_weight) <= res.ratio_bound * res.lp_objective
                assert res.cover_weight == total_weight(g, res.cover)
                if not improved:
                    assert res.parts is None
                    continue
                parts = res.parts
                assert parts is not None
                t = k if kind == "cycle" else k * (k - 1) // 2
                lo, hi = Fraction(1, 2 * t - 1), Fraction(2, 2 * t - 1)
                for e in parts.residual_edges:
                    assert lo <= res.solution.values[e] < hi
                assert not (parts.threshold_edges & parts.bipartization_edges)
                assert parts.bipartization_edges.issubset(parts.residual_edges)
                remaining = remove_edges(g, parts.threshold_edges).edge_set()
                assert parts.residual_edges.issubset(remaining)
                span_total = sum(g.weight(e) for e in parts.residual_edges)
                cut_total = sum(g.weight(e) for e in parts.bipartition.cut_edges)
                assert 2 * cut_total >= span_total
                assert res.cover == parts.threshold_edges | parts.bipartization_edges


class TestPrecomputedSolution:
    def test_injected_solution_reused(self):
        g = complete_graph(4)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        sol = solve_covering_lp(m, g)
        direct = cover_k_cycles_basic(g, 3)
        injected = cover_k_cycles_basic(g, 3, solution=sol)
        assert direct == injected
        improved = cover_k_cycles_odd(g, 3, solution=sol)
        assert improved.cover == cover_k_cycles_odd(g, 3).cover

    def test_bogus_injected_solution_rejected(self):
        g = complete_graph(4)
        bogus = FractionalSolution(g.edges, 1, (1,) * g.edge_count, Fraction(6), 4, 1, (), ())
        with pytest.raises(ValueError):
            cover_k_cycles_basic(g, 3, solution=bogus)


class TestCertificateChecks:
    """Each check behind the roundings rejects its kind of bad answer."""

    def test_check_cover_rejects_bad_results(self):
        problem = CoveringProblem(complete_graph(5), 3, "cycle")
        res = round_basic(problem)
        check_cover(problem, res)
        missing = replace(res, cover=res.cover - problem.structures[0].edges)
        with pytest.raises(CertificateError, match="rounded cover is infeasible"):
            check_cover(problem, missing)
        heavy = replace(res, cover_weight=floor(res.ratio_bound * res.lp_objective) + 1)
        with pytest.raises(CertificateError, match="ratio certificate violated"):
            check_cover(problem, heavy)

    def test_check_improved_parts_rejects_bad_parts(self):
        # K5's optimum is 1/3 on every edge: nothing reaches 2/5, so every
        # edge is residual and the span is K5 itself.
        problem = CoveringProblem(complete_graph(5), 3, "cycle")
        g, sol, parts = problem.g, problem.solve(), round_improved(problem).parts
        picked, removed, residual = (parts.threshold_edges, parts.bipartization_edges,
                                     parts.residual_edges)
        span = edge_induced_subgraph(g, residual)
        check_improved_parts(g, sol, 3, picked, removed, residual, span)
        low = replace(sol, value_nums=(0, *sol.value_nums[1:]))
        with pytest.raises(CertificateError,
                           match=re.escape("residual edge value outside [1/(2t-1), 2/(2t-1))")):
            check_improved_parts(g, low, 3, picked, removed, residual, span)
        one = EdgeSet(removed.edges[:1])
        with pytest.raises(CertificateError, match="bipartization removed a picked edge"):
            check_improved_parts(g, sol, 3, one, removed, residual, span)
        with pytest.raises(CertificateError, match="bipartization removed a non-residual edge"):
            check_improved_parts(g, sol, 3, picked, removed, residual - one, span)
        with pytest.raises(CertificateError,
                           match="bipartization left the survivors' span non-bipartite"):
            check_improved_parts(g, sol, 3, picked, EdgeSet(), residual, span)

    def test_check_half_cut_rejects_light_cut(self):
        g = complete_graph(4)
        check_half_cut(g, bipartize_half_weight(g).cut_edges)
        with pytest.raises(CertificateError, match="cut carries less than half the weight"):
            check_half_cut(g, EdgeSet(g.edges[:2]))
