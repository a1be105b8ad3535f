import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from kcover.certificates import CertificateError, check_exact_cover, check_packing
from kcover.exact import (
    UnsolvedInstanceError,
    exact_max_packing,
    exact_min_cover,
    max_packing,
    min_cover,
    sandwich_check,
    turan_graph_edge_count,
    turan_tau_complete,
)
from kcover.graph import EdgeSet, WeightedGraph, complete_graph, total_weight
from kcover.lp import FractionalSolution, solve_covering_lp
from kcover.structures import (
    CoveringProblem,
    EdgeStructure,
    build_incidence,
    enumerate_k_cliques,
    enumerate_k_cycles,
    verify_cover,
)


def random_graph(rng, n, p):
    edges = [
        (u, v, rng.randint(1, 10))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedGraph.build(range(n), edges)


def disjoint_triangles(count):
    """`count` vertex-disjoint unit triangles: a search one level deeper per triangle."""
    return WeightedGraph.build(
        range(3 * count),
        [(3 * i + a, 3 * i + b, 1) for i in range(count) for a, b in ((0, 1), (0, 2), (1, 2))],
    )


# Brute-force oracles over explicit bitmask subsets; independent of the
# branch-and-bound code under test.


def brute_min_cover_weight(g, k, kind):
    enum = enumerate_k_cycles if kind == "cycle" else enumerate_k_cliques
    structures = enum(g, k)
    if not structures:
        return 0
    index = g.edge_index
    masks = []
    for s in structures:
        mask = 0
        for e in s.edges:
            mask |= 1 << index[e]
        masks.append(mask)
    best = None
    for subset in range(1 << g.edge_count):
        if all(mask & subset for mask in masks):
            weight = sum(w for i, w in enumerate(g.weights) if subset >> i & 1)
            if best is None or weight < best:
                best = weight
    return best


def brute_max_packing_count(g, structures):
    index = g.edge_index
    masks = []
    for s in structures:
        mask = 0
        for e in s.edges:
            mask |= 1 << index[e]
        masks.append(mask)
    best = 0
    for subset in range(1 << len(masks)):
        used = 0
        ok = True
        count = 0
        for i, mask in enumerate(masks):
            if subset >> i & 1:
                if used & mask:
                    ok = False
                    break
                used |= mask
                count += 1
        if ok:
            best = max(best, count)
    return best


class TestExactMinCover:
    def test_triangle_both_kinds(self):
        g = complete_graph(3)
        for kind in ("cycle", "clique"):
            res = exact_min_cover(g, 3, kind)
            assert res.solved and res.weight == 1

    def test_k5_triangle_cover_is_four(self):
        g = complete_graph(5)
        res = exact_min_cover(g, 3, "cycle")
        assert res.weight == 4
        # Mantel bound cross-check by exhaustive subset search.
        assert brute_min_cover_weight(g, 3, "cycle") == 4

    def test_k4_single_4clique(self):
        res = exact_min_cover(complete_graph(4), 4, "clique")
        assert res.weight == 1

    def test_no_structures(self):
        g = WeightedGraph.build(range(4), [(0, 1, 5)])
        res = exact_min_cover(g, 3, "cycle")
        assert res.solved and res.weight == 0 and res.cover == EdgeSet()

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(808)
        cases = 0
        while cases < 14:
            g = random_graph(rng, rng.randint(4, 6), rng.choice([0.5, 0.8, 1.0]))
            if g.edge_count > 13:
                continue
            for k, kind in ((3, "cycle"), (4, "cycle"), (3, "clique"), (4, "clique")):
                res = exact_min_cover(g, k, kind)
                assert res.solved
                assert res.weight == brute_min_cover_weight(g, k, kind)
                assert res.cover is not None
                assert verify_cover(g, k, kind, res.cover)
                assert total_weight(g, res.cover) == res.weight
            cases += 1

    def test_shared_cheap_edge_with_tight_upper_bound(self):
        # Two triangles sharing one cheap edge: the LP puts that edge at 1,
        # the bound that x <= 1 would impose, and its dual is y = 1 on one
        # triangle, so A'y meets w on the shared edge; the search bound
        # must still reach the weight-1 cover.
        g = WeightedGraph.build(
            range(4),
            [(0, 1, 1), (0, 2, 10), (1, 2, 10), (0, 3, 10), (1, 3, 10)],
        )
        res = exact_min_cover(g, 3, "cycle")
        assert res.solved and res.weight == 1
        assert res.weight == brute_min_cover_weight(g, 3, "cycle")

    def test_skewed_weights_match_brute_force(self):
        rng = random.Random(515)
        cases = 0
        while cases < 10:
            n = rng.randint(4, 6)
            edges = [
                (u, v, rng.choice([1, 1, 10]))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.9
            ]
            g = WeightedGraph.build(range(n), edges)
            if g.edge_count > 13:
                continue
            for k, kind in ((3, "cycle"), (3, "clique")):
                res = exact_min_cover(g, k, kind)
                assert res.solved
                assert res.weight == brute_min_cover_weight(g, k, kind)
            cases += 1

    def test_lp_never_exceeds_optimum(self):
        rng = random.Random(909)
        for _ in range(10):
            g = random_graph(rng, 7, 0.7)
            structures = enumerate_k_cycles(g, 3)
            res = exact_min_cover(g, 3, "cycle")
            assert res.solved
            if structures:
                sol = solve_covering_lp(build_incidence(g, structures), g)
                assert sol.objective <= res.weight

    def test_budget_exhaustion_reports_unsolved(self):
        g = complete_graph(7)
        res = exact_min_cover(g, 3, "cycle", node_budget=3)
        assert not res.solved
        assert res.status == "unsolved"
        assert res.cover is None and res.weight is None
        assert res.node_count == 4  # the first node past the budget

    # `kcover exact` prints node_count as nodes=; a change to branching or
    # pruning must show up here.
    @pytest.mark.parametrize(
        "g, k, kind, weight, nodes",
        [
            (complete_graph(5), 3, "clique", 4, 22),
            (complete_graph(6), 3, "clique", 6, 76),
            (complete_graph(7), 3, "clique", 9, 248),
            (random_graph(random.Random(2), 8, 0.6), 5, "cycle", 12, 198),
            (random_graph(random.Random(4), 9, 0.5), 5, "cycle", 25, 791),
        ],
        ids=["K5", "K6", "K7", "seed2-n8", "seed4-n9"],
    )
    def test_node_counts_pinned(self, g, k, kind, weight, nodes):
        res = exact_min_cover(g, k, kind)
        assert (res.status, res.weight, res.node_count) == ("optimal", weight, nodes)

    def test_deterministic(self):
        rng = random.Random(3)
        g = random_graph(rng, 7, 0.8)
        assert exact_min_cover(g, 3, "cycle") == exact_min_cover(g, 3, "cycle")


class TestPickling:
    def test_exact_results_round_trip(self):
        results = [
            exact_min_cover(complete_graph(5), 3, "cycle"),
            exact_min_cover(complete_graph(6), 3, "clique", node_budget=1),
            exact_max_packing(complete_graph(7), 3),
        ]
        assert [r.solved for r in results] == [True, False, True]
        for res in results:
            for copied in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
                assert copied == res and copied is not res
        packing = pickle.loads(pickle.dumps(results[2]))
        assert [s.edges for s in packing.cliques] == [s.edges for s in results[2].cliques]


class TestExactMaxPacking:
    def test_k4_single_triangle(self):
        res = exact_max_packing(complete_graph(4), 3)
        assert res.solved and res.count == 1

    def test_k6_four_triangles(self):
        g = complete_graph(6)
        res = exact_max_packing(g, 3)
        assert res.count == 4
        # Oracle: no 5 of the 20 triangles are pairwise edge-disjoint, but
        # some 4 are; exhaustive scan over all C(20,5) and C(20,4) families.
        cliques = enumerate_k_cliques(g, 3)
        index = g.edge_index
        masks = []
        for s in cliques:
            mask = 0
            for e in s.edges:
                mask |= 1 << index[e]
            masks.append(mask)

        def exists_disjoint_family(size):
            for family in combinations(masks, size):
                used = 0
                for mask in family:
                    if used & mask:
                        break
                    used |= mask
                else:
                    return True
            return False

        assert not exists_disjoint_family(5)
        assert exists_disjoint_family(4)

    def test_k7_fano_packing_is_perfect(self):
        g = complete_graph(7)
        res = exact_max_packing(g, 3)
        assert res.count == 7
        # 21 unit edges / 3 edges per triangle caps the packing at 7, and the
        # Fano triples witness that 7 is reachable.
        fano = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5), (1, 5, 6), (0, 2, 6)]
        used = set()
        for a, b, c in fano:
            for e in ((a, b), (a, c), (b, c)):
                e = (min(e), max(e))
                assert g.has_edge(*e) and e not in used
                used.add(e)
        assert len(used) == 21
        # Every edge of K7 is used by the returned packing as well.
        assert res.cliques is not None
        covered = EdgeSet()
        for s in res.cliques:
            covered = covered | s.edges
        assert covered == g.edge_set()

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(606)
        cases = 0
        while cases < 12:
            g = random_graph(rng, rng.randint(4, 7), rng.choice([0.5, 0.8]))
            if len(enumerate_k_cliques(g, 3)) > 12:
                continue
            res = exact_max_packing(g, 3)
            assert res.solved
            assert res.count == brute_max_packing_count(g, enumerate_k_cliques(g, 3))
            cases += 1

    def test_cycle_packing_matches_brute_force(self):
        # max_packing packs the problem's own structures, cycles included.
        rng = random.Random(707)
        graphs = [complete_graph(5)]
        graphs += [random_graph(rng, rng.randint(4, 7), rng.choice([0.5, 0.8])) for _ in range(12)]
        counts = []
        for g in graphs:
            for k in (3, 4, 5):
                cycles = enumerate_k_cycles(g, k)
                if len(cycles) > 15:
                    continue
                res = max_packing(CoveringProblem(g, k, "cycle"))
                assert res.solved
                assert res.count == brute_max_packing_count(g, cycles)
                assert all(s.kind == "cycle" and len(s.vertices) == k for s in res.cliques)
                counts.append(res.count)
        assert len(counts) >= 20 and max(counts) >= 2

    def test_packing_edge_bound(self):
        g = complete_graph(6)
        res = exact_max_packing(g, 4)
        assert res.solved
        assert res.count <= g.edge_count // 6

    def test_budget_exhaustion(self):
        res = exact_max_packing(complete_graph(7), 3, node_budget=2)
        assert not res.solved
        assert res.cliques is None and res.count is None
        assert res.node_count == 3  # the first node past the budget

    # `kcover pack` prints node_count as nodes=, as `kcover exact` does.
    @pytest.mark.parametrize(
        "g, k, kind, count, nodes",
        [
            (complete_graph(5), 3, "clique", 2, 17),
            (complete_graph(6), 3, "clique", 4, 29),
            (complete_graph(7), 3, "clique", 7, 15),
            (complete_graph(8), 3, "clique", 8, 2233),
            (complete_graph(9), 3, "clique", 12, 65),
            (complete_graph(6), 4, "clique", 1, 21),
            (complete_graph(6), 5, "cycle", 2, 199),
            (complete_graph(7), 5, "cycle", 3, 7935),
        ],
        ids=["K5", "K6", "K7", "K8", "K9", "K6-K4s", "K6-C5s", "K7-C5s"],
    )
    def test_node_counts_pinned(self, g, k, kind, count, nodes):
        res = max_packing(CoveringProblem(g, k, kind))
        assert (res.status, res.count, res.node_count) == ("optimal", count, nodes)

    @pytest.mark.parametrize(
        "structure",
        [
            EdgeStructure("clique", (3, 4, 5)),  # 3-5 and 4-5 are not edges
            EdgeStructure("cycle", (0, 1, 2)),  # the other kind
            EdgeStructure("clique", (0, 1)),  # k - 1 vertices
        ],
        ids=["foreign edges", "wrong kind", "wrong k"],
    )
    def test_check_packing_rejects_foreign_structures(self, structure):
        g = WeightedGraph.build(range(6), [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1)])
        problem = CoveringProblem(g, 3, "clique")
        check_packing(problem, (EdgeStructure("clique", (0, 1, 2)),))
        with pytest.raises(CertificateError, match="not in the problem"):
            check_packing(problem, (structure,))


class TestPostChecks:
    """The checks behind both oracles reject each kind of bad answer."""

    def test_check_exact_cover_rejects_bad_answers(self):
        problem = CoveringProblem(complete_graph(4), 3, "cycle")
        res = min_cover(problem)
        cover, weight, lp_objective = res.cover, res.weight, problem.solve().objective
        check_exact_cover(problem, cover, weight, lp_objective)
        with pytest.raises(CertificateError, match="exact cover weight mismatch"):
            check_exact_cover(problem, cover, weight + 1, lp_objective)
        with pytest.raises(CertificateError, match="LP bound exceeds exact optimum"):
            check_exact_cover(problem, cover, weight, weight + Fraction(1, 2))
        short = EdgeSet(cover.edges[1:])
        with pytest.raises(CertificateError, match="exact cover is infeasible"):
            check_exact_cover(problem, short, total_weight(problem.g, short), 0)

    def test_check_packing_rejects_shared_edge(self):
        problem = CoveringProblem(complete_graph(4), 3, "clique")
        sharing = (EdgeStructure("clique", (0, 1, 2)), EdgeStructure("clique", (0, 1, 3)))
        with pytest.raises(CertificateError, match="packing shares an edge"):
            check_packing(problem, sharing)


class TestDeepInstances:
    """1,100 disjoint triangles put the optimum 1,100 levels down, past Python's 1,000 frames."""

    COUNT = 1100

    def test_packing(self):
        res = exact_max_packing(disjoint_triangles(self.COUNT), 3)
        assert (res.status, res.count) == ("optimal", self.COUNT)

    def test_cover(self):
        problem = CoveringProblem(disjoint_triangles(self.COUNT), 3, "clique")
        # The optimal LP answer by hand, so the test skips the LP: x = 1 on
        # each triangle's first edge and y = 1 on every triangle.
        xs = [1 if u % 3 == 0 and v == u + 1 else 0 for u, v in problem.g.edges]
        problem.solve(FractionalSolution(
            edges=problem.g.edges, value_den=1, value_nums=tuple(xs),
            objective=Fraction(self.COUNT), row_count=self.COUNT,
            dual_den=1, dual_rows=tuple(range(self.COUNT)), dual_nums=(1,) * self.COUNT,
        ))
        res = min_cover(problem)
        assert (res.status, res.weight) == ("optimal", self.COUNT)


class TestSandwich:
    def test_k7_values(self):
        assert sandwich_check(complete_graph(7), 3) == (7, 9, True)

    def test_k4_with_k4_cliques(self):
        assert sandwich_check(complete_graph(4), 4) == (1, 1, True)

    def test_triangle_free(self):
        g = WeightedGraph.build(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert sandwich_check(g, 3) == (0, 0, True)

    def test_weights_are_ignored(self):
        g = WeightedGraph.build(range(3), [(0, 1, 10), (0, 2, 10), (1, 2, 10)])
        nu, tau, ok = sandwich_check(g, 3)
        assert (nu, tau, ok) == (1, 1, True)

    def test_unsolved_propagates(self):
        with pytest.raises(UnsolvedInstanceError):
            sandwich_check(complete_graph(7), 3, node_budget=2)

    def test_inequality_on_random_graphs(self):
        rng = random.Random(112)
        for _ in range(10):
            g = random_graph(rng, rng.randint(4, 7), 0.7)
            nu, tau, ok = sandwich_check(g, 3)
            assert ok
            assert nu <= tau <= 3 * nu


class TestTuran:
    def test_reference_values(self):
        assert turan_tau_complete(5, 3) == 4
        assert turan_tau_complete(4, 4) == 1
        assert turan_tau_complete(7, 3) == 9

    def test_below_k_is_zero(self):
        assert turan_tau_complete(2, 3) == 0
        assert turan_tau_complete(4, 5) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="need at least one part"):
            turan_graph_edge_count(5, 0)
        assert turan_graph_edge_count(0, 3) == turan_graph_edge_count(-2, 3) == 0
        with pytest.raises(ValueError, match="k must be at least 3, got 2"):
            turan_tau_complete(5, 2)

    def test_turan_graph_edges_small(self):
        assert turan_graph_edge_count(7, 2) == 12  # K_{3,4}
        assert turan_graph_edge_count(5, 3) == 8  # K_{2,2,1}
        assert turan_graph_edge_count(4, 3) == 5  # K_{2,1,1}

    def test_matches_brute_force_max_kfree_subgraph(self):
        # ex(n; K_k) by exhaustive subset search over K_n's edges, n <= 5.
        for n in range(3, 6):
            g = complete_graph(n)
            for k in range(3, n + 1):
                best = 0
                for subset in range(1 << g.edge_count):
                    kept = [e for i, e in enumerate(g.edges) if subset >> i & 1]
                    sub = WeightedGraph.build(range(n), [(u, v, 1) for u, v in kept])
                    if not enumerate_k_cliques(sub, k):
                        best = max(best, len(kept))
                assert best == turan_graph_edge_count(n, k - 1)
                assert comb(n, 2) - best == turan_tau_complete(n, k)

    def test_oracle_agrees_with_closed_form(self):
        for n in range(3, 8):
            g = complete_graph(n)
            for k in range(3, n + 1):
                res = exact_min_cover(g, k, "clique")
                assert res.solved
                assert res.weight == turan_tau_complete(n, k)
