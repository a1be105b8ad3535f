import gc
import random
import weakref
from math import comb, factorial

import pytest

from brute_force import brute_cliques, brute_cycles
from kcover.graph import EdgeSet, WeightedGraph, complete_graph, remove_edges
from kcover.structures import (
    CoveringProblem,
    EdgeStructure,
    EnumerationCapError,
    _structure_iterator,
    build_incidence,
    complete_graph_structure_count,
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


class TestCycleEnumeration:
    def test_k4_triangles(self):
        cycles = enumerate_k_cycles(complete_graph(4), 3)
        assert len(cycles) == 4
        assert [c.vertices for c in cycles] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_k4_hamiltonian(self):
        cycles = enumerate_k_cycles(complete_graph(4), 4)
        assert len(cycles) == 3

    def test_path_has_no_cycle(self):
        g = WeightedGraph.build(range(3), [(0, 1, 1), (1, 2, 1)])
        assert enumerate_k_cycles(g, 3) == []

    def test_k_above_vertex_count_starts_no_path(self, monkeypatch):
        calls = []
        neighbors = WeightedGraph.neighbors

        def counting(g, v):
            calls.append(v)
            return neighbors(g, v)

        monkeypatch.setattr(WeightedGraph, "neighbors", counting)
        g = complete_graph(8)
        for k in (9, 10**9):
            assert enumerate_k_cycles(g, k) == []
            assert enumerate_k_cliques(g, k) == []
            assert verify_cover(g, k, "cycle", EdgeSet())
            assert verify_cover(g, k, "clique", EdgeSet())
        assert calls == []

    def test_closed_form_counts_on_complete_graphs(self):
        for n in range(3, 8):
            g = complete_graph(n)
            for k in range(3, n + 1):
                expected = comb(n, k) * factorial(k - 1) // 2
                assert len(enumerate_k_cycles(g, k)) == expected

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            enumerate_k_cycles(complete_graph(4), 2)

    def test_cap_is_hard_error(self):
        with pytest.raises(EnumerationCapError) as exc:
            enumerate_k_cycles(complete_graph(6), 3, max_structures=5)
        assert exc.value.cap == 5

    def test_matches_naive_enumeration(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 8), rng.choice([0.3, 0.6, 0.9]))
            for k in (3, 4, 5):
                ours = [c.vertices for c in enumerate_k_cycles(g, k)]
                assert ours == brute_cycles(g, k)

    def test_canonical_keys_unique_and_sorted(self):
        cycles = enumerate_k_cycles(complete_graph(7), 5)
        keys = [c.vertices for c in cycles]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_cycle_edges_belong_to_graph(self):
        rng = random.Random(5)
        g = random_graph(rng, 8, 0.6)
        for c in enumerate_k_cycles(g, 4):
            assert c.edges.issubset(g.edge_set())
            assert len(c.edges) == 4


class TestCliqueEnumeration:
    def test_k5_four_cliques(self):
        assert len(enumerate_k_cliques(complete_graph(5), 4)) == 5

    def test_square_has_no_triangle(self):
        square = WeightedGraph.build(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert enumerate_k_cliques(square, 3) == []

    def test_k4_minus_edge(self):
        g = remove_edges(complete_graph(4), EdgeSet([(0, 1)]))
        cliques = enumerate_k_cliques(g, 3)
        assert [c.vertices for c in cliques] == [(0, 2, 3), (1, 2, 3)]

    def test_closed_form_counts_on_complete_graphs(self):
        for n in range(3, 8):
            g = complete_graph(n)
            for k in range(3, n + 1):
                assert len(enumerate_k_cliques(g, k)) == comb(n, k)

    def test_matches_naive_enumeration(self):
        rng = random.Random(77)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 9), rng.choice([0.4, 0.7, 0.95]))
            for k in (3, 4):
                ours = [c.vertices for c in enumerate_k_cliques(g, k)]
                assert ours == brute_cliques(g, k)

    def test_clique_edge_count(self):
        for c in enumerate_k_cliques(complete_graph(6), 4):
            assert len(c.edges) == 6


class TestIncidence:
    def test_triangle_single_row(self):
        g = complete_graph(3)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        assert m.row_count == 1
        assert m.row_edge_indices == ((0, 1, 2),)

    def test_empty_rows(self):
        g = complete_graph(3)
        m = build_incidence(g, [])
        assert m.row_count == 0
        assert m.columns == g.edges

    def test_k4_triangle_column_sums(self):
        # Brute-force count: each edge of K4 lies in exactly n-2 = 2 triangles.
        g = complete_graph(4)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        assert m.row_count == 4 and m.column_count == 6
        column_sums = [0] * 6
        for idx in m.row_edge_indices:
            assert len(idx) == 3
            for e in idx:
                column_sums[e] += 1
        naive = [sum(1 for t in brute_cycles(g, 3) if set(edge) <= set(t)) for edge in g.edges]
        assert column_sums == naive == [2] * 6

    def test_foreign_structure_rejected(self):
        g = WeightedGraph.build(range(4), [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        alien = EdgeStructure("cycle", (1, 2, 3))
        with pytest.raises(ValueError) as exc:
            build_incidence(g, [alien])
        assert str(exc.value) == "structure (1, 2, 3) uses edges not in graph: [(1, 3), (2, 3)]"

    def test_rows_of_non_canonical_structures(self):
        # A row lists the positions of s.edges, whatever the vertex order or repeats.
        walk = EdgeStructure("cycle", (0, 1, 0, 2))  # not simple: uses 0-1 and 0-2 twice
        unsorted = EdgeStructure("clique", (2, 1, 0))
        m = build_incidence(complete_graph(4), [walk, unsorted])
        assert m.row_edge_indices == ((0, 1), (0, 1, 3))


class TestVerifyCover:
    def test_triangle_single_edge(self):
        g = complete_graph(3)
        assert verify_cover(g, 3, "cycle", EdgeSet([(0, 1)]))

    def test_k4_matching_covers_triangles(self):
        # Brute force: every triangle of K4 meets any perfect matching.
        g = complete_graph(4)
        matching = EdgeSet([(0, 1), (2, 3)])
        assert all(
            any(e in matching for e in EdgeStructure("cycle", t).edges)
            for t in brute_cycles(g, 3)
        )
        assert verify_cover(g, 3, "cycle", matching)

    def test_k4_adjacent_pair_leaves_triangle(self):
        g = complete_graph(4)
        pair = EdgeSet([(0, 1), (0, 2)])
        survivors = [
            t
            for t in brute_cycles(g, 3)
            if not any(e in pair for e in EdgeStructure("cycle", t).edges)
        ]
        assert survivors == [(1, 2, 3)]
        assert not verify_cover(g, 3, "cycle", pair)

    def test_matches_recount_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 8), 0.6)
            s = EdgeSet(e for e in g.edges if rng.random() < 0.4)
            for k, kind in ((3, "cycle"), (4, "cycle"), (3, "clique")):
                h = remove_edges(g, s)
                oracle_empty = (
                    not brute_cycles(h, k) if kind == "cycle" else not brute_cliques(h, k)
                )
                assert verify_cover(g, k, kind, s) == oracle_empty

    def test_foreign_edges_rejected(self):
        with pytest.raises(ValueError):
            verify_cover(complete_graph(3), 3, "cycle", EdgeSet([(0, 5)]))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            verify_cover(complete_graph(3), 3, "loop", EdgeSet())


def ring(n):
    return WeightedGraph.build(range(n), [(v, (v + 1) % n, 1) for v in range(n)])


class TestLargeK:
    def test_ring_of_1500(self):
        # One path 1500 vertices deep: the enumerators keep it on a stack,
        # not in Python frames.
        g = ring(1500)
        assert [c.vertices for c in enumerate_k_cycles(g, 1500)] == [tuple(range(1500))]
        assert enumerate_k_cliques(g, 1500) == []
        assert not verify_cover(g, 1500, "cycle", EdgeSet())
        assert verify_cover(g, 1500, "cycle", EdgeSet([(0, 1)]))
        assert CoveringProblem(g, 1500, "cycle").solve().objective == 1


OLD_MAX_K = 500  # the limit on k the recursive enumerators needed; now gone


def two_rings(n):
    # Two disjoint n-cycles: exactly two n-cycles, no clique above k = 3.
    edges = [(v, (v + 1) % n, 1) for v in range(n)]
    edges += [(n + v, n + (v + 1) % n, 1) for v in range(n)]
    return WeightedGraph.build(range(2 * n), edges)


class TestMaxK:
    def test_k_above_cap_rejected(self):
        # Above the old limit, k itself is accepted; what is still rejected
        # is a structure count over max_structures.
        k = OLD_MAX_K + 1
        g = two_rings(k)
        cycles = [c.vertices for c in enumerate_k_cycles(g, k)]
        assert cycles == [tuple(range(k)), tuple(range(k, 2 * k))]
        assert enumerate_k_cliques(g, k) == []
        assert not verify_cover(g, k, "cycle", EdgeSet([(0, 1)]))
        assert verify_cover(g, k, "cycle", EdgeSet([(0, 1), (k, k + 1)]))
        calls = [
            lambda: enumerate_k_cycles(g, k, max_structures=1),
            lambda: CoveringProblem(g, k, "cycle", max_structures=1).structures,
        ]
        for call in calls:
            with pytest.raises(EnumerationCapError) as exc:
                call()
            assert (exc.value.kind, exc.value.k, exc.value.cap) == ("cycle", k, 1)
        assert CoveringProblem(g, 3 * OLD_MAX_K, "cycle").structures == []

    def test_k_at_cap_enumerates(self):
        g = ring(OLD_MAX_K)
        assert [c.vertices for c in enumerate_k_cycles(g, OLD_MAX_K)] == [tuple(range(OLD_MAX_K))]
        assert not verify_cover(g, OLD_MAX_K, "cycle", EdgeSet())
        assert verify_cover(g, OLD_MAX_K, "cycle", EdgeSet([(0, 1)]))


class TestStructureIterator:
    @pytest.mark.parametrize("kind", ["cycle", "clique"])
    def test_ascending_and_complete(self, kind):
        brute = brute_cycles if kind == "cycle" else brute_cliques
        rng = random.Random(2025)
        for _ in range(12):
            g = random_graph(rng, rng.randint(3, 9), rng.choice([0.5, 0.8, 1.0]))
            for k in range(3, 7):
                found = list(_structure_iterator(g, k, kind))
                assert all(a < b for a, b in zip(found, found[1:]))
                assert found == brute(g, k)


class TestCompleteGraphCount:
    @pytest.mark.parametrize("kind", ["cycle", "clique"])
    def test_k_above_n_is_zero(self, kind):
        assert complete_graph_structure_count(4, 5, kind, 10) == 0
        assert complete_graph_structure_count(0, 3, kind, 0) == 0


class TestNoReferenceCycles:
    def test_graph_dies_at_del(self):
        # Enumeration and cover checks leave no cyclic garbage holding the
        # graph (and its cached edge index and adjacency) alive.
        gc.collect()
        gc.disable()
        try:
            g = complete_graph(6)
            alive = weakref.ref(g)
            assert len(enumerate_k_cycles(g, 5)) == 72
            assert len(enumerate_k_cliques(g, 3)) == 20
            assert not verify_cover(g, 3, "cycle", EdgeSet([(0, 1)]))
            assert verify_cover(g, 4, "clique", g.edge_set())
            del g
            assert alive() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
