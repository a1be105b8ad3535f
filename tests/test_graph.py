import copy
import pickle
import random

import pytest

from kcover.graph import (
    MAX_VERTICES,
    EdgeSet,
    GraphFormatError,
    WeightedGraph,
    complete_graph,
    edge_induced_subgraph,
    parse_edge_set,
    parse_graph,
    remove_edges,
    serialize_edge_set,
    serialize_graph,
    total_weight,
    two_coloring,
)


def random_graph(rng, n, p, max_weight=10):
    edges = [
        (u, v, rng.randint(1, max_weight))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedGraph.build(range(n), edges)


class TestParse:
    def test_unit_triangle(self):
        g = parse_graph("3\n0 1 1\n1 2 1\n0 2 1")
        assert g.vertices == (0, 1, 2)
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert g.weights == (1, 1, 1)

    def test_single_weighted_edge(self):
        g = parse_graph("2\n0 1 5")
        assert g.edges == ((0, 1),)
        assert g.weight((0, 1)) == 5
        assert g.weight((1, 0)) == 5

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("3\n0 0 1")
        assert exc.value.line_no == 2
        assert "self-loop" in str(exc.value)

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\n\n3\n# edge section\n0 1 2\n")
        assert g.edges == ((0, 1),)

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ("3\n0 1 0", "non-positive weight"),
            ("3\n0 1 -2", "non-positive weight"),
            ("3\n0 1 1\n0 1 3", "duplicate edge"),
            ("3\n1 0 1", "violates"),
            ("3\n0 5 1", "violates"),
            ("3\n0 1", "expected"),
            ("3\n0 1 x", "non-integer"),
            ("x", "vertex count"),
            ("-1\n", "negative vertex count -1"),
            ("", "missing vertex count"),
        ],
    )
    def test_malformed_documents(self, doc, fragment):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(doc)
        assert fragment in str(exc.value)

    def test_error_reports_line_number(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("# c\n4\n0 1 1\n0 2 0\n")
        assert exc.value.line_no == 4

    def test_isolated_vertices_allowed(self):
        g = parse_graph("5\n0 1 1")
        assert g.vertices == (0, 1, 2, 3, 4)

    def test_vertex_count_above_cap_rejected(self):
        for parse in (parse_graph, parse_edge_set):
            with pytest.raises(GraphFormatError, match="exceeds cap") as exc:
                parse(f"# header only\n{MAX_VERTICES + 1}\n")
            assert exc.value.line_no == 2

    def test_zero_vertex_document(self):
        g = parse_graph("0\n")
        assert g.vertices == () and g.edges == ()
        with pytest.raises(GraphFormatError):
            parse_graph("0\n0 1 1\n")


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        rng = random.Random(402)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            doc = serialize_graph(g)
            assert parse_graph(doc) == g
            assert serialize_graph(parse_graph(doc)) == doc

    def test_edge_set_round_trip(self):
        n, s = parse_edge_set("4\n0 1\n2 3\n")
        assert n == 4
        assert s == EdgeSet([(0, 1), (2, 3)])
        assert parse_edge_set(serialize_edge_set(n, s)) == (n, s)

    def test_negative_vertex_not_serialized(self):
        # Written as "4\n-1 0 2\n", a document parse_graph rejects.
        g = WeightedGraph.build([-1, 0, 3], [(-1, 0, 2)])
        with pytest.raises(ValueError, match="vertex -1 is negative"):
            serialize_graph(g)
        with pytest.raises(ValueError, match="vertex -1 is negative"):
            serialize_graph(WeightedGraph.build([-1, 0], []))

    def test_vertex_gap_not_serialized(self):
        # Written as "6\n2 5 1\n", it would parse back with vertices 0..5.
        g = edge_induced_subgraph(complete_graph(6), EdgeSet([(2, 5)]))
        assert g.vertices == (2, 5)
        with pytest.raises(ValueError, match=r"^the 2 vertices are not 0\.\.1 \(the largest is 5\)$"):
            serialize_graph(g)
        with pytest.raises(ValueError, match="vertex -1 is negative"):
            serialize_graph(WeightedGraph.build([-1, 7], []))
        assert serialize_graph(WeightedGraph.build([], [])) == "0\n"

    def test_edge_outside_vertex_count_not_serialized(self):
        for n, s in ((2, EdgeSet([(0, 5)])), (4, EdgeSet([(-2, 1), (0, 1)])), (-1, EdgeSet())):
            with pytest.raises(ValueError):
                serialize_edge_set(n, s)
        with pytest.raises(ValueError, match=r"edges \[\(0, 5\)\] violate 0 <= u < v < 2"):
            serialize_edge_set(2, EdgeSet([(0, 5)]))


class TestEdgeSet:
    def test_normalization_and_order(self):
        s = EdgeSet([(2, 1), (0, 3), (1, 2)])
        assert list(s) == [(0, 3), (1, 2)]
        assert (2, 1) in s and (1, 2) in s
        assert (0, 1) not in s
        assert repr(s) == "EdgeSet([(0, 3), (1, 2)])"

    def test_algebra(self):
        a = EdgeSet([(0, 1), (1, 2)])
        b = EdgeSet([(1, 2), (2, 3)])
        assert a | b == EdgeSet([(0, 1), (1, 2), (2, 3)])
        assert a & b == EdgeSet([(1, 2)])
        assert a - b == EdgeSet([(0, 1)])
        assert (a & b).issubset(a)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            EdgeSet([(1, 1)])

    def test_reversed_pair_membership(self):
        s = EdgeSet([(3, 1), (0, 2)])
        assert (1, 3) in s and (3, 1) in s and (2, 0) in s
        assert (0, 1) not in s and (3, 3) not in s and (9, 0) not in s
        assert (0, 0) not in EdgeSet()

    def test_equality_and_hash_across_orientations(self):
        a = EdgeSet([(0, 1), (2, 1), (3, 0)])
        b = EdgeSet([(1, 2), (0, 3), (1, 0), (2, 1)])
        assert a == b and hash(a) == hash(b)
        assert len(b) == 3
        assert a != EdgeSet([(0, 1), (1, 2)]) and a != a.edges
        assert {a: "x"}[b] == "x"

    def test_algebra_results_are_canonical_edge_sets(self):
        a = EdgeSet([(1, 0), (2, 1), (4, 3)])
        b = EdgeSet([(2, 1), (3, 2), (3, 4)])
        assert (a | b).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert (a & b).edges == ((1, 2), (3, 4))
        assert (a - b).edges == ((0, 1),)
        assert (b - a).edges == ((2, 3),)
        assert (a - a) == EdgeSet() and not (a - a)
        assert (a & b).issubset(b) and not a.issubset(b)
        assert EdgeSet().issubset(a)

    def test_reuses_canonical_edge_tuples(self):
        g = complete_graph(5)
        s = EdgeSet(g.edges)
        assert all(s.edges[i] is g.edges[i] for i in range(g.edge_count))
        assert (s | EdgeSet([(4, 0)])).edges[3] is g.edges[3]
        assert EdgeSet([[0, 1]]).edges == ((0, 1),)

    def test_pickle_and_deepcopy_round_trip(self):
        s = EdgeSet([(3, 1), (0, 2)])
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert copied == s and copied.edges == ((0, 2), (1, 3))
            with pytest.raises(AttributeError):
                copied.edges = ()
        assert pickle.loads(pickle.dumps(EdgeSet())) == EdgeSet()


class TestGraphOps:
    def test_remove_edge_from_triangle(self):
        g = complete_graph(3)
        h = remove_edges(g, EdgeSet([(0, 1)]))
        assert h.vertices == (0, 1, 2)
        assert h.edges == ((0, 2), (1, 2))

    def test_remove_nothing_and_everything(self):
        g = complete_graph(4)
        assert remove_edges(g, EdgeSet()) == g
        empty = remove_edges(g, g.edge_set())
        assert empty.vertices == (0, 1, 2, 3)
        assert empty.edges == ()

    def test_remove_foreign_edge_rejected(self):
        g = complete_graph(3)
        for edit in (remove_edges, edge_induced_subgraph):
            with pytest.raises(ValueError, match=r"edges not in graph: \[\(1, 5\), \(3, 4\)\]"):
                edit(g, EdgeSet([(0, 1), (4, 3), (5, 1)]))

    def test_induced_triangle_of_k4(self):
        g = complete_graph(4)
        tri = EdgeSet([(0, 1), (0, 2), (1, 2)])
        h = edge_induced_subgraph(g, tri)
        assert h.vertices == (0, 1, 2)
        assert h.edge_set() == tri

    def test_induced_by_empty_is_empty_graph(self):
        h = edge_induced_subgraph(complete_graph(4), EdgeSet())
        assert h.vertices == ()
        assert h.edges == ()

    def test_induced_by_matching(self):
        h = edge_induced_subgraph(complete_graph(4), EdgeSet([(0, 1), (2, 3)]))
        assert h.vertices == (0, 1, 2, 3)
        assert h.edges == ((0, 1), (2, 3))

    def test_induced_preserves_weights(self):
        g = WeightedGraph.build(range(3), [(0, 1, 7), (1, 2, 2)])
        h = edge_induced_subgraph(g, EdgeSet([(0, 1)]))
        assert h.weight((0, 1)) == 7

    def test_total_weight(self):
        g = complete_graph(3)
        assert total_weight(g, g.edge_set()) == 3
        assert total_weight(g, EdgeSet()) == 0
        g2 = WeightedGraph.build(range(3), [(0, 1, 2), (0, 2, 3), (1, 2, 7)])
        assert total_weight(g2, g2.edge_set()) == 12

    def test_total_weight_unknown_edge(self):
        with pytest.raises(ValueError):
            total_weight(complete_graph(3), EdgeSet([(0, 5)]))


class TestProperties:
    def test_remove_then_union_recovers_edges(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 9), 0.6)
            sub = EdgeSet(e for e in g.edges if rng.random() < 0.5)
            h = remove_edges(g, sub)
            assert h.edge_set() | sub == g.edge_set()

    def test_total_weight_additive_on_disjoint_sets(self):
        rng = random.Random(8)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 9), 0.7)
            a = EdgeSet(e for e in g.edges if rng.random() < 0.4)
            b = EdgeSet(e for e in g.edge_set() - a if rng.random() < 0.5)
            assert total_weight(g, a | b) == total_weight(g, a) + total_weight(g, b)


class TestBuildValidation:
    def test_rejects_undeclared_endpoint(self):
        with pytest.raises(ValueError):
            WeightedGraph.build([0, 1], [(0, 2, 1)])

    def test_rejects_bad_weights(self):
        for w in (0, -1, 1.5, True):
            with pytest.raises(ValueError):
                WeightedGraph.build([0, 1], [(0, 1, w)])

    def test_rejects_duplicate_even_if_reversed(self):
        with pytest.raises(ValueError):
            WeightedGraph.build([0, 1], [(0, 1, 1), (1, 0, 2)])


class TestTwoColoring:
    def test_even_cycle_bipartite(self):
        g = WeightedGraph.build(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        coloring = two_coloring(g)
        assert coloring is not None
        assert all(coloring[u] != coloring[v] for u, v in g.edges)

    def test_triangle_not_bipartite(self):
        assert two_coloring(complete_graph(3)) is None

    def test_disconnected(self):
        g = WeightedGraph.build(range(5), [(0, 1, 1), (3, 4, 1)])
        assert two_coloring(g) is not None
