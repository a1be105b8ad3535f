"""Property tests on random graphs with at most 7 vertices.

Enumeration and cover checking are compared with brute-force oracles that
look at every vertex subset and every ordering of it, sharing no code with
the DFS enumerators.  Incidence rows, the edge-list round trips and the
four rounding algorithms' LP sandwich are checked on the same graphs.
The examples are derandomized, so every run checks the same graphs.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import brute_cliques, brute_cycles
from kcover.cover import (
    cover_k_cliques_basic,
    cover_k_cliques_improved,
    cover_k_cycles_basic,
    cover_k_cycles_odd,
)
from kcover.graph import (
    EdgeSet,
    WeightedGraph,
    parse_edge_set,
    parse_graph,
    serialize_edge_set,
    serialize_graph,
)
from kcover.structures import (
    build_incidence,
    enumerate_k_cliques,
    enumerate_k_cycles,
    verify_cover,
)

MAX_VERTICES = 7

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, MAX_VERTICES))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.integers(1, 10), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v, w) for (u, v), kept, w in zip(pairs, keep, weights) if kept]
    return WeightedGraph.build(range(n), edges)


def without(g, removed):
    return WeightedGraph.build(
        g.vertices, [(u, v, w) for (u, v), w in zip(g.edges, g.weights) if (u, v) not in removed]
    )


@SETTINGS
@given(graphs(), st.integers(3, MAX_VERTICES + 1))
def test_cycles_match_brute_force(g, k):
    assert [s.vertices for s in enumerate_k_cycles(g, k)] == brute_cycles(g, k)


@SETTINGS
@given(graphs(), st.integers(3, MAX_VERTICES + 1))
def test_cliques_match_brute_force(g, k):
    assert [s.vertices for s in enumerate_k_cliques(g, k)] == brute_cliques(g, k)


@SETTINGS
@given(graphs(), st.integers(3, 5), st.sampled_from(["cycle", "clique"]), st.data())
def test_verify_cover_matches_brute_force(g, k, kind, data):
    removed = set(data.draw(st.lists(st.sampled_from(g.edges), unique=True))) if g.edges else set()
    brute = brute_cycles if kind == "cycle" else brute_cliques
    assert verify_cover(g, k, kind, EdgeSet(removed)) == (not brute(without(g, removed), k))


@SETTINGS
@given(graphs(), st.integers(3, 5), st.sampled_from([enumerate_k_cycles, enumerate_k_cliques]))
def test_incidence_rows_are_edge_positions(g, k, enumerate_kind):
    structures = enumerate_kind(g, k)
    m = build_incidence(g, structures)
    assert m.columns == g.edges
    assert m.row_edge_indices == tuple(
        tuple(sorted(g.edge_index[e] for e in s.edges)) for s in structures
    )


@SETTINGS
@given(graphs(), st.data())
def test_edge_list_round_trips(g, data):
    doc = serialize_graph(g)
    assert parse_graph(doc) == g
    assert serialize_graph(parse_graph(doc)) == doc
    picked = EdgeSet(data.draw(st.lists(st.sampled_from(g.edges), unique=True))) if g.edges else EdgeSet()
    n = g.vertex_count
    assert parse_edge_set(serialize_edge_set(n, picked)) == (n, picked)


@SETTINGS
@given(
    graphs(),
    st.sampled_from([
        (cover_k_cycles_basic, 3), (cover_k_cycles_basic, 4), (cover_k_cycles_odd, 3),
        (cover_k_cycles_odd, 5), (cover_k_cliques_basic, 3), (cover_k_cliques_basic, 4),
        (cover_k_cliques_improved, 3), (cover_k_cliques_improved, 4),
    ]),
)
def test_cover_weight_within_ratio_of_lp(g, algorithm):
    cover, k = algorithm
    res = cover(g, k)
    assert res.lp_objective <= res.cover_weight <= res.ratio_bound * res.lp_objective
