"""Weighted simple graphs, edge-set algebra, and the edge-list file format.

Graphs are undirected, loop-free, with positive integer edge weights.
Instances are immutable after construction and safe to share.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

Edge = tuple[int, int]

# Largest vertex count an edge-list document may declare; the parser
# materialises every vertex, so a larger header is rejected up front.
MAX_VERTICES = 1_000_000


class GraphFormatError(ValueError):
    """Malformed edge-list document; knows which line failed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _canonical(pair: tuple[int, int]) -> Edge:
    """`pair` itself when it is already a canonical edge tuple, else its (min, max) form."""
    u, v = pair
    if u < v and type(pair) is tuple:
        return pair
    return normalize_edge(u, v)


class EdgeSet:
    """Immutable set of undirected edges with sorted, deterministic iteration.

    The sorted tuple of canonical edges is the only stored form: membership
    is a binary search, and the set algebra builds temporary sets.
    """

    __slots__ = ("edges",)

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "edges", tuple(sorted({_canonical(p) for p in pairs})))

    def __setattr__(self, name, value):
        raise AttributeError("EdgeSet is immutable")

    def __reduce__(self):
        # The default slot restore would write through __setattr__.
        return EdgeSet, (self.edges,)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge: tuple[int, int]) -> bool:
        u, v = edge
        e = (u, v) if u < v else (v, u)
        edges = self.edges
        i = bisect_left(edges, e)
        return i < len(edges) and edges[i] == e

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        # Immutable, so a union with an empty side can be the other operand.
        if not other.edges:
            return self
        if not self.edges:
            return other
        return EdgeSet(set(self.edges).union(other.edges))

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        return EdgeSet(set(self.edges).intersection(other.edges))

    def __sub__(self, other: "EdgeSet") -> "EdgeSet":
        return EdgeSet(set(self.edges).difference(other.edges))

    def issubset(self, other: "EdgeSet") -> bool:
        return set(other.edges).issuperset(self.edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeSet) and self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        return f"EdgeSet({list(self.edges)!r})"


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with positive integer edge weights.

    `vertices` is a sorted tuple of vertex ids, `edges` a lexicographically
    sorted tuple of (u, v) pairs with u < v, and `weights` runs parallel to
    `edges`.  Use :meth:`build` rather than the raw constructor so the
    invariants (no loops, no duplicates, declared endpoints, weights >= 1)
    are checked.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    weights: tuple[int, ...]

    @classmethod
    def build(
        cls,
        vertices: Iterable[int],
        weighted_edges: Iterable[tuple[int, int, int]],
    ) -> "WeightedGraph":
        vs = tuple(sorted(set(vertices)))
        vset = set(vs)
        seen: dict[Edge, int] = {}
        for u, v, w in weighted_edges:
            e = normalize_edge(u, v)
            if e[0] not in vset or e[1] not in vset:
                raise ValueError(f"edge {e} has an undeclared endpoint")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ValueError(f"edge {e} has non-positive weight {w!r}")
            seen[e] = w
        ordered = tuple(sorted(seen))
        return cls(vs, ordered, tuple(seen[e] for e in ordered))

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in nbrs.items()}

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Position of each edge in the deterministic edge order; the graph's only edge map."""
        return {e: i for i, e in enumerate(self.edges)}

    def weight(self, edge: tuple[int, int]) -> int:
        e = normalize_edge(*edge)
        try:
            return self.weights[self.edge_index[e]]
        except KeyError:
            raise ValueError(f"edge {e} not in graph") from None

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_index  # a loop is never a key

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def edge_set(self) -> EdgeSet:
        return EdgeSet(self.edges)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def complete_graph(n: int, weight: int = 1) -> WeightedGraph:
    """K_n with a uniform edge weight."""
    edges = [(u, v, weight) for u in range(n) for v in range(u + 1, n)]
    return WeightedGraph.build(range(n), edges)


def _scan_edge_list(text: str, shape: str) -> tuple[int, list[tuple[int, ...]]]:
    """Vertex count and validated rows of an edge-list document.

    `shape` names the fields of a row: "u v w" for graphs, "u v" for
    cover files.  Every row has 0 <= u < v < n, no row repeats an edge, and
    a weight w, when present, is at least 1.
    """
    fields = len(shape.split())
    n: int | None = None
    rows: list[tuple[int, ...]] = []
    seen: set[Edge] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphFormatError(line_no, f"expected vertex count, got {line!r}")
            if n < 0:
                raise GraphFormatError(line_no, f"negative vertex count {n}")
            if n > MAX_VERTICES:
                raise GraphFormatError(line_no, f"vertex count {n} exceeds cap {MAX_VERTICES}")
            continue
        parts = line.split()
        if len(parts) != fields:
            raise GraphFormatError(line_no, f"expected '{shape}', got {line!r}")
        try:
            row = tuple(int(p) for p in parts)
        except ValueError:
            raise GraphFormatError(line_no, f"non-integer field in {line!r}")
        u, v = row[:2]
        if u == v:
            raise GraphFormatError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < v < n):
            raise GraphFormatError(line_no, f"edge ({u}, {v}) violates 0 <= u < v < {n}")
        if fields == 3 and row[2] < 1:
            raise GraphFormatError(line_no, f"non-positive weight {row[2]}")
        if (u, v) in seen:
            raise GraphFormatError(line_no, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        rows.append(row)
    if n is None:
        raise GraphFormatError(1, "empty document: missing vertex count")
    return n, rows


def parse_graph(text: str) -> WeightedGraph:
    """Parse the edge-list format.

    First significant line is the vertex count n; every following line is
    "u v w" with 0 <= u < v < n and integer w >= 1.  Lines starting with
    '#' are comments.  Errors report the offending line number.
    """
    n, rows = _scan_edge_list(text, "u v w")
    return WeightedGraph.build(range(n), rows)


def _document(n: int, edges: tuple[Edge, ...], rows: Iterable[str]) -> str:
    """The edge-list document of `rows`; ValueError unless the parsers accept it."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} is outside 0..{MAX_VERTICES}")
    if bad := [(u, v) for u, v in edges if u < 0 or v >= n]:
        raise ValueError(f"edges {bad} violate 0 <= u < v < {n}")
    return "\n".join([str(n), *rows]) + "\n"


def serialize_graph(g: WeightedGraph) -> str:
    """Emit the canonical edge-list document (edges sorted lexicographically).

    The document declares a vertex count n and parses back with vertices
    0 .. n - 1, so only a graph on exactly those vertices is written.
    """
    n = len(g.vertices)
    if n and g.vertices[0] < 0:
        raise ValueError(f"vertex {g.vertices[0]} is negative")
    if n and g.vertices[-1] != n - 1:
        raise ValueError(f"the {n} vertices are not 0..{n - 1} (the largest is {g.vertices[-1]})")
    return _document(n, g.edges, (f"{u} {v} {w}" for (u, v), w in zip(g.edges, g.weights)))


def parse_edge_set(text: str) -> tuple[int, EdgeSet]:
    """Parse a cover file: edge-list format without the weight column."""
    n, rows = _scan_edge_list(text, "u v")
    return n, EdgeSet(rows)


def serialize_edge_set(n: int, s: EdgeSet) -> str:
    return _document(n, s.edges, (f"{u} {v}" for u, v in s))


def _foreign_edges(g: WeightedGraph, s: EdgeSet) -> list[Edge]:
    """The edges of `s` that `g` lacks, in sorted order."""
    return [e for e in s if e not in g.edge_index]


def _positions(g: WeightedGraph, s: EdgeSet) -> list[int]:
    """Ascending positions of the edges of `s` in `g`; ValueError if `g` lacks any."""
    if extra := _foreign_edges(g, s):
        raise ValueError(f"edges not in graph: {extra}")
    return [g.edge_index[e] for e in s]


def _subgraph(g: WeightedGraph, vertices: tuple[int, ...], positions: list[int]) -> WeightedGraph:
    # g's own edge tuples and weights, so build's checks hold already.
    return WeightedGraph(vertices, tuple(g.edges[i] for i in positions),
                         tuple(g.weights[i] for i in positions))


def remove_edges(g: WeightedGraph, s: EdgeSet) -> WeightedGraph:
    """Graph on the same vertices with the edges of `s` deleted."""
    drop = set(_positions(g, s))
    return _subgraph(g, g.vertices, [i for i in range(g.edge_count) if i not in drop])


def edge_induced_subgraph(g: WeightedGraph, s: EdgeSet) -> WeightedGraph:
    """Subgraph whose vertices are the endpoints of `s` and whose edges are `s`.

    The empty edge set yields the empty graph; isolated vertices are dropped.
    """
    return _subgraph(g, tuple(sorted({u for e in s for u in e})), _positions(g, s))


def total_weight(g: WeightedGraph, s: EdgeSet) -> int:
    """Sum of the weights of `s`; zero for the empty set."""
    return sum(g.weight(e) for e in s)


def two_coloring(g: WeightedGraph) -> dict[int, int] | None:
    """BFS two-coloring; returns vertex -> {0, 1} or None if not bipartite."""
    color: dict[int, int] = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return color
