"""Enumeration of k-cycles and k-cliques, incidence rows, cover checking, and
CoveringProblem, which owns all of them (and the LP optimum) for one instance.

Every structure is carried in a canonical form so enumeration output is
deterministic: a clique is its sorted vertex tuple; a cycle is rotated to
start at its smallest vertex and oriented so the second vertex is smaller
than the last.  The DFS enumerators generate each structure exactly once,
in ascending order, from one explicit stack per root vertex, so k has no
upper limit.  An incidence row maps a structure's canonical vertex pairs
straight through the graph's edge_index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from . import lp
from .certificates import check_lp_certificate
from .graph import Edge, EdgeSet, WeightedGraph, normalize_edge, remove_edges

DEFAULT_MAX_STRUCTURES = 1_000_000

KINDS = ("cycle", "clique")


class EnumerationCapError(RuntimeError):
    """Structure count exceeded the configured cap; results would be incomplete."""

    def __init__(self, kind: str, k: int, cap: int):
        super().__init__(
            f"more than {cap} {k}-{kind} structures; raise max_structures to enumerate fully"
        )
        self.kind = kind
        self.k = k
        self.cap = cap


def _check_k(k: int) -> None:
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _edge_pairs(kind: str, vs: tuple[int, ...]) -> list[Edge]:
    """The canonical (min, max) vertex pairs of the structure on `vs`."""
    if kind == "cycle":
        return [normalize_edge(vs[i - 1], vs[i]) for i in range(len(vs))]
    return [normalize_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]


@dataclass(frozen=True)
class EdgeStructure:
    """A k-cycle or k-clique in canonical vertex order."""

    kind: str
    vertices: tuple[int, ...]

    @property
    def edges(self) -> EdgeSet:
        return EdgeSet(_edge_pairs(self.kind, self.vertices))


def _iter_k_cycle_tuples(g: WeightedGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Simple cycles of length exactly k, one canonical tuple per cycle.

    Paths grow only from each cycle's minimum vertex and only through larger
    vertices, closing back to the root at depth k; orientation is fixed by
    requiring the second vertex to be smaller than the last.  A root needs
    at least k-1 larger vertices, so the last k-1 vertices start no path.
    """
    neighbors, has_edge = g.neighbors, g.has_edge
    for root in g.vertices[: max(0, g.vertex_count - k + 1)]:
        stack = [(root,)]
        while stack:
            path = stack.pop()
            ends = neighbors(path[-1])
            if len(path) < k - 1:  # pushed in reverse, popped in ascending order
                stack.extend(path + (v,) for v in reversed(ends) if v > root and v not in path)
                continue
            for v in ends:
                if v > path[1] and v not in path and has_edge(v, root):
                    yield path + (v,)


def _iter_k_clique_tuples(g: WeightedGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Vertex sets of k-cliques in lexicographic order.

    Ordered DFS: a clique is only extended by vertices larger than its
    current maximum and adjacent to every member, while enough remain.
    """
    neighbors, has_edge = g.neighbors, g.has_edge
    for root in g.vertices[: max(0, g.vertex_count - k + 1)]:
        stack = [((root,), [u for u in neighbors(root) if u > root])]
        while stack:
            clique, cands = stack.pop()
            need = k - len(clique)
            if need == 1:
                yield from (clique + (v,) for v in cands)
                continue
            for i in range(len(cands) - need, -1, -1):  # reversed, as for cycles
                v = cands[i]
                stack.append((clique + (v,), [u for u in cands[i + 1 :] if has_edge(u, v)]))


def _structure_iterator(g: WeightedGraph, k: int, kind: str) -> Iterator[tuple[int, ...]]:
    if kind == "cycle":
        return _iter_k_cycle_tuples(g, k)
    return _iter_k_clique_tuples(g, k)


def _enumerate(
    g: WeightedGraph, k: int, kind: str, max_structures: int
) -> list[EdgeStructure]:
    _check_k(k)
    _check_kind(kind)
    out: list[tuple[int, ...]] = []
    for tup in _structure_iterator(g, k, kind):
        if len(out) >= max_structures:
            raise EnumerationCapError(kind, k, max_structures)
        out.append(tup)
    out.sort()
    return [EdgeStructure(kind, tup) for tup in out]


def enumerate_k_cycles(
    g: WeightedGraph, k: int, max_structures: int = DEFAULT_MAX_STRUCTURES
) -> list[EdgeStructure]:
    """All simple cycles of length exactly k, sorted by canonical key."""
    return _enumerate(g, k, "cycle", max_structures)


def enumerate_k_cliques(
    g: WeightedGraph, k: int, max_structures: int = DEFAULT_MAX_STRUCTURES
) -> list[EdgeStructure]:
    """All complete subgraphs on exactly k vertices, sorted by canonical key."""
    return _enumerate(g, k, "clique", max_structures)


def complete_graph_structure_count(n: int, k: int, kind: str, cap: int) -> int:
    """The number of k-structures of K_n, or cap + 1 once it is known to exceed cap.

    Closed forms: C(n, k) cliques and C(n, k)(k-1)!/2 = n!/((n-k)! 2k)
    cycles.  The running products stop as soon as they pass the cap, so a
    huge n or k costs a few steps rather than a huge integer.
    """
    _check_k(k)
    _check_kind(kind)
    if k > n:
        return 0
    if kind == "clique":
        count = 1
        for j in range(1, min(k, n - k) + 1):  # C(n, j) grows while j <= n/2
            count = count * (n - j + 1) // j
            if count > cap:
                return cap + 1
        return count
    falling = 1
    for j in range(k):
        falling *= n - j
        if falling > 2 * k * cap:
            return cap + 1
    return falling // (2 * k)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Structure-edge incidence: rows are structures, columns the graph's edges.

    Entries are implicit; `row_edge_indices[i]` lists the column positions of
    row i's edges in the host graph's deterministic edge order.
    """

    rows: tuple[EdgeStructure, ...]
    columns: tuple[Edge, ...]
    row_edge_indices: tuple[tuple[int, ...], ...]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def column_count(self) -> int:
        return len(self.columns)


def build_incidence(
    g: WeightedGraph, structures: Iterable[EdgeStructure]
) -> IncidenceMatrix:
    """Assemble the constraint matrix for the covering programs."""
    rows = tuple(structures)
    index = g.edge_index
    row_indices = []
    for s in rows:
        pairs = _edge_pairs(s.kind, s.vertices)
        try:
            row_indices.append(tuple(sorted({index[e] for e in pairs})))
        except KeyError:
            foreign = sorted({e for e in pairs if e not in index})
            raise ValueError(f"structure {s.vertices} uses edges not in graph: {foreign}")
    return IncidenceMatrix(rows, g.edges, tuple(row_indices))


def verify_cover(g: WeightedGraph, k: int, kind: str, s: EdgeSet) -> bool:
    """True iff removing `s` from `g` leaves no k-structure of the given kind.

    Re-enumerates the remaining graph with early exit instead of consulting
    any stored incidence rows, so it can serve as an independent check.
    """
    _check_k(k)
    _check_kind(kind)
    h = remove_edges(g, s)
    return next(_structure_iterator(h, k, kind), None) is None


class CoveringProblem:
    """One covering instance (g, k, kind) and everything derived from it.

    The structures, their incidence rows, the rows as edge bitmasks and the
    certified LP optimum are each computed on first use and then kept, so
    the rounding algorithms and the exact oracles run on one problem
    enumerate once and solve the LP once.  Results built from a problem
    never refer back to it.
    """

    def __init__(
        self, g: WeightedGraph, k: int, kind: str, max_structures: int = DEFAULT_MAX_STRUCTURES
    ):
        _check_k(k)
        _check_kind(kind)
        self.g = g
        self.k = k
        self.kind = kind
        self.max_structures = max_structures
        self._solution: lp.FractionalSolution | None = None

    @property
    def edges_per_structure(self) -> int:
        return self.k if self.kind == "cycle" else self.k * (self.k - 1) // 2

    @cached_property
    def structures(self) -> list[EdgeStructure]:
        # Through the public names rather than _enumerate, so tracing that
        # wraps those names (perfbench/spans.py) counts this enumeration.
        enumerate_kind = enumerate_k_cycles if self.kind == "cycle" else enumerate_k_cliques
        return enumerate_kind(self.g, self.k, self.max_structures)

    @cached_property
    def incidence(self) -> IncidenceMatrix:
        return build_incidence(self.g, self.structures)

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Each row's edges as a bitmask over the graph's edge positions."""
        return tuple(sum(1 << e for e in idx) for idx in self.incidence.row_edge_indices)

    def solve(self, solution: lp.FractionalSolution | None = None) -> lp.FractionalSolution:
        """The certified LP optimum, solved at most once.

        A supplied `solution` is not trusted: its certificate is checked
        against this problem's rows before it is kept and returned.
        """
        if solution is None:
            if self._solution is None:
                self._solution = lp.solve_covering_lp(self.incidence, self.g)
        elif solution is not self._solution:
            check_lp_certificate(self.incidence.row_edge_indices, self.g, solution)
            self._solution = solution
        return self._solution

    def is_cover(self, s: EdgeSet) -> bool:
        """Independent check by re-enumeration; see verify_cover."""
        return verify_cover(self.g, self.k, self.kind, s)
