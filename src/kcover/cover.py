"""Threshold-rounding covering algorithms with certified approximation ratios.

Two pipelines, each for cycles and for cliques:

* basic: solve the covering LP and keep every edge whose value reaches
  1/t, where t is the number of edges in one structure (t = k for cycles,
  t = k(k-1)/2 for cliques).  Certified ratio t.
* improved: raise the threshold to 2/(2t-1), then destroy the structures
  that survive by two-coloring the subgraph they span and removing the
  non-cut edges, which costs at most half their weight.  Certified ratio
  t - 1/2.  The cycle variant needs odd k: a bipartite graph has no odd
  cycle, while it trivially has no clique on 3 or more vertices.

Both run on a CoveringProblem, which enumerates and solves the LP once;
the public cover_k_* functions build one per call.  Every returned cover is
re-verified and its ratio certificate checked in exact arithmetic before
the result is handed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .certificates import check_cover, check_half_cut, check_improved_parts
from .graph import EdgeSet, WeightedGraph, edge_induced_subgraph, total_weight
from .lp import FractionalSolution
from .structures import DEFAULT_MAX_STRUCTURES, KINDS, CoveringProblem

# Shared by every result, so a kept result holds no copy of them.
_BASIC_NAMES = {kind: f"basic-{kind}" for kind in KINDS}
_IMPROVED_NAMES = {kind: f"improved-{kind}" for kind in KINDS}


@cache
def _basic_ratio(t: int) -> Fraction:
    return Fraction(t)


@cache
def _improved_ratio(t: int) -> Fraction:
    return Fraction(2 * t - 1, 2)


@dataclass(frozen=True, slots=True)
class Bipartition:
    """Two-coloring of a subgraph keeping at least half the weight in the cut."""

    side1: tuple[int, ...]
    side2: tuple[int, ...]
    cut_edges: EdgeSet
    inner_edges: EdgeSet


@dataclass(frozen=True, slots=True)
class CoverParts:
    """Decomposition of an improved-algorithm cover.

    `threshold_edges` are the high-value edges picked by rounding;
    `residual_edges` are the edges of all structures that survived the
    rounding step; `bipartization_edges` are the residual edges removed to
    make the survivors' subgraph two-colorable.
    """

    threshold_edges: EdgeSet
    bipartization_edges: EdgeSet
    residual_edges: EdgeSet
    bipartition: Bipartition


@dataclass(frozen=True, slots=True)
class CoverResult:
    """A feasible cover with its LP lower bound and certified ratio."""

    cover: EdgeSet
    cover_weight: int
    lp_objective: Fraction
    ratio_bound: Fraction
    algorithm: str
    solution: FractionalSolution
    parts: CoverParts | None = None


def round_threshold(x: FractionalSolution, theta: Fraction) -> EdgeSet:
    """Edges whose fractional value is at least theta (ties included), compared in ints."""
    if theta <= 0:
        raise ValueError(f"threshold must be positive, got {theta}")
    p, q, d = theta.numerator, theta.denominator, x.value_den
    return EdgeSet(e for e, v in zip(x.edges, x.value_nums) if v * q >= p * d)


def bipartize_half_weight(sub: WeightedGraph) -> Bipartition:
    """Deterministic greedy + single-move local search bipartition.

    Vertices are placed in ascending id order on the side that cuts more
    already-placed weight (ties to side 1); then any single vertex whose
    flip strictly increases the cut weight is moved, rescanning in
    ascending order until no move improves.  At such a local optimum every
    vertex has at least half of its incident weight in the cut, so the cut
    carries at least half of the total weight.
    """
    side: dict[int, int] = {}
    for v in sub.vertices:
        cut_if_side1 = 0
        cut_if_side2 = 0
        for u in sub.neighbors(v):
            if u in side:
                w = sub.weight((u, v))
                if side[u] == 1:
                    cut_if_side1 += w
                else:
                    cut_if_side2 += w
        side[v] = 0 if cut_if_side1 >= cut_if_side2 else 1

    improved = True
    while improved:
        improved = False
        for v in sub.vertices:
            cut = 0
            inner = 0
            for u in sub.neighbors(v):
                w = sub.weight((u, v))
                if side[u] == side[v]:
                    inner += w
                else:
                    cut += w
            if inner > cut:
                side[v] = 1 - side[v]
                improved = True

    cut_edges = EdgeSet(e for e in sub.edges if side[e[0]] != side[e[1]])
    inner_edges = sub.edge_set() - cut_edges
    check_half_cut(sub, cut_edges)
    return Bipartition(
        side1=tuple(v for v in sub.vertices if side[v] == 0),
        side2=tuple(v for v in sub.vertices if side[v] == 1),
        cut_edges=cut_edges,
        inner_edges=inner_edges,
    )


def _certified(
    problem: CoveringProblem,
    sol: FractionalSolution,
    cover: EdgeSet,
    ratio_bound: Fraction,
    algorithm: str,
    parts: CoverParts | None = None,
) -> CoverResult:
    """The result for `cover`, returned only once its feasibility and ratio certificate hold."""
    result = CoverResult(cover, total_weight(problem.g, cover), sol.objective,
                         ratio_bound, algorithm, sol, parts)
    check_cover(problem, result)
    return result


def round_basic(
    problem: CoveringProblem, solution: FractionalSolution | None = None
) -> CoverResult:
    """Threshold 1/t rounding of the problem's LP optimum; certified ratio t."""
    sol = problem.solve(solution)
    t = problem.edges_per_structure
    cover = round_threshold(sol, Fraction(1, t))
    return _certified(problem, sol, cover, _basic_ratio(t), _BASIC_NAMES[problem.kind])


def round_improved(
    problem: CoveringProblem, solution: FractionalSolution | None = None
) -> CoverResult:
    """Threshold 2/(2t-1) rounding plus bipartization; certified ratio t - 1/2.

    The structures that survive the rounding are the problem's rows that
    miss every picked edge, so no second enumeration is needed; their edges
    are read off the union of their row bitmasks, as the graph's own edge
    tuples.
    """
    if problem.kind == "cycle" and problem.k % 2 == 0:
        raise ValueError(
            f"improved cycle covering needs odd k (bipartite graphs can "
            f"still contain even cycles), got k={problem.k}"
        )
    g = problem.g
    sol = problem.solve(solution)
    t = problem.edges_per_structure
    picked = round_threshold(sol, Fraction(2, 2 * t - 1))

    picked_mask = sum(1 << g.edge_index[e] for e in picked)
    residual_mask = 0
    for mask in problem.row_masks:
        if not mask & picked_mask:
            residual_mask |= mask
    residual = EdgeSet(e for i, e in enumerate(g.edges) if residual_mask >> i & 1)
    span = edge_induced_subgraph(g, residual)
    bipartition = bipartize_half_weight(span)
    removed = bipartition.inner_edges
    check_improved_parts(g, sol, t, picked, removed, residual, span)

    parts = CoverParts(
        threshold_edges=picked,
        bipartization_edges=removed,
        residual_edges=residual,
        bipartition=bipartition,
    )
    return _certified(problem, sol, picked | removed, _improved_ratio(t),
                      _IMPROVED_NAMES[problem.kind], parts)


def cover_k_cycles_basic(
    g: WeightedGraph,
    k: int,
    *,
    max_structures: int = DEFAULT_MAX_STRUCTURES,
    solution: FractionalSolution | None = None,
) -> CoverResult:
    """Threshold-rounding k-cycle cover with certified ratio k."""
    return round_basic(CoveringProblem(g, k, "cycle", max_structures), solution)


def cover_k_cycles_odd(
    g: WeightedGraph,
    k: int,
    *,
    max_structures: int = DEFAULT_MAX_STRUCTURES,
    solution: FractionalSolution | None = None,
) -> CoverResult:
    """Improved k-cycle cover with certified ratio k - 1/2; k must be odd."""
    return round_improved(CoveringProblem(g, k, "cycle", max_structures), solution)


def cover_k_cliques_basic(
    g: WeightedGraph,
    k: int,
    *,
    max_structures: int = DEFAULT_MAX_STRUCTURES,
    solution: FractionalSolution | None = None,
) -> CoverResult:
    """Threshold-rounding k-clique cover with certified ratio k(k-1)/2."""
    return round_basic(CoveringProblem(g, k, "clique", max_structures), solution)


def cover_k_cliques_improved(
    g: WeightedGraph,
    k: int,
    *,
    max_structures: int = DEFAULT_MAX_STRUCTURES,
    solution: FractionalSolution | None = None,
) -> CoverResult:
    """Improved k-clique cover with certified ratio (k^2 - k - 1)/2."""
    return round_improved(CoveringProblem(g, k, "clique", max_structures), solution)
