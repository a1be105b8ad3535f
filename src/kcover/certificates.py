"""Every certificate the solvers hand back is checked here, in exact arithmetic.

The checks are program logic rather than assertions, so they also run
under ``python -O``; a failed check raises CertificateError and a passing
one returns None, so no solver reads anything back from here.  Checks that
need a cover's feasibility take the covering problem and ask it to
re-enumerate, so they never trust stored incidence rows.
"""

from __future__ import annotations

from operator import itemgetter

from .graph import EdgeSet, WeightedGraph, remove_edges, total_weight, two_coloring


def row_getter(idx: tuple[int, ...]):
    """A getter of one row's entries: row_getter(idx)(seq) == tuple(seq[e] for e in idx).

    operator.itemgetter reads them in one C call, but it returns a bare item
    for one index and takes no zero, so shorter rows read in Python.
    """
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple(seq[e] for e in idx)


class CertificateError(ValueError):
    """A solution, cover or bound failed its exact check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateError(message)


def check_lp_certificate(rows, g: WeightedGraph, sol) -> None:
    """Prove the FractionalSolution `sol` optimal for min{w.x : Ax >= 1, x >= 0}.

    `rows` lists each row's column indices in g's edge order.  x and the dual
    are read as stored (x * value_den per edge, y * dual_den on dual_rows),
    so every condition is checked in int arithmetic:
    box, rows, the pigeonhole bound max_e x_e >= 1/|row|, the objective, the
    stored dual's shape and signs, strong duality sum(y) = objective and
    dual feasibility A'y <= w.  Since x also passes the box check 0 <= x <= 1,
    the same x and y prove it optimal for the boxed LP too.
    """
    require(sol.edges == g.edges and len(sol.value_nums) == g.edge_count,
            "solution is keyed by a different edge set")
    weights, objective = g.weights, sol.objective
    dx, xs = sol.value_den, sol.value_nums
    require(dx > 0 and all(0 <= v <= dx for v in xs), "LP certificate: box bounds violated")
    for idx in rows:
        row = row_getter(idx)(xs)
        require(sum(row) >= dx, "LP certificate: cover constraint violated")
        require(max(row) * len(row) >= dx, "LP certificate: pigeonhole bound violated")
    primal = sum(w * v for w, v in zip(weights, xs))
    require(primal * objective.denominator == objective.numerator * dx,
            "LP certificate: objective mismatch")

    dy, support, ys = sol.dual_den, sol.dual_rows, sol.dual_nums
    require(sol.row_count == len(rows), "LP certificate: wrong number of dual multipliers")
    require(len(support) == len(ys)
            and all(a < b for a, b in zip((-1, *support), (*support, len(rows)))),
            "LP certificate: dual rows not strictly ascending within range")
    require(dy > 0 and all(v > 0 for v in ys), "LP certificate: zero or negative dual multiplier")
    load = [0] * len(weights)
    for r, v in zip(support, ys):
        for e in rows[r]:
            load[e] += v
    require(sum(ys) * objective.denominator == objective.numerator * dy,
            "LP certificate: strong duality violated")
    require(all(l <= w * dy for l, w in zip(load, weights)), "LP certificate: dual infeasible")


def check_cover(problem, result) -> None:
    """A rounded cover is feasible and within its ratio bound times the LP bound."""
    require(problem.is_cover(result.cover), "rounded cover is infeasible")
    require(result.cover_weight <= result.ratio_bound * result.lp_objective,
            "ratio certificate violated")


def check_improved_parts(g, solution, t: int, picked, removed, residual, span) -> None:
    """The invariants of threshold rounding + bipartization.

    Each residual edge escaped the rounding (value < 2/(2t-1)) yet sits in a
    structure whose other t-1 edges also escaped, forcing its value up to at
    least 1/(2t-1).  The removed edges come from the residual only, miss the
    picked ones, and leave the survivors' span two-colorable.
    """
    d, xs, index = solution.value_den, solution.value_nums, g.edge_index
    require(all(d <= xs[index[e]] * (2 * t - 1) < 2 * d for e in residual),
            "residual edge value outside [1/(2t-1), 2/(2t-1))")
    require(not (picked & removed), "bipartization removed a picked edge")
    require(removed.issubset(residual), "bipartization removed a non-residual edge")
    require(two_coloring(remove_edges(span, removed)) is not None,
            "bipartization left the survivors' span non-bipartite")


def check_half_cut(sub: WeightedGraph, cut_edges: EdgeSet) -> None:
    require(2 * total_weight(sub, cut_edges) >= total_weight(sub, sub.edge_set()),
            "cut carries less than half the weight")


def check_exact_cover(problem, cover: EdgeSet, weight: int, lp_objective) -> None:
    """An exact optimum is a feasible cover of the claimed weight, above the LP bound."""
    require(weight == total_weight(problem.g, cover), "exact cover weight mismatch")
    require(lp_objective <= weight, "LP bound exceeds exact optimum")
    require(problem.is_cover(cover), "exact cover is infeasible")


def check_packing(problem, chosen) -> None:
    """Each structure is the problem's own and no two share an edge, so at most |E|/t."""
    used: set = set()
    for s in chosen:
        edges = set(s.edges)
        require(s.kind == problem.kind and len(set(s.vertices)) == len(s.vertices) == problem.k
                and edges <= problem.g.edge_index.keys(),
                f"packing structure {s.vertices} is not in the problem")
        require(not used & edges, "packing shares an edge")
        used |= edges
    require(len(chosen) <= problem.g.edge_count // problem.edges_per_structure,
            "packing exceeds |E|/t")
