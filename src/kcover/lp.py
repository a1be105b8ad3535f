"""Exact rational solver for the covering relaxation min{w.x : Ax >= 1, x >= 0}.

Every weight is at least 1, so no optimum has an x_e above 1 (lowering it
to 1 keeps every row covered and costs less): the bound x <= 1 is implied,
the solver does not carry it, and the certificate still checks it.

All arithmetic is exact, so threshold comparisons made by the rounding
algorithms are never subject to floating-point ties.  Inside the solver
every number is a Python int: one integer tableau holds the basis inverse,
its right-hand side and the objective row (the simplex multipliers and
the objective), all over one common denominator, and every row takes the
same fraction-free, or integer-preserving, pivot update (Edmonds 1967,
Bareiss 1968).  The answer keeps both x and the dual in ints (see
FractionalSolution); only the objective is a rational.

The system has one row per k-structure and one column per edge; dense
instances can carry thousands of rows but only |E| columns.  The solver
therefore runs revised primal simplex on the standard-form dual

    max  sum(y)   s.t.   A'y + t = w,   y, t >= 0,

whose basis has only |E| rows, using the Dantzig rule with deterministic
tie-breaks and an automatic switch to Bland's anti-cycling rule under
degenerate stalling.  Structure columns (y) are activated lazily:
whenever the active columns price out optimal, inactive rows are priced
and violated ones enter in batches.  Every row sum reads the row through
one getter per row (an operator.itemgetter), which changes no int and no
pivot.  The simplex multipliers of the final basis are exactly the primal
optimum x*, and the basic y values are a dual feasible vector certifying
optimality; check_lp_certificate verifies both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import TYPE_CHECKING

from .certificates import check_lp_certificate, row_getter
from .graph import Edge, WeightedGraph

if TYPE_CHECKING:
    from .structures import IncidenceMatrix

PRICING_BATCH = 64

_ZERO = Fraction(0)


class SimplexIterationError(RuntimeError):
    """Internal error: the pivot cap was hit despite the anti-cycling rule."""


@dataclass(frozen=True, slots=True)
class FractionalSolution:
    """Exact optimal solution of the covering LP with its dual certificate.

    x is stored as ints over their least common denominator `value_den`:
    `value_nums` holds x_e * value_den for each edge of `edges` (the graph's
    own tuple).  Of the `row_count` dual multipliers y, one per incidence
    row, only the nonzero ones are stored, over their least common
    denominator `dual_den`: `dual_rows` lists their rows ascending and
    `dual_nums` holds each y * dual_den > 0.  The simplex writes these forms,
    certificates.check_lp_certificate checks them and the rounding and the
    exact oracle read them.  `values` and `dual` are rational read-backs.
    """

    edges: tuple[Edge, ...]
    value_den: int
    value_nums: tuple[int, ...]
    objective: Fraction
    row_count: int
    dual_den: int
    dual_rows: tuple[int, ...]
    dual_nums: tuple[int, ...]

    @property
    def values(self) -> dict[Edge, Fraction]:
        return {e: Fraction(v, self.value_den) for e, v in zip(self.edges, self.value_nums)}

    @property
    def dual(self) -> tuple[Fraction, ...]:
        dense = [_ZERO] * self.row_count
        for i, v in zip(self.dual_rows, self.dual_nums):
            dense[i] = Fraction(v, self.dual_den)
        return tuple(dense)


class _DualSimplex:
    """Revised primal simplex on the dual, as one fraction-free integer tableau.

    Only the basis inverse is maintained (as the slack block), so a pivot
    costs O(|E|^2) regardless of how many structure columns exist.  Reduced
    costs come from the multipliers pi: a structure column prices to
    sum(pi over its edges) - 1 and a slack t_e to pi_e; at optimality pi is
    exactly the primal solution x*.

    `tableau` holds n + 1 rows of Python ints, all over one denominator
    `det` > 0, the last pivot element (1 at the start).  Row i < n is
    [row i of the basis inverse | value of basic variable i]; the last row
    is the objective row [pi | sum(y)], integral over det because it is
    c_B times the integer adjugate of the basis (up to sign).  A pivot on
    row r with element `piv` keeps row r, maps every other row a, the
    objective row included, to (piv * a - f * b) // det, where f is the
    row's entry in the entering column (the reduced cost * det for the
    objective row) and b is row r, and sets det = piv; each division is
    exact (Edmonds 1967, Bareiss 1968).  Entering columns are ints over det
    too, so the ratio test compares the value entries crosswise.

    Every reduced cost is handled multiplied by det: a structure column is
    sum(pi[e] for e in row) - det and a t column pi[e] (eligible when
    pi[e] < 0).  Row s is read through `row_get[s]`, one C call for its
    entries of pi or of a tableau row: the same ints as a loop over the
    row, so the same candidates, order and pivots.  det is positive and
    common to every candidate, so every comparison, and so every pivot, is
    the one exact rationals give.

    Entering rule: one list of eligible columns, each a pair (rc, id), where
    y_s has id s and t_e has id m + e.  Dantzig takes the least pair: the
    most negative reduced cost, ties to the least id, so y before t.  After
    DEGENERATE_SWITCH degenerate pivots in a row, Bland's rule takes the
    least id until the objective moves again, which preserves the
    termination guarantee while avoiding Bland's slow typical-case
    behaviour.

    Structure columns are activated lazily: whenever the active set prices
    out optimal, all inactive columns are priced and the most violated
    batch joins the scan list.  The active set only grows, and only at
    active-optimal bases, so cycling across activations is impossible.
    """

    DEGENERATE_SWITCH = 30

    def __init__(self, rows: tuple[tuple[int, ...], ...], weights: tuple[int, ...]):
        self.rows = rows
        self.row_get = [row_getter(idx) for idx in rows]
        self.m = len(rows)
        self.n = n = len(weights)
        # [identity | w] on the slack basis, then the objective row [0 | 0], over det = 1.
        self.tableau = [[int(j == i) for j in range(n)] + [weights[i]] for i in range(n)]
        self.tableau.append([0] * (n + 1))
        self.det = 1
        self.active: list[int] = []
        self.inactive = list(range(self.m))
        self.basis = [self.m + e for e in range(n)]
        self.pivots = 0
        self.degenerate_run = 0

    # -- pricing -------------------------------------------------------------

    def _violated(self, columns: list[int]) -> list[tuple[int, int]]:
        """(reduced cost * det, s) of each structure column s that prices negative."""
        pi, det, get = self.tableau[-1], self.det, self.row_get
        return [(rc, s) for s in columns if (rc := sum(get[s](pi)) - det) < 0]

    def _choose_entering(self) -> tuple[int, int] | None:
        """The entering column and its reduced cost * det, or None at optimality."""
        m, pi = self.m, self.tableau[-1]
        candidates = self._violated(self.active)
        candidates += [(pi[e], m + e) for e in range(self.n) if pi[e] < 0]
        if not candidates:
            return None
        bland = self.degenerate_run >= self.DEGENERATE_SWITCH
        rc, ent = min(candidates, key=itemgetter(1)) if bland else min(candidates)
        return ent, rc

    def _column(self, ent: int) -> list[int]:
        """The entering column in the current basis, as ints over det."""
        rows = self.tableau[:-1]
        if ent < self.m:
            get = self.row_get[ent]
            return [sum(get(row)) for row in rows]
        e = ent - self.m
        return [row[e] for row in rows]

    # -- pivoting ------------------------------------------------------------

    def _choose_leaving(self, col: list[int]) -> int:
        """Minimum ratio of value to col[i] over col[i] > 0; ties to the least basic id."""
        tableau, basis = self.tableau, self.basis
        best_i = -1
        for i, c in enumerate(col):
            if c > 0:
                if best_i < 0:
                    best_i = i
                    continue
                here, best = tableau[i][-1] * col[best_i], tableau[best_i][-1] * c
                if here < best or (here == best and basis[i] < basis[best_i]):
                    best_i = i
        if best_i < 0:
            raise SimplexIterationError(
                "dual unbounded: the covering LP reported infeasible, "
                "which cannot happen (x = 1 is always feasible)"
            )
        return best_i

    def _pivot(self, r: int, ent: int, rc: int, col: list[int]) -> None:
        piv, det, tableau = col[r], self.det, self.tableau
        prow = tableau[r]
        # The objective row's entry in the entering column is its reduced cost * det.
        for i, f in enumerate(col + [rc]):
            if i != r:
                tableau[i] = [(piv * a - f * b) // det for a, b in zip(tableau[i], prow)]
        self.det = piv
        self.basis[r] = ent
        self.pivots += 1
        if prow[-1] == 0:
            self.degenerate_run += 1
        else:
            self.degenerate_run = 0

    # -- lazy activation -----------------------------------------------------

    def _price_and_activate(self) -> bool:
        """Price inactive structure columns; activate the most violated batch."""
        violated = self._violated(self.inactive)
        if not violated:
            return False
        violated.sort()
        batch = violated[:PRICING_BATCH]
        chosen = {s for _, s in batch}
        self.inactive = [s for s in self.inactive if s not in chosen]
        self.active.extend(s for _, s in batch)
        return True

    def run(self, pivot_limit: int) -> None:
        while True:
            entering = self._choose_entering()
            if entering is None:
                if self._price_and_activate():
                    continue
                return
            if self.pivots >= pivot_limit:
                raise SimplexIterationError(
                    f"pivot cap {pivot_limit} exceeded; anti-cycling rule "
                    "should make this unreachable"
                )
            ent, rc = entering
            col = self._column(ent)
            r = self._choose_leaving(col)
            self._pivot(r, ent, rc, col)

    def solution(self, edges: tuple[Edge, ...]) -> FractionalSolution:
        """x = pi / det, the basic y values as the dual, and the objective sum(y) / det."""
        m, det, n = self.m, self.det, self.n
        *rows, objective_row = self.tableau
        pi = objective_row[:n]
        x_common = gcd(det, *pi)
        # The nonzero y are values over det; det // y_common is their least common denominator.
        dual = sorted((b, row[-1]) for b, row in zip(self.basis, rows) if b < m and row[-1])
        y_common = gcd(det, *(v for _, v in dual))
        return FractionalSolution(edges, det // x_common, tuple(p // x_common for p in pi),
                                  Fraction(objective_row[-1], det), m, det // y_common,
                                  tuple(b for b, _ in dual), tuple(v // y_common for _, v in dual))


def solve_covering_lp(
    m: IncidenceMatrix, g: WeightedGraph, *, pivot_limit: int | None = None
) -> FractionalSolution:
    """Solve the covering LP exactly; deterministic for fixed input.

    Returns an optimal basic feasible solution together with a dual vector
    whose objective equals the primal objective (strong duality, checked
    exactly).  Feasibility, the box bounds and dual feasibility are all
    checked in exact arithmetic by check_lp_certificate.  An LP with no rows
    takes no pivot: x = 0 and the empty dual.
    """
    if m.columns != g.edges:
        raise ValueError("incidence columns do not match the graph's edge order")
    if pivot_limit is None:
        pivot_limit = 10_000 + 20 * (m.row_count + m.column_count)

    tableau = _DualSimplex(m.row_edge_indices, g.weights)
    tableau.run(pivot_limit)
    solution = tableau.solution(g.edges)
    check_lp_certificate(m.row_edge_indices, g, solution)
    return solution


def format_lp(m: IncidenceMatrix, g: WeightedGraph) -> str:
    """Dump the covering LP in LP text format for external cross-checking."""
    if m.columns != g.edges:
        raise ValueError("incidence columns do not match the graph's edge order")
    names = [f"x_{u}_{v}" for u, v in g.edges]
    lines = [f"\\ covering LP: {m.row_count} rows, {m.column_count} columns", "Minimize"]
    terms = " + ".join(f"{w} {name}" for w, name in zip(g.weights, names))
    lines.append(f" obj: {terms if terms else '0'}")
    lines.append("Subject To")
    for s, idx in zip(m.rows, m.row_edge_indices):
        row_name = "s_" + "_".join(str(v) for v in s.vertices)
        row_terms = " + ".join(names[e] for e in idx)
        lines.append(f" {row_name}: {row_terms} >= 1")
    lines.append("Bounds")
    lines.extend(f" 0 <= {name} <= 1" for name in names)
    lines.append("End")
    return "\n".join(lines) + "\n"
