"""Exact rational solver for the covering relaxation min{w.x : Ax >= 1, 0 <= x <= 1}.

All arithmetic is exact, so threshold comparisons made by the rounding
algorithms are never subject to floating-point ties.  The basis inverse and
its right-hand side are rationals (GMP rationals when gmpy2 is available,
stdlib fractions otherwise); the simplex multipliers are Python ints over
one common denominator, so pricing every structure row, the hot loop, adds
ints instead of rationals.

The system has one row per k-structure and one column per edge; dense
instances can carry thousands of rows but only |E| columns.  The solver
therefore runs revised primal simplex on the standard-form dual

    max  sum(y) - sum(z)   s.t.   A'y - z + t = w,   y, z, t >= 0,

whose basis has only |E| rows, using the Dantzig rule with deterministic
tie-breaks and an automatic switch to Bland's anti-cycling rule under
degenerate stalling.  Structure columns (y) are activated lazily:
whenever the active columns price out optimal, inactive rows are priced
and violated ones enter in batches.  The simplex multipliers of the final
basis are exactly the primal optimum x*, and the basic y values are a dual
feasible vector certifying optimality; both are verified before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import TYPE_CHECKING

try:
    from gmpy2 import mpq as _rat
except ImportError:
    from fractions import Fraction as _rat

from .certificates import CertificateError, check_lp_certificate
from .graph import Edge, WeightedGraph

if TYPE_CHECKING:
    from .structures import IncidenceMatrix

PRICING_BATCH = 64


class SimplexIterationError(RuntimeError):
    """Internal error: the pivot cap was hit despite the anti-cycling rule."""


def _to_fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


@dataclass(frozen=True, slots=True)
class FractionalSolution:
    """Exact optimal solution of the covering LP with its dual certificate.

    `values` maps every edge to a rational in [0, 1]; `dual` holds one
    multiplier per incidence row (zero for rows that never became active).
    """

    values: dict[Edge, Fraction]
    objective: Fraction
    dual: tuple[Fraction, ...]
    status: str = field(default="optimal")


class _DualSimplex:
    """Revised primal simplex on the dual; tableau rows indexed by edges.

    Only the basis inverse is maintained (as the slack block), so a pivot
    costs O(|E|^2) regardless of how many structure columns exist.  Reduced
    costs come from the multipliers pi: a structure column prices to
    sum(pi over its edges) - 1, an upper-bound column to 1 - pi_e, a slack
    to pi_e; at optimality pi is exactly the primal solution x*.

    pi is kept as Python ints `pi` over their least common denominator
    `pi_den`, and every reduced cost is handled multiplied by pi_den: a
    structure column is sum(pi[e] for e in row) - pi_den, a z column
    pi_den - pi[e] (eligible when pi[e] > pi_den), a t column pi[e]
    (eligible when pi[e] < 0).  pi_den > 0, so every comparison, and so
    every pivot, is the one the rational values would give.  Each pivot
    forms the rational update pi - (rc / pi_den) * (pivot row) once and
    rescales it to ints over the new least common denominator.

    Entering rule: Dantzig (most negative reduced cost) with ties broken by
    the global column order y_0..y_{m-1}, z_0..z_{n-1}, t_0..t_{n-1}; after
    a run of degenerate pivots the rule switches to Bland's least-index
    rule until the objective moves again, which preserves the termination
    guarantee while avoiding Bland's slow typical-case behaviour.

    Structure columns are activated lazily: whenever the active set prices
    out optimal, all inactive columns are priced and the most violated
    batch joins the scan list.  The active set only grows, and only at
    active-optimal bases, so cycling across activations is impossible.
    """

    DEGENERATE_SWITCH = 30

    def __init__(self, rows: tuple[tuple[int, ...], ...], weights: tuple[int, ...]):
        self.rows = rows
        self.m = len(rows)
        self.n = len(weights)
        one = _rat(1)
        zero = _rat(0)
        self.zero = zero
        self.one = one
        # Basis inverse; starts as the identity on the slack block.
        self.binv = [
            [one if j == i else zero for j in range(self.n)] for i in range(self.n)
        ]
        self.rhs = [_rat(w) for w in weights]
        # pi_e = pi[e] / pi_den, Python ints over their least common denominator.
        self.pi = [0] * self.n
        self.pi_den = 1
        self.dval = zero
        self.active: list[int] = []
        self.inactive = list(range(self.m))
        self.basis = [self.m + self.n + e for e in range(self.n)]
        self.pivots = 0
        self.degenerate_run = 0

    # -- pricing -------------------------------------------------------------

    def _violated(self, columns: list[int]) -> list[tuple[int, int]]:
        """(reduced cost * pi_den, s) of each structure column s that prices negative."""
        pi, den, rows = self.pi, self.pi_den, self.rows
        return [(rc, s) for s in columns if (rc := sum(pi[e] for e in rows[s]) - den) < 0]

    def _choose_entering(self) -> tuple[int, int] | None:
        """The entering column and its reduced cost * pi_den, or None at optimality."""
        m, n, den = self.m, self.n, self.pi_den
        violated = self._violated(self.active)
        if self.degenerate_run >= self.DEGENERATE_SWITCH:  # Bland
            if violated:
                rc, s = min(violated, key=itemgetter(1))
                return s, rc  # y ids precede every z and t id
            t_first: int | None = None
            for e, pi in enumerate(self.pi):
                if pi > den:
                    return m + e, den - pi  # first eligible z; z ids precede all t ids
                if pi < 0 and t_first is None:
                    t_first = e
            return None if t_first is None else (m + n + t_first, self.pi[t_first])
        best_rc, best_id = min(violated) if violated else (None, None)
        for e, pi in enumerate(self.pi):
            if pi > den:
                rc = den - pi
                if best_rc is None or rc < best_rc:
                    best_id, best_rc = m + e, rc
            elif pi < 0 and (best_rc is None or pi < best_rc):
                best_id, best_rc = m + n + e, pi
        return None if best_id is None else (best_id, best_rc)

    def _column(self, ent: int) -> list:
        m, n = self.m, self.n
        if ent < m:
            idx = self.rows[ent]
            zero = self.zero
            return [sum((row[e] for e in idx), zero) for row in self.binv]
        if ent < m + n:
            e = ent - m
            return [-row[e] for row in self.binv]
        e = ent - m - n
        return [row[e] for row in self.binv]

    # -- pivoting ------------------------------------------------------------

    def _choose_leaving(self, col: list) -> int:
        best_i = -1
        best_ratio = None
        for i, c in enumerate(col):
            if c > 0:
                ratio = self.rhs[i] / c
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and self.basis[i] < self.basis[best_i])
                ):
                    best_i = i
                    best_ratio = ratio
        if best_i < 0:
            raise SimplexIterationError(
                "dual unbounded: the covering LP reported infeasible, "
                "which cannot happen (x = 1 is always feasible)"
            )
        return best_i

    def _pivot(self, r: int, ent: int, rc: int, col: list) -> None:
        piv = col[r]
        inv = self.one / piv
        prow = [v * inv if v else v for v in self.binv[r]]
        prow_rhs = self.rhs[r] * inv
        self.binv[r] = prow
        self.rhs[r] = prow_rhs
        for i in range(self.n):
            if i == r:
                continue
            f = col[i]
            if f:
                self.binv[i] = [a - f * b if b else a for a, b in zip(self.binv[i], prow)]
                self.rhs[i] = self.rhs[i] - f * prow_rhs
        # pi' = pi - (rc / pi_den) * prow; over pi_den its numerators are pi - rc * prow.
        num = [p - rc * b if b else p for p, b in zip(self.pi, prow)]
        scale = lcm(*(int(q.denominator) for q in num))
        num = [int(q * scale) for q in num]
        den = self.pi_den * scale
        common = gcd(den, *num)
        self.dval = self.dval - _rat(rc, self.pi_den) * prow_rhs
        self.pi = [q // common for q in num]
        self.pi_den = den // common
        self.basis[r] = ent
        self.pivots += 1
        if prow_rhs == 0:
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


def solve_covering_lp(
    m: IncidenceMatrix, g: WeightedGraph, *, pivot_limit: int | None = None
) -> FractionalSolution:
    """Solve the covering LP exactly; deterministic for fixed input.

    Returns an optimal basic feasible solution together with a dual vector
    whose objective equals the primal objective (strong duality, checked
    exactly).  Feasibility, the box bounds, and the per-row pigeonhole
    bound max_e x_e >= 1/|row| are all checked in exact arithmetic.
    """
    if m.columns != g.edges:
        raise ValueError("incidence columns do not match the graph's edge order")
    if pivot_limit is None:
        pivot_limit = 10_000 + 20 * (m.row_count + m.column_count)
    if m.row_count == 0:
        zero = Fraction(0)
        return FractionalSolution({e: zero for e in g.edges}, zero, ())

    tableau = _DualSimplex(m.row_edge_indices, g.weights)
    tableau.run(pivot_limit)

    x = [Fraction(p, tableau.pi_den) for p in tableau.pi]
    dual = [Fraction(0)] * m.row_count
    for i, b in enumerate(tableau.basis):
        if b < tableau.m:
            dual[b] = _to_fraction(tableau.rhs[i])
    objective = _to_fraction(tableau.dval)

    solution = FractionalSolution(
        values=dict(zip(g.edges, x)), objective=objective, dual=tuple(dual)
    )
    check_lp_certificate(m.row_edge_indices, g.weights, x, objective, dual)
    return solution


def check_certificate(
    m: IncidenceMatrix, g: WeightedGraph, sol: FractionalSolution
) -> tuple[int, list[int], int]:
    """Validate a solution produced elsewhere before reusing it.

    Raises CertificateError (a ValueError) unless `sol` is feasible and its
    dual certificate proves optimality for this exact system.  Returns the
    certified dual scaled to integers; see check_lp_certificate.
    """
    if set(sol.values) != set(g.edges):
        raise CertificateError("solution is keyed by a different edge set")
    x = [sol.values[e] for e in g.edges]
    return check_lp_certificate(m.row_edge_indices, g.weights, x, sol.objective, sol.dual)


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
