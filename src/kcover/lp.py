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
degenerate stalling (Bland 1977).  A basic slack's column of the basis
inverse is a unit vector, so only the b columns of nonbasic slacks are
stored, one per basic y (b <= min(m, n)).  Every pivot prices every
structure column (y) from one int that packs the row sums of the
multipliers, a fixed-width field per row, and that each pivot updates
with the objective row's own step (SWAR, "SIMD within a register":
Lamport, CACM 18(8), 1975).  So a pivot costs O(b) big-int operations on
m-field ints, in C, in place of m Python row sums, plus an
(n + 1)(b + 1) tableau update, and setting up costs O(n) and one pass
over the rows: an LP with few rows keeps a small tableau however many
edges it has.  Every reduced cost is still the int a plain row sum
gives, so no pivot changes.  The simplex multipliers of the final basis
are exactly the primal optimum x*, and the basic y values are a dual
feasible vector certifying optimality; check_lp_certificate verifies
both.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import gcd
from operator import itemgetter
from typing import TYPE_CHECKING

from .certificates import check_lp_certificate, row_getter
from .graph import Edge, WeightedGraph

if TYPE_CHECKING:
    from .structures import IncidenceMatrix

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


_SIGN = 1 << 31  # the top bit of a 32-bit word


def _ones(m: int, width: int) -> int:
    """1 in each of m `width`-bit fields."""
    return int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * m, "little")


def _pack(at: list[int], width: int) -> tuple[int, int]:
    """An edge's column of the incidence, packed, and its shift.

    `at` lists the rows the edge occurs in, ascending, a row once per
    occurrence (at most 255).  The packed column holds the edge's count in
    each row from its first row lo to its last, one `width`-bit field per
    row, row lo in field 0, and its shift is width * lo; so a block-sparse
    incidence packs to about one field per nonzero.
    """
    size, lo = width // 8, at[0] if at else 0
    fields = bytearray(size * (at[-1] - lo + 1) if at else 0)
    for s in at:
        fields[size * (s - lo)] += 1
    return int.from_bytes(fields, "little"), width * lo


class _DualSimplex:
    """Revised primal simplex on the dual, as one fraction-free integer tableau.

    Only the basis inverse is maintained, so a pivot costs O(b) big-int
    operations on the packed row sums to price every structure column, n
    sums to form a structure entering column, and an (n + 1)(b + 1) update
    of the tableau, where b <= min(m, n) is the number of basic structure
    columns.  Reduced costs come from the multipliers pi: a structure
    column prices to sum(pi over its edges) - 1 and a slack t_e to pi_e; at
    optimality pi is exactly the primal solution x*.

    `tableau` holds n + 1 rows of Python ints, all over one denominator
    `det` > 0, the last pivot element (1 at the start).  Row i < n is
    [value of basic variable i | row i of the basis inverse, on the stored
    columns]; the last row is the objective row [sum(y) | pi], integral
    over det because it is c_B times the integer adjugate of the basis (up
    to sign).  A pivot on row r
    with element `piv` keeps row r, maps every other row a, the objective
    row included, to (piv * a - f * b) // det, where f is the row's entry
    in the entering column (the reduced cost * det for the objective row)
    and b is row r, and sets det = piv; each division is exact (Edmonds
    1967, Bareiss 1968).  A row with f = 0 is only rescaled, and left as it
    is when piv = det.  Entering columns are ints over det too, so the
    ratio test compares the value entries crosswise.

    Column e of the basis inverse is stored only while t_e is nonbasic:
    `cols` lists those edges, row[1 + j] holding column cols[j].  While t_e
    is basic, in row `slack_row[e]`, column e is det times the unit vector
    at that row and pi_e = 0, and every pivot that keeps t_e basic keeps it
    so, since row r's entry in it is 0.  So a row holds b + 1 ints, not
    n + 1.  When t_e leaves, its column is stored as that unit vector before
    the update; when t_e enters at row r, the update turns its column into
    det times the unit vector at r, and it is dropped.

    Every reduced cost is handled multiplied by det: a structure column is
    S_s - det, where S_s = sum(pi[e] for e in row s), and a t column pi[e]
    (eligible when pi[e] < 0).  One int, `sums`, holds every S_s in a
    signed `width`-bit field: sums = sum(S_s * 2^(width * s)).  Edge e's
    column of the incidence is packed the same way (`packed[e]`, see
    _pack), once t_e first leaves.  A pivot gives `sums` the objective
    row's own step, sums <- (piv * sums - rc * R) // det, where R sums row
    r's entry on each stored column times that edge's packed column; the
    step is linear and exact in every field, so the division is exact.
    Pricing adds 2^(width - 1) - det to every field and reads each field's
    top 32-bit word, whose top bit is clear exactly when the row prices
    negative.  `width` is the least multiple of 32 above the bit length of
    longest * max|pi| + det, which bounds every |S_s - det|; when a pivot
    outgrows it, the columns are repacked and `sums` is recomputed from pi.
    So every reduced cost is the int a plain row sum gives: the same
    candidates, order and pivots.  det is positive and common to every
    candidate, so every comparison, and so every pivot, is the one exact
    rationals give.

    Entering rule: one list of every eligible column, each a pair (rc, id),
    where y_s has id s and t_e has id m + e.  Dantzig takes the least pair:
    the most negative reduced cost, ties to the least id, so y before t.
    After DEGENERATE_SWITCH degenerate pivots in a row, Bland's rule takes
    the least id over all columns until the objective moves again.

    Termination: a nondegenerate pivot raises sum(y), so no basis recurs
    across one, and a degenerate run that outlasts the switch goes on under
    Bland's rule over all m + n columns, with ratio ties to the least basic
    id, which cannot cycle (Bland 1977).  So the simplex ends, at the first
    basis where no column prices negative, which is optimal.
    """

    DEGENERATE_SWITCH = 30

    def __init__(self, rows: tuple[tuple[int, ...], ...], weights: tuple[int, ...]):
        self.rows = rows
        self.m = m = len(rows)
        self.n = n = len(weights)
        # [w_i] on the slack basis, whose inverse stores no column, then the objective row [0].
        self.tableau = [[w] for w in weights]
        self.tableau.append([0])
        self.det = 1
        self.basis = [self.m + e for e in range(n)]
        self.slack_row = list(range(n))
        self.cols: list[int] = []
        self.pivots = 0
        self.degenerate_run = 0
        # The packed row sums of pi, which is 0 at the start (see the class docstring).
        self.longest = max(map(len, rows), default=0)
        self.width = 32
        self.occurs: list[list[int]] = [[] for _ in range(n)]
        for s, idx in enumerate(rows):
            for e in idx:
                self.occurs[e].append(s)
        self.packed: dict[int, tuple[int, int]] = {}  # stored column e -> _pack(occurs[e], width)
        self.ones = _ones(m, 32)
        self.sums = 0

    # -- pricing -------------------------------------------------------------

    def _pi(self) -> list[int]:
        """The multipliers * det on every edge, 0 on the implicit columns."""
        pi = [0] * self.n
        for e, p in zip(self.cols, self.tableau[-1][1:]):
            pi[e] = p
        return pi

    def _least_violated(self, bland: bool) -> tuple[int, int] | None:
        """(reduced cost * det, s) of the structure column the rule takes, or None.

        Field s of t is rc_s + 2^(width - 1), in (0, 2^width), so its top
        bit is clear exactly when rc_s < 0, and the fields order as the rc_s
        do.  Bland's least s has the first top word below 2^31; Dantzig's
        least (rc, s) has the least top word, the first one when width is
        32, and the least lower words among those when it is wider.
        """
        width, mask, half = self.width, (1 << self.width) - 1, 1 << self.width - 1
        step = width // 32
        t = self.sums + (half - self.det) * self.ones
        words = array("I", t.to_bytes(4 * step * self.m, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        tops = words[step - 1::step].tolist()
        if (low := min(tops, default=_SIGN)) >= _SIGN:
            return None
        if bland:
            s = next(compress(count(), map(_SIGN.__gt__, tops)))
        elif step == 1:
            s = tops.index(low)
        else:
            # Wider fields can share their top word: their lower words decide, top down.
            ties = list(compress(count(), map(low.__eq__, tops)))
            for j in range(step - 2, -1, -1):
                below = [words[step * s + j] for s in ties]
                ties = list(compress(ties, map(min(below).__eq__, below)))
            s = ties[0]
        return (t >> width * s & mask) - half, s

    def _choose_entering(self) -> tuple[int, int] | None:
        """The entering column and its reduced cost * det, or None at optimality."""
        m = self.m
        bland = self.degenerate_run >= self.DEGENERATE_SWITCH
        candidates = [(p, m + e) for e, p in zip(self.cols, self.tableau[-1][1:]) if p < 0]
        if least := self._least_violated(bland):
            candidates.append(least)
        if not candidates:
            return None
        rc, ent = min(candidates, key=itemgetter(1)) if bland else min(candidates)
        return ent, rc

    def _column(self, ent: int) -> list[int]:
        """The entering column in the current basis, as ints over det."""
        rows, cols, slack_row = self.tableau[:-1], self.cols, self.slack_row
        if ent >= self.m:
            j = 1 + cols.index(ent - self.m)
            return [row[j] for row in rows]
        idx = self.rows[ent]
        if stored := tuple(1 + cols.index(e) for e in idx if slack_row[e] < 0):
            get = row_getter(stored)
            col = [sum(get(row)) for row in rows]
        else:
            col = [0] * self.n
        for e in idx:
            if (i := slack_row[e]) >= 0:
                col[i] += self.det
        return col

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
                here, best = tableau[i][0] * col[best_i], tableau[best_i][0] * c
                if here < best or (here == best and basis[i] < basis[best_i]):
                    best_i = i
        if best_i < 0:
            raise SimplexIterationError(
                "dual unbounded: the covering LP reported infeasible, "
                "which cannot happen (x = 1 is always feasible)"
            )
        return best_i

    def _pivot(self, r: int, ent: int, rc: int, col: list[int]) -> None:
        piv, det, tableau, m, n = col[r], self.det, self.tableau, self.m, self.n
        if (leaving := self.basis[r]) >= m:
            # t_e leaves: store its column, det at row r, for the update to act on.
            e = leaving - m
            self.slack_row[e] = -1
            self.cols.append(e)
            if e not in self.packed:
                self.packed[e] = _pack(self.occurs[e], self.width)
            for row in tableau:
                row.append(0)
            tableau[r][-1] = det
        prow = tableau[r]
        # The objective row's entry in the entering column is its reduced cost * det.
        fs = col + [rc]
        # With piv == det, a row whose f is 0 keeps every entry, so only the others are visited.
        for i in range(n + 1) if piv != det else compress(range(n + 1), fs):
            if i == r:
                continue
            if f := fs[i]:
                tableau[i] = [(piv * a - f * b) // det for a, b in zip(tableau[i], prow)]
            else:
                tableau[i] = [piv * a // det for a in tableau[i]]
        # The objective row's step on its packed row sums; each field divides exactly.
        self.sums = (piv * self.sums - rc * self._packed_sums(prow)) // det
        if ent >= m:
            # t_e enters: its column is now piv (the new det) at row r and 0 elsewhere.
            j = 1 + self.cols.index(ent - m)
            del self.cols[j - 1]
            for row in tableau:
                del row[j]
            self.slack_row[ent - m] = r
        self.det = piv
        self.basis[r] = ent
        self.pivots += 1
        if prow[0] == 0:
            self.degenerate_run += 1
        else:
            self.degenerate_run = 0
        # Every |S_s - det| is at most longest * max|pi| + det.
        bound = self.longest * max(map(abs, tableau[-1][1:]), default=0) + piv
        if bound.bit_length() >= self.width:
            self._widen(bound.bit_length())

    def _packed_sums(self, row: list[int]) -> int:
        """The row sums of a tableau row's stored entries, packed one field per structure."""
        packed, total = self.packed, 0
        for e, p in zip(self.cols, row[1:]):
            if p:
                col, shift = packed[e]
                total += p * col << shift
        return total

    def _widen(self, bits: int) -> None:
        """Repack at the least multiple of 32 above `bits`, and the row sums from pi."""
        self.width = width = 32 * (bits // 32 + 1)
        self.packed = {e: _pack(self.occurs[e], width) for e in self.cols}
        self.ones = _ones(self.m, width)
        self.sums = self._packed_sums(self.tableau[-1])

    def run(self, pivot_limit: int) -> None:
        while (entering := self._choose_entering()) is not None:
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
        m, det = self.m, self.det
        pi = self._pi()
        x_common = gcd(det, *pi)
        # The nonzero y are values over det; det // y_common is their least common denominator.
        dual = sorted((b, row[0]) for b, row in zip(self.basis, self.tableau) if b < m and row[0])
        y_common = gcd(det, *(v for _, v in dual))
        return FractionalSolution(edges, det // x_common, tuple(p // x_common for p in pi),
                                  Fraction(self.tableau[-1][0], det), m, det // y_common,
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
