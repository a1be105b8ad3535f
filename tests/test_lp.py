import hashlib
import pickle
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest

from kcover.graph import WeightedGraph, complete_graph
from kcover import lp
from kcover.certificates import CertificateError, check_lp_certificate
from kcover.lp import SimplexIterationError, format_lp, solve_covering_lp
from kcover.structures import (
    CoveringProblem,
    build_incidence,
    enumerate_k_cliques,
    enumerate_k_cycles,
)


def random_graph(rng, n, p):
    edges = [
        (u, v, rng.randint(1, 10))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedGraph.build(range(n), edges)


# Independent oracle: enumerate every vertex of {Ax >= 1, 0 <= x <= 1} by
# solving all n-subsets of tight constraints with fraction-free Gauss-Jordan
# elimination in ints, and take the best feasible one.  Completely separate
# from the simplex code path.


def fraction_free_solve(rows, rhs):
    """Solve a square integer system; (numerators, denominator > 0), or None if singular.

    Each step maps every other row to (p*a - f*b) // prev, which is exact
    because the entries stay minors of the system (Bareiss 1968); at the
    end every diagonal entry is the last pivot, the determinant up to sign.
    """
    n = len(rhs)
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None  # singular
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p, pivot_row = aug[col][col], aug[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], pivot_row)]
        prev = p
    sign = 1 if prev > 0 else -1
    return [sign * row[n] for row in aug], sign * prev


def lp_minimum_by_vertex_enumeration(row_indices, weights, n):
    tight_rows = [[1 if e in idx else 0 for e in range(n)] for idx in row_indices]
    units = [[1 if e == f else 0 for e in range(n)] for f in range(n)]

    def feasible(num, den):
        if any(v < 0 or v > den for v in num):
            return False
        return all(sum(num[e] for e in idx) >= den for idx in row_indices)

    best = None
    # A candidate vertex takes r covering rows and n - r bounds.  The bounds
    # x_e = 0 and x_e = 1 have parallel rows, so a nonsingular candidate picks
    # at most one of them per edge; the others are skipped unsolved.
    for r in range(min(len(row_indices), n) + 1):
        for rows in combinations(tight_rows, r):
            for bounded in combinations(range(n), n - r):
                system = list(rows) + [units[e] for e in bounded]
                for bounds in product((0, 1), repeat=n - r):
                    solved = fraction_free_solve(system, [1] * r + list(bounds))
                    if solved is None:
                        break  # the same singular matrix for every choice of bounds
                    if not feasible(*solved):
                        continue
                    num, den = solved
                    value = Fraction(sum(w * v for w, v in zip(weights, num)), den)
                    if best is None or value < best:
                        best = value
    return best


class TestSmallInstances:
    def test_triangle_objective_one(self):
        g = complete_graph(3)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        sol = solve_covering_lp(m, g)
        assert sol.objective == 1
        assert sum(sol.values.values()) >= 1

    def test_no_rows_all_zero(self):
        g = WeightedGraph.build(range(4), [(0, 1, 3), (2, 3, 5)])
        m = build_incidence(g, [])
        sol = solve_covering_lp(m, g)
        assert sol.objective == 0
        assert all(v == 0 for v in sol.values.values())

    def test_k4_triangles_objective_two(self):
        g = complete_graph(4)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        sol = solve_covering_lp(m, g)
        assert sol.objective == 2

    def test_k4_frozen_against_vertex_enumeration(self):
        g = complete_graph(4)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        oracle = lp_minimum_by_vertex_enumeration(m.row_edge_indices, g.weights, 6)
        assert oracle == 2  # frozen: exhaustive enumeration of the 6-variable LP
        assert solve_covering_lp(m, g).objective == oracle

    def test_single_edge_rows_force_ones(self):
        # Two vertex-disjoint triangles: optimum picks the cheapest edge of each.
        g = WeightedGraph.build(
            range(6),
            [(0, 1, 4), (0, 2, 2), (1, 2, 3), (3, 4, 9), (3, 5, 8), (4, 5, 7)],
        )
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        sol = solve_covering_lp(m, g)
        assert sol.objective == 2 + 7


class TestRandomInstances:
    @pytest.mark.parametrize("kind,k", [("cycle", 3), ("cycle", 4), ("clique", 3), ("clique", 4)])
    def test_certificates_on_random_graphs(self, kind, k):
        rng = random.Random(hash((kind, k)) & 0xFFFF)
        enum = enumerate_k_cycles if kind == "cycle" else enumerate_k_cliques
        for _ in range(15):
            g = random_graph(rng, rng.randint(4, 9), rng.choice([0.4, 0.7, 0.9]))
            m = build_incidence(g, enum(g, k))
            sol = solve_covering_lp(m, g)
            # solve_covering_lp checks feasibility and duality internally;
            # re-check the solution from the outside too, with the pigeonhole
            # bound that feasibility implies.
            check_lp_certificate(m.row_edge_indices, g, sol)
            # x is stored canonically, as ints over their least common denominator.
            assert sol.edges is g.edges and gcd(sol.value_den, *sol.value_nums) == 1
            assert all(type(v) is int for v in (sol.value_den, *sol.value_nums))
            assert sol.values == {
                e: Fraction(v, sol.value_den) for e, v in zip(g.edges, sol.value_nums)
            }
            for idx in m.row_edge_indices:
                row = [sol.values[g.edges[e]] for e in idx]
                assert sum(row) >= 1
                assert max(row) >= Fraction(1, len(idx))

    def test_matches_vertex_enumeration_on_tiny_instances(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 8:
            g = random_graph(rng, 5, 0.7)
            m = build_incidence(g, enumerate_k_cycles(g, 3))
            if not (1 <= m.row_count <= 6) or g.edge_count > 8:
                continue
            oracle = lp_minimum_by_vertex_enumeration(
                m.row_edge_indices, g.weights, g.edge_count
            )
            assert solve_covering_lp(m, g).objective == oracle
            checked += 1


class TestAgainstFloatSolver:
    def test_matches_scipy_highs_on_midsize_instances(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(917)
        for trial in range(8):
            g = random_graph(rng, rng.randint(6, 10), rng.choice([0.5, 0.8]))
            k, enum = rng.choice([(3, enumerate_k_cycles), (4, enumerate_k_cliques)])
            m = build_incidence(g, enum(g, k))
            if m.row_count == 0:
                continue
            sol = solve_covering_lp(m, g)
            a_ub = []
            for idx in m.row_edge_indices:
                row = [0.0] * g.edge_count
                for e in idx:
                    row[e] = -1.0
                a_ub.append(row)
            res = scipy_opt.linprog(
                c=[float(w) for w in g.weights],
                A_ub=a_ub,
                b_ub=[-1.0] * m.row_count,
                bounds=[(0.0, 1.0)] * g.edge_count,
                method="highs",
            )
            assert res.status == 0
            assert abs(float(sol.objective) - res.fun) < 1e-7


class TestDeterminism:
    def test_repeat_solves_identical(self):
        rng = random.Random(11)
        g = random_graph(rng, 8, 0.7)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        a = solve_covering_lp(m, g)
        b = solve_covering_lp(m, g)
        assert a == b


def answer_digest(sol):
    """SHA-256 of the objective, every value and every dual multiplier."""
    values = ",".join(f"{u}-{v}:{x}" for (u, v), x in sol.values.items())
    text = f"{sol.objective}|{values}|{','.join(map(str, sol.dual))}"
    return hashlib.sha256(text.encode()).hexdigest()


class TestPivotPath:
    """The pricing arithmetic may change; the pivots and the answer may not.

    Each instance solves in exactly `pivots` pivots (so pivot_limit=pivots
    succeeds and one less raises); the objective, values and dual are pinned
    through their digest.  A pin changes only with a recorded reason,
    written next to it.
    """

    @pytest.mark.parametrize(
        "seed,n,p,kind,k,pivots,objective,digest",
        [
            # 46 -> 45 pivots, same answer: the dual dropped its x <= 1
            # columns, which entered once on this path.
            (2, 9, 0.8, "clique", 3, 45, Fraction(175, 3),
             "1c96985cd75bffec32b005421474c7d68b3e8ea1a516a4854dd1529c46b83604"),
            # 50 -> 49 pivots when every structure column was priced at
            # every pivot instead of activated lazily: x is unchanged, and
            # the final dual is another optimum.
            (1, 8, 0.8, "cycle", 5, 49, Fraction(59, 3),
             "3a1d0a1eca59055d839c136fecde35b716bf92255c52597b5f47bf3417a68e2f"),
        ],
    )
    def test_pivots_and_answer_pinned(self, seed, n, p, kind, k, pivots, objective, digest):
        g = random_graph(random.Random(seed), n, p)
        enum = enumerate_k_cycles if kind == "cycle" else enumerate_k_cliques
        m = build_incidence(g, enum(g, k))
        sol = solve_covering_lp(m, g, pivot_limit=pivots)
        assert sol.objective == objective
        assert answer_digest(sol) == digest
        with pytest.raises(SimplexIterationError):
            solve_covering_lp(m, g, pivot_limit=pivots - 1)

    def test_worst_acceptance_cell_pinned(self):
        # The acceptance corpus's largest LP: n=12, p=0.8, draw 7, 5-cycles.
        # 497 -> 528 pivots when the dual dropped its x <= 1 columns, one of
        # which entered on the old path: x is unchanged, and the final dual
        # is another optimum.  528 -> 151 pivots when every structure column
        # was priced at every pivot instead of activated lazily in batches
        # of 64: x is unchanged and the dual is another optimum.
        g = random_graph(random.Random((20240801, 12, 0.8, 7).__repr__()), 12, 0.8)
        m = build_incidence(g, enumerate_k_cycles(g, 5))
        assert (m.row_count, m.column_count) == (3726, 55)
        sol = solve_covering_lp(m, g, pivot_limit=151)
        assert sol.objective == 58
        assert answer_digest(sol) == (
            "8970a3561525b3bf181c37ce7d413075b6b84f986221e4e228214d9e51222d60"
        )
        with pytest.raises(SimplexIterationError):
            solve_covering_lp(m, g, pivot_limit=150)

    def test_bland_rule_from_the_first_pivot(self, monkeypatch):
        # Unit-weight K6 with triangles is degenerate; switching to Bland's
        # rule at once takes 28 pivots where the default path takes 20.
        g = complete_graph(6)
        m = build_incidence(g, enumerate_k_cliques(g, 3))
        default = solve_covering_lp(m, g, pivot_limit=20)
        monkeypatch.setattr(lp._DualSimplex, "DEGENERATE_SWITCH", 0)
        with pytest.raises(SimplexIterationError):
            solve_covering_lp(m, g, pivot_limit=20)
        bland = solve_covering_lp(m, g, pivot_limit=28)
        check_lp_certificate(m.row_edge_indices, g, bland)
        assert bland.objective == default.objective == 5

    def test_small_lps_pivot_total(self, monkeypatch, small_lps):
        pivots = count_pivots(monkeypatch)
        for m, g in small_lps:
            solve_covering_lp(m, g)
        assert (len(pivots), sum(pivots)) == (42, SMALL_LPS_PIVOTS)


def count_pivots(monkeypatch):
    """A list that receives the pivot count of every later simplex run."""
    pivots = []
    run = lp._DualSimplex.run

    def counted(tableau, pivot_limit):
        run(tableau, pivot_limit)
        pivots.append(tableau.pivots)

    monkeypatch.setattr(lp._DualSimplex, "run", counted)
    return pivots


def dense_tableau(tableau):
    """The tableau read back as n + 1 dense rows [basis-inverse row | value].

    Each row's stored entries go to the edges of `cols`; the column of a
    basic slack t_e, which is not stored, reads as det at its row
    `slack_row[e]` and 0 elsewhere, in the objective row too.
    """
    n = tableau.n
    dense = []
    for row in tableau.tableau:
        full = [0] * n
        for e, v in zip(tableau.cols, row[1:], strict=True):
            full[e] = v
        dense.append(full + [row[0]])
    for e, i in enumerate(tableau.slack_row):
        if i >= 0:
            dense[i][e] = tableau.det
    return dense


def least_entering(tableau, bland):
    """The entering column and reduced cost * det that the stated rule picks.

    Recomputed from the objective row [pi | sum(y)] over det and every
    row: Dantzig takes the least (reduced cost, id) pair, Bland the least
    id, in the order y_s = s, then t_e = m + e.
    """
    m, n, den = tableau.m, tableau.n, tableau.det
    pi = dense_tableau(tableau)[n][:n]
    eligible = {}  # column id -> reduced cost * det
    for s, row in enumerate(tableau.rows):
        rc = sum(pi[e] for e in row) - den
        if rc < 0:
            eligible[s] = rc
    for e in range(n):
        if pi[e] < 0:
            eligible[m + e] = pi[e]
    if not eligible:
        return None
    if bland:
        ent = min(eligible)
    else:
        ent = min(eligible, key=lambda c: (eligible[c], c))
    return ent, eligible[ent]


# At the default pivot_limit, the 42 small LPs take this many pivots in all.
# 599 -> 559 when every structure column was priced at every pivot instead
# of activated lazily in batches of 64; every objective is unchanged.
SMALL_LPS_PIVOTS = 559


@pytest.fixture(scope="module")
def small_lps():
    """About 40 small LPs: corpus draws with n <= 8, and K_5..K_7, for cycles and cliques."""
    graphs = [random_graph(random.Random((20240801, n, p, 0).__repr__()), n, p)
              for n in range(5, 9) for p in (0.3, 0.5, 0.8)]
    graphs += [complete_graph(n) for n in range(5, 8)]
    cells = ((enumerate_k_cycles, 3), (enumerate_k_cycles, 5), (enumerate_k_cliques, 3),
             (enumerate_k_cliques, 4))
    lps = [(build_incidence(g, enum(g, k)), g) for g in graphs for enum, k in cells]
    return [(m, g) for m, g in lps if m.row_count]


class TestEnteringRule:
    """Every entering choice is the least eligible column under the stated order."""

    def checked_solves(self, monkeypatch, lps, switch):
        monkeypatch.setattr(lp._DualSimplex, "DEGENERATE_SWITCH", switch)
        choose = lp._DualSimplex._choose_entering
        rules = []

        def checked(tableau):
            bland = tableau.degenerate_run >= switch
            choice = choose(tableau)
            assert choice == least_entering(tableau, bland)
            rules.append(bland)
            return choice

        monkeypatch.setattr(lp._DualSimplex, "_choose_entering", checked)
        return [solve_covering_lp(m, g) for m, g in lps], rules

    def test_dantzig_choice_is_least(self, monkeypatch, small_lps):
        assert len(small_lps) >= 40
        _, rules = self.checked_solves(monkeypatch, small_lps, lp._DualSimplex.DEGENERATE_SWITCH)
        assert len(rules) > len(small_lps) and not all(rules)

    def test_bland_choice_is_least_id(self, monkeypatch, small_lps):
        default = [solve_covering_lp(m, g) for m, g in small_lps]
        bland, rules = self.checked_solves(monkeypatch, small_lps, 0)
        assert all(rules)
        for (m, g), a, b in zip(small_lps, default, bland):
            check_lp_certificate(m.row_edge_indices, g, b)
            assert b.objective == a.objective


def unpacked_sums(tableau):
    """The packed row sums read back as m signed ints, one per `width`-bit field."""
    width, half = tableau.width, 1 << tableau.width - 1
    biased = tableau.sums + sum(half << width * s for s in range(tableau.m))
    return [(biased >> width * s & (1 << width) - 1) - half for s in range(tableau.m)]


class TestPricing:
    """The packed row sums are plain sums over pi, and entering columns over the rows."""

    def test_prices_and_columns_are_row_sums(self, monkeypatch, small_lps):
        least, column = lp._DualSimplex._least_violated, lp._DualSimplex._column
        calls = {"price": 0, "column": 0}

        def checked_least(tableau, bland):
            n = tableau.n
            pi = dense_tableau(tableau)[n][:n]
            assert unpacked_sums(tableau) == [sum(pi[e] for e in row) for row in tableau.rows]
            calls["price"] += 1
            return least(tableau, bland)

        def checked_column(tableau, ent):
            got = column(tableau, ent)
            if ent < tableau.m:
                idx = tableau.rows[ent]
                rows = dense_tableau(tableau)[:tableau.n]
                assert got == [sum(row[e] for e in idx) for row in rows]
                calls["column"] += 1
            return got

        monkeypatch.setattr(lp._DualSimplex, "_least_violated", checked_least)
        monkeypatch.setattr(lp._DualSimplex, "_column", checked_column)
        for m, g in small_lps:
            solve_covering_lp(m, g)
        assert calls["price"] > calls["column"] > len(small_lps)

    def test_wide_fields_choose_the_least_column(self, monkeypatch):
        # Acceptance cell n=12, p=0.8, draw 1, 5-cycles: k * max|pi| + det
        # outgrows 31 bits, so its fields widen to 64 bits, where Dantzig's
        # least top word is shared and the low words decide.
        g = random_graph(random.Random((20240801, 12, 0.8, 1).__repr__()), 12, 0.8)
        m = build_incidence(g, enumerate_k_cycles(g, 5))
        choose = lp._DualSimplex._choose_entering
        wide = {"calls": 0, "ties": 0}

        def checked(tableau):
            choice = choose(tableau)
            bland = tableau.degenerate_run >= tableau.DEGENERATE_SWITCH
            assert choice == least_entering(tableau, bland)
            if tableau.width > 32:
                tops = [(rc + (1 << tableau.width - 1)) >> tableau.width - 32
                        for rc in (s - tableau.det for s in unpacked_sums(tableau)) if rc < 0]
                wide["calls"] += 1
                wide["ties"] += tops.count(min(tops, default=-1)) > 1
            return choice

        monkeypatch.setattr(lp._DualSimplex, "_choose_entering", checked)
        solve_covering_lp(m, g)
        assert wide["calls"] > 0 and wide["ties"] > 0


class TestTableau:
    """The objective row is c_B times the other rows, and zero-row LPs need no pivot."""

    def test_objective_row_is_sum_of_basic_y_rows(self, monkeypatch, small_lps):
        pivot = lp._DualSimplex._pivot
        checked = []

        def checked_pivot(tableau, r, ent, rc, col):
            pivot(tableau, r, ent, rc, col)
            m, n, rows = tableau.m, tableau.n, dense_tableau(tableau)
            basic_y = [rows[i] for i, b in enumerate(tableau.basis) if b < m]
            assert rows[n] == [sum(row[j] for row in basic_y) for j in range(n + 1)]
            checked.append(tableau.det)

        monkeypatch.setattr(lp._DualSimplex, "_pivot", checked_pivot)
        for m, g in small_lps:
            solve_covering_lp(m, g)
        assert len(checked) == SMALL_LPS_PIVOTS and all(det > 0 for det in checked)

    def test_only_nonbasic_slack_columns_are_stored(self, monkeypatch, small_lps):
        # A basic slack's column is not stored and reads back as det at its
        # row; with the stored columns, the basis inverse times the basis is
        # det times the identity.
        pivot = lp._DualSimplex._pivot
        stored = []

        def checked_pivot(tableau, r, ent, rc, col):
            pivot(tableau, r, ent, rc, col)
            m, n, det, basis = tableau.m, tableau.n, tableau.det, tableau.basis
            slack_rows = {e: i for e, i in enumerate(tableau.slack_row) if i >= 0}
            assert slack_rows == {b - m: i for i, b in enumerate(basis) if b >= m}
            assert sorted(tableau.cols) == [e for e in range(n) if e not in slack_rows]
            assert len(tableau.cols) == sum(b < m for b in basis)
            binv = dense_tableau(tableau)[:n]
            for j, b in enumerate(basis):
                edges = tableau.rows[b] if b < m else (b - m,)
                assert [sum(row[e] for e in edges) for row in binv] == [
                    det * (i == j) for i in range(n)
                ]
            stored.append(len(tableau.cols))

        monkeypatch.setattr(lp._DualSimplex, "_pivot", checked_pivot)
        for m, g in small_lps:
            solve_covering_lp(m, g)
        assert len(stored) == SMALL_LPS_PIVOTS and 0 < max(stored)

    @pytest.mark.parametrize(
        "g, k",
        [(complete_graph(4), 5), (WeightedGraph.build(range(3), []), 3),
         (WeightedGraph.build(range(5), [(0, 1, 2), (1, 2, 3), (3, 4, 1)]), 3)],
        ids=["K_4 5-cycles", "empty", "sparse"],
    )
    def test_zero_rows_solve_without_pivots(self, monkeypatch, g, k):
        pivots = count_pivots(monkeypatch)
        m = build_incidence(g, enumerate_k_cycles(g, k))
        sol = solve_covering_lp(m, g)
        assert m.row_count == 0 and pivots == [0]
        assert sol == lp.FractionalSolution(g.edges, 1, (0,) * g.edge_count, Fraction(0),
                                            0, 1, (), ())
        check_lp_certificate(m.row_edge_indices, g, sol)


class TestSparseLPs:
    """An LP with far fewer rows than edges costs what its rows cost, not |E|^2.

    Only the basis inverse's columns of nonbasic slacks are stored, one per
    basic structure column, so these LPs keep a small tableau.
    """

    def test_one_row_ring_stays_small(self):
        n = 3000
        g = WeightedGraph.build(range(n), [(v, (v + 1) % n, 1) for v in range(n)])
        problem = CoveringProblem(g, n, "cycle")
        assert problem.incidence.row_count == 1
        tracemalloc.start()
        try:
            sol = problem.solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A dense (n + 1)^2 tableau of ints would take about 78 MB.
        assert sol.objective == 1 and peak < 5_000_000

    def test_disjoint_triangles_pivot_once_each(self, monkeypatch):
        count = 400
        g = WeightedGraph.build(range(3 * count), [
            (3 * i + a, 3 * i + b, 1) for i in range(count) for a, b in ((0, 1), (0, 2), (1, 2))
        ])
        pivots = count_pivots(monkeypatch)
        m = build_incidence(g, enumerate_k_cliques(g, 3))
        sol = solve_covering_lp(m, g)
        assert (m.row_count, sol.objective, pivots) == (count, count, [count])


def with_row_zero(m, idx):
    """The incidence m with row 0 replaced by the hand-built column list idx."""
    return replace(m, row_edge_indices=(idx,) + m.row_edge_indices[1:])


class TestShortRows:
    """Rows of fewer than two edges keep their verdicts (K_4, 3-cycles, row 0 replaced)."""

    @pytest.mark.parametrize("idx", [(), (0,), (0, 1)])
    def test_certificate_rejects_uncovered_short_row(self, idx):
        g = complete_graph(4)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        sol = solve_covering_lp(m, g)
        with pytest.raises(CertificateError, match="^LP certificate: cover constraint violated$"):
            check_lp_certificate(with_row_zero(m, idx).row_edge_indices, g, sol)

    def test_empty_row_is_dual_unbounded(self):
        g = complete_graph(4)
        m = with_row_zero(build_incidence(g, enumerate_k_cycles(g, 3)), ())
        with pytest.raises(SimplexIterationError, match="dual unbounded"):
            solve_covering_lp(m, g)

    @pytest.mark.parametrize(
        "idx, value_nums", [((0,), (1, 0, 0, 0, 0, 1)), ((0, 1), (0, 1, 0, 0, 1, 0))]
    )
    def test_short_row_solves(self, idx, value_nums):
        g = complete_graph(4)
        m = with_row_zero(build_incidence(g, enumerate_k_cycles(g, 3)), idx)
        sol = solve_covering_lp(m, g)
        assert (sol.objective, sol.value_den, sol.value_nums) == (2, 1, value_nums)


class TestValidation:
    def test_pivot_cap_is_internal_error(self):
        g = complete_graph(4)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        with pytest.raises(SimplexIterationError):
            solve_covering_lp(m, g, pivot_limit=0)

    def test_column_mismatch_rejected(self):
        g = complete_graph(4)
        other = complete_graph(5)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        with pytest.raises(ValueError):
            solve_covering_lp(m, other)

    def test_check_certificate_rejects_tampering(self):
        g = complete_graph(4)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        sol = solve_covering_lp(m, g)
        bad_nums = list(sol.value_nums)
        top = max(range(g.edge_count), key=lambda i: (bad_nums[i], g.edges[i]))
        bad_nums[top] = 0
        tampered = replace(sol, value_nums=tuple(bad_nums))
        with pytest.raises(ValueError):
            check_lp_certificate(m.row_edge_indices, g, tampered)


class TestStoredDual:
    """A solution keeps only its nonzero multipliers; `dual` still reads densely."""

    def test_dense_dual_reads_back(self):
        g = complete_graph(6)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        sol = solve_covering_lp(m, g)
        dense = [Fraction(0)] * sol.row_count
        for r, v in zip(sol.dual_rows, sol.dual_nums):
            dense[r] = Fraction(v, sol.dual_den)
        assert sol.row_count == m.row_count == 20
        assert sol.dual == tuple(dense)
        assert all(type(y) is Fraction for y in sol.dual)
        assert replace(sol, row_count=0, dual_rows=(), dual_nums=()).dual == ()

    def test_stored_dual_is_ints_over_their_lcm(self):
        g = complete_graph(6)
        sol = solve_covering_lp(build_incidence(g, enumerate_k_cycles(g, 3)), g)
        d, rows, scaled = sol.dual_den, sol.dual_rows, sol.dual_nums
        assert all(type(v) is int for v in (d, *rows, *scaled))
        assert list(rows) == sorted(set(rows)) and all(v > 0 for v in scaled)
        nonzero = {i: y for i, y in enumerate(sol.dual) if y}
        assert {i: Fraction(v, d) for i, v in zip(rows, scaled)} == nonzero
        assert d == lcm(*(y.denominator for y in nonzero.values()))
        empty = solve_covering_lp(build_incidence(g, []), g)
        assert (empty.row_count, empty.dual_den, empty.dual_rows, empty.dual_nums) == (0, 1, (), ())
        assert (empty.edges, empty.value_den, empty.value_nums) == (g.edges, 1, (0,) * 15)

    def test_equal_solutions_compare_equal(self):
        g = complete_graph(6)  # 20 triangles, 15 edges: some multipliers are zero
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        sol = solve_covering_lp(m, g)
        rebuilt = replace(sol, edges=tuple(list(sol.edges)), value_nums=tuple(list(sol.value_nums)))
        assert rebuilt == sol and hash(rebuilt) == hash(sol)
        assert pickle.loads(pickle.dumps(sol)) == sol
        i = sol.dual_rows[0]
        j = next(j for j in range(sol.row_count) if j not in sol.dual_rows)
        moved = tuple(sorted((j if r == i else r, v) for r, v in zip(sol.dual_rows, sol.dual_nums)))
        moved_sol = replace(
            sol, dual_rows=tuple(r for r, _ in moved), dual_nums=tuple(v for _, v in moved)
        )
        assert sorted(moved_sol.dual) == sorted(sol.dual)
        assert moved_sol != sol

    def test_tampered_dual_rejected(self):
        g = complete_graph(5)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        sol = solve_covering_lp(m, g)
        tampered = (2 * sol.dual_nums[0],) + sol.dual_nums[1:]
        with pytest.raises(CertificateError):
            check_lp_certificate(m.row_edge_indices, g, replace(sol, dual_nums=tampered))

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda s: {"dual_rows": s.dual_rows[::-1]},
             "LP certificate: dual rows not strictly ascending within range"),
            (lambda s: {"dual_rows": s.dual_rows[:-1] + (s.row_count,)}, "within range"),
            (lambda s: {"dual_nums": (0,) + s.dual_nums[1:]},
             "LP certificate: zero or negative dual multiplier"),
            (lambda s: {"row_count": s.row_count + 1},
             "LP certificate: wrong number of dual multipliers"),
            (lambda s: {"dual_nums": tuple(2 * v for v in s.dual_nums)},
             "LP certificate: strong duality violated"),
        ],
        ids=["rows out of order", "row out of range", "zero num", "wrong row_count", "doubled nums"],
    )
    def test_malformed_stored_dual_rejected(self, tamper, message):
        g = complete_graph(6)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        sol = solve_covering_lp(m, g)
        with pytest.raises(CertificateError, match=message):
            check_lp_certificate(m.row_edge_indices, g, replace(sol, **tamper(sol)))

    def test_at_most_one_multiplier_per_edge_stored(self):
        g = complete_graph(7)
        m = build_incidence(g, enumerate_k_cycles(g, 5))
        sol = solve_covering_lp(m, g)
        assert m.row_count == 252 > g.edge_count == 21
        assert 0 < len(sol.dual_rows) <= g.edge_count
        assert len(sol.dual) == m.row_count


class TestDebugDump:
    def test_format_lp_round_trippable_text(self):
        g = complete_graph(3)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        text = format_lp(m, g)
        assert "Minimize" in text and "Subject To" in text and "End" in text
        assert " s_0_1_2: x_0_1 + x_0_2 + x_1_2 >= 1" in text
        assert " 0 <= x_0_1 <= 1" in text

    def test_format_lp_rejects_another_graphs_matrix(self):
        g = complete_graph(4)
        m = build_incidence(g, enumerate_k_cycles(g, 3))
        with pytest.raises(ValueError, match="do not match the graph's edge order"):
            format_lp(m, complete_graph(5))
