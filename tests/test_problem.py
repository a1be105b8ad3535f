import ast
import gc
import random
import subprocess
import sys
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import kcover
import kcover.lp
import kcover.structures
from kcover.certificates import CertificateError, check_lp_certificate
from kcover.cover import cover_k_cycles_basic, cover_k_cycles_odd, round_basic, round_improved
from kcover.exact import exact_min_cover, max_packing, min_cover
from kcover.graph import WeightedGraph, complete_graph
from kcover.lp import solve_covering_lp
from kcover.structures import CoveringProblem, build_incidence, enumerate_k_cycles


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def corpus_graph(n, p, i):
    """Draw i of the acceptance corpus's (n, p) cell, as tests/test_acceptance.py builds it."""
    rng = random.Random((20240801, n, p, i).__repr__())
    edges = [(u, v, rng.randint(1, 10)) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return WeightedGraph.build(range(n), edges)


def wheel(n):
    """Hub 0 joined to a rim cycle 1..n-1, with varied weights."""
    rim = [(i, i % (n - 1) + 1, 1 + i % 3) for i in range(1, n)]
    spokes = [(0, i, 2 + i % 2) for i in range(1, n)]
    return WeightedGraph.build(range(n), rim + spokes)


class TestSharedProblem:
    def test_one_enumeration_and_one_lp_solve(self, monkeypatch):
        enumerations = counting(monkeypatch, kcover.structures, "_enumerate")
        solves = counting(monkeypatch, kcover.lp, "solve_covering_lp")
        problem = CoveringProblem(complete_graph(5), 3, "cycle")
        basic = round_basic(problem)
        improved = round_improved(problem)
        oracle = min_cover(problem)
        assert len(enumerations) == 1
        assert len(solves) == 1
        assert basic.lp_objective == improved.lp_objective <= oracle.weight <= basic.cover_weight

    def test_same_results_as_the_wrappers(self):
        g = wheel(8)
        problem = CoveringProblem(g, 3, "cycle")
        assert round_basic(problem) == cover_k_cycles_basic(g, 3)
        assert min_cover(problem) == exact_min_cover(g, 3, "cycle")

    def test_results_do_not_keep_the_problem_alive(self):
        problem = CoveringProblem(wheel(7), 3, "clique")
        ref = weakref.ref(problem)
        result = round_improved(problem)
        oracle = min_cover(problem)
        del problem
        gc.collect()
        assert ref() is None
        assert result.cover_weight >= oracle.weight

    def test_supplied_solution_checked_then_kept(self, monkeypatch):
        g = complete_graph(4)
        sol = solve_covering_lp(build_incidence(g, enumerate_k_cycles(g, 3)), g)
        solves = counting(monkeypatch, kcover.lp, "solve_covering_lp")
        problem = CoveringProblem(g, 3, "cycle")
        assert problem.solve(sol) is sol
        assert problem.solve() is sol
        assert solves == []

    def test_rejects_bad_k_and_kind_up_front(self):
        with pytest.raises(ValueError):
            CoveringProblem(complete_graph(4), 2, "cycle")
        with pytest.raises(ValueError):
            CoveringProblem(complete_graph(4), 3, "path")

    def test_improved_needs_odd_cycles(self):
        with pytest.raises(ValueError, match="odd k"):
            round_improved(CoveringProblem(complete_graph(5), 4, "cycle"))

    def test_min_cover_checks_the_certificate_once(self, monkeypatch):
        checks = counting(monkeypatch, kcover.lp, "check_lp_certificate")
        oracle = min_cover(CoveringProblem(wheel(8), 3, "cycle"))
        assert oracle.solved
        assert len(checks) == 1

    def test_cover_and_packing_share_one_enumeration(self, monkeypatch):
        enumerations = counting(monkeypatch, kcover.structures, "_enumerate")
        problem = CoveringProblem(complete_graph(6), 4, "cycle")
        tau = min_cover(problem).weight
        nu = max_packing(problem).count
        assert len(enumerations) == 1
        assert (nu, tau) == (3, 8)
        assert nu <= tau <= problem.edges_per_structure * nu


class TestCertificates:
    def test_bogus_solution_rejected_under_python_O(self):
        script = (
            "from fractions import Fraction\n"
            "from kcover import CertificateError, FractionalSolution, complete_graph\n"
            "from kcover import cover_k_cycles_basic\n"
            "g = complete_graph(4)\n"
            "zero = (0,) * g.edge_count\n"
            "bogus = FractionalSolution(g.edges, 1, zero, Fraction(0), 4, 1, (), ())\n"
            "try:\n"
            "    cover_k_cycles_basic(g, 3, solution=bogus)\n"
            "except CertificateError as exc:\n"
            "    print('rejected:', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("rejected: LP certificate:")

    def certificate(self, g, k=3):
        m = build_incidence(g, enumerate_k_cycles(g, k))
        return m.row_edge_indices, g, solve_covering_lp(m, g)

    def test_solver_output_passes(self):
        rows, g, sol = self.certificate(wheel(8))
        assert check_lp_certificate(rows, g, sol) is None

    @pytest.mark.parametrize(
        "g, k", [(wheel(8), 3), (corpus_graph(10, 0.3, 6), 5)], ids=["wheel8", "n10-p0.3-6"]
    )
    def test_stored_dual_is_feasible_and_sums_to_the_objective(self, g, k):
        # The oracle's dual bound reads the stored y as is, so A'y <= w must
        # hold.  n10-p0.3-6 with 5-cycles is the smallest corpus LP whose
        # dual, when the solver still carried x <= 1, had A'y > w.
        problem = CoveringProblem(g, k, "cycle")
        sol = problem.solve()
        d = sol.dual_den
        assert Fraction(sum(sol.dual_nums), d) == sol.objective
        load = [0] * g.edge_count
        for r, v in zip(sol.dual_rows, sol.dual_nums):
            for e in problem.incidence.row_edge_indices[r]:
                load[e] += v
        assert all(l <= w * d for l, w in zip(load, g.weights))

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda g, s: {"value_den": 2 * s.value_den, "value_nums": (
                3 * s.value_den, *(2 * v for v in s.value_nums[1:]))}, "box"),
            (lambda g, s: {"objective": s.objective + Fraction(1, 7)}, "objective"),
            (lambda g, s: {"dual_nums": (-1,) + s.dual_nums[1:]}, "negative dual"),
            (lambda g, s: {"row_count": s.row_count - 1}, "number of dual"),
            (lambda g, s: {"dual_nums": tuple(3 * v for v in s.dual_nums)}, "strong duality"),
            pytest.param(lambda g, s: {"value_den": 0}, "LP certificate: box bounds violated",
                         id="zero value_den"),
            pytest.param(lambda g, s: {"value_den": -s.value_den, "value_nums": tuple(
                -v for v in s.value_nums)}, "box", id="negative value_den"),
            pytest.param(lambda g, s: {"value_nums": (s.value_den + 1, *s.value_nums[1:])},
                         "box", id="num above value_den"),
            pytest.param(lambda g, s: {"value_nums": (-1, *s.value_nums[1:])},
                         "box", id="negative num"),
            pytest.param(lambda g, s: {"value_nums": s.value_nums[:-1]},
                         "solution is keyed by a different edge set", id="num missing"),
            pytest.param(lambda g, s: {"edges": s.edges[::-1]},
                         "different edge set", id="edges reversed"),
            pytest.param(lambda g, s: {"dual_rows": s.dual_rows[:1],
                                       "dual_nums": (sum(s.dual_nums),)},
                         "LP certificate: dual infeasible", id="sum moved to one row"),
            pytest.param(lambda g, s: {"objective": s.objective - 1},
                         "LP certificate: objective mismatch", id="objective lowered"),
        ],
    )
    def test_tampering_rejected(self, tamper, message):
        rows, g, sol = self.certificate(complete_graph(5))
        with pytest.raises(CertificateError, match=message):
            check_lp_certificate(rows, g, replace(sol, **tamper(g, sol)))

    def test_weak_dual_fails_strong_duality(self):
        rows, g, sol = self.certificate(complete_graph(5))
        with pytest.raises(CertificateError, match="strong duality"):
            check_lp_certificate(rows, g, replace(sol, dual_den=2 * sol.dual_den))

    def test_every_certificate_message_is_in_a_test(self):
        # A check that no test trips could become a no-op with tier-1 green,
        # so each `require` message must appear in some test, most as match=.
        source = (Path(kcover.__file__).parent / "certificates.py").read_text()
        messages = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require":
                text = node.args[1]
                # An f-string message is matched by its literal tail.
                if isinstance(text, ast.JoinedStr):
                    text = text.values[-1]
                messages.append(text.value.strip())
        tests = "".join(path.read_text() for path in Path(__file__).parent.glob("test_*.py"))
        assert len(messages) >= 20
        assert [m for m in messages if m not in tests] == []

    def test_package_has_no_assert_statements(self):
        # Every check is program logic, so none of them vanishes under python -O.
        sources = sorted(Path(kcover.__file__).parent.glob("*.py"))
        asserts = [
            f"{path.name}:{node.lineno}"
            for path in sources
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert len(sources) >= 8
        assert asserts == []

    def test_package_has_no_self_calls(self):
        # Searches run on explicit stacks, so no input depth meets Python's
        # frame limit; `name(...)` or `x.name(...)` inside `def name` would.
        def is_super(node):
            return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "super"

        sources = sorted(Path(kcover.__file__).parent.glob("*.py"))
        self_calls = [
            f"{path.name}:{call.lineno} {fn.name}"
            for path in sources
            for fn in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for call in ast.walk(fn)
            if isinstance(call, ast.Call)
            and (
                getattr(call.func, "id", None) == fn.name
                or getattr(call.func, "attr", None) == fn.name and not is_super(call.func.value)
            )
        ]
        assert len(sources) >= 8
        assert self_calls == []

    def test_no_path_reads_the_dense_dual(self, monkeypatch):
        self.every_path_without(monkeypatch, "dual")

    def test_no_path_reads_the_rational_values(self, monkeypatch):
        self.every_path_without(monkeypatch, "values")

    def every_path_without(self, monkeypatch, read_back):
        """Solve, certify, round and run the oracle while `read_back` raises."""

        def forbidden(self):
            raise AssertionError(f"{read_back} was read")

        monkeypatch.setattr(kcover.lp.FractionalSolution, read_back, property(forbidden))
        # The K5 optimum is 1/3 on every edge, so the improved rounding leaves
        # residual edges whose values the bipartization check reads.
        for g in (wheel(8), complete_graph(5)):
            sol = solve_covering_lp(build_incidence(g, enumerate_k_cycles(g, 3)), g)
            problem = CoveringProblem(g, 3, "cycle")
            assert problem.solve() == sol
            basic = round_basic(problem)
            improved = round_improved(problem)
            oracle = min_cover(problem)
            assert oracle.solved and sol.objective <= oracle.weight <= improved.cover_weight
            assert cover_k_cycles_basic(g, 3, solution=sol) == basic
            assert cover_k_cycles_odd(g, 3, solution=sol) == improved
        assert improved.parts.residual_edges
