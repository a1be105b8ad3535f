"""The benchmark's workloads: inputs made from a seed, the ops, and each op's gate.

Every workload is a closed loop with one client: one op runs after another,
in one process, with no threads.  An op is one unit of user-visible work.
Ops call kcover through module attributes (``structures.enumerate_k_cycles``
rather than a name bound at import) so the traced run can wrap them.

The gate on every op uses the recorded seed-code answers in reference.json
where they exist (at ``corpus.CORPUS_SEED``) and the independent checks in
checks.py on every seed.  An exhausted node budget is a correct answer
("unsolved"), counted by ``Outcome.solved``; only a wrong or missing answer
fails an op.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from kcover import cli, cover, lp, structures

import checks
import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")
NODE_BUDGET = 30_000  # the acceptance sweep's budget


@dataclass
class Op:
    """One timed call, and what the gate needs to judge its answer."""

    problem: str  # "<graph id>/<kind><k>" or "<graph id>/pack<k>"
    graph: Any
    kind: str
    k: int
    run: Callable[[], Any]
    label: str
    after: Callable[[Any], None] | None = None  # untimed, on the op's answer


@dataclass
class Outcome:
    ok: bool
    solved: bool = True
    ratios: list[float] = field(default_factory=list)
    text: str = ""  # canonical rendering of the answer, for the behaviour digest
    why: str = ""


class Checker:
    """Gates ops against reference answers and independent recomputation."""

    def __init__(self, seed: int):
        self.reference = load_reference(seed)
        self._lp: dict[str, float | None] = {}
        self._structures: dict[str, list] = {}

    def ref(self, problem: str, key: str):
        return self.reference.get(problem, {}).get(key)

    def structures(self, op: Op) -> list[frozenset]:
        if op.problem not in self._structures:
            self._structures[op.problem] = checks.structures(op.graph, op.kind, op.k)
        return self._structures[op.problem]

    def uncovered(self, op: Op, cover_edges) -> int:
        chosen = set(cover_edges)
        return sum(1 for s in self.structures(op) if not s & chosen)

    def lp_float(self, op: Op) -> float | None:
        if op.problem not in self._lp:
            self._lp[op.problem] = checks.lp_value(op.graph, self.structures(op))
        return self._lp[op.problem]

    def lp_objective_ok(self, op: Op, value: Fraction) -> str:
        recorded = self.ref(op.problem, "lp")
        if recorded is not None and Fraction(recorded) != value:
            return f"lp_objective {value} != recorded {recorded}"
        if not checks.lp_matches(value, self.lp_float(op)):
            return f"lp_objective {value} disagrees with HiGHS {self.lp_float(op)}"
        return ""

    def cover_ok(self, op: Op, algorithm: str, edges, weight, lp_objective, ratio) -> str:
        """Reason a rounded cover fails its gate, or '' when it passes."""
        try:
            true_weight = checks.weight_of(op.graph, edges)
        except KeyError as exc:
            return f"cover edge {exc} not in graph"
        if true_weight != weight:
            return f"cover_weight {weight} != {true_weight}"
        missed = self.uncovered(op, edges)
        if missed:
            return f"{algorithm} cover leaves {missed} structures"
        if ratio != checks.expected_ratio(op.kind, op.k, algorithm):
            return f"{algorithm} ratio_bound {ratio}"
        if Fraction(weight) > ratio * lp_objective:
            return f"cover_weight {weight} > {ratio} * {lp_objective}"
        return self.lp_objective_ok(op, lp_objective)


def load_reference(seed: int) -> dict:
    """Recorded seed-code answers, keyed by problem; empty for other seeds."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["problems"] if data["seed"] == seed else {}


def _ratio(weight, lp_objective) -> list[float]:
    return [float(Fraction(weight) / lp_objective)] if lp_objective else []


# -- lp-dense -----------------------------------------------------------------

LP_DENSE_N, LP_DENSE_P, LP_DENSE_M = 9, 0.8, 29
LP_DENSE_GRAPHS = 96
LP_DENSE_K = 5


def fixed_size_graphs(seed: int, n: int, p: float, m: int, count: int):
    """The first `count` draws of the (n, p) corpus cell that have exactly m edges.

    Holding the edge count fixed keeps the cost of an op from swinging with
    the number of edges drawn, so runs at different seeds are comparable.
    """
    out = []
    i = 0
    while len(out) < count:
        g = corpus.graph(seed, n, p, i)
        if g.edge_count == m:
            out.append((corpus.graph_id(n, p, i), g))
        i += 1
    return out


def lp_dense_ops(seed: int, workdir: str) -> list[Op]:
    def make(gid, g):
        def run():
            found = structures.enumerate_k_cycles(g, LP_DENSE_K)
            matrix = structures.build_incidence(g, found)
            solution = lp.solve_covering_lp(matrix, g)
            basic = cover.cover_k_cycles_basic(g, LP_DENSE_K, solution=solution)
            improved = cover.cover_k_cycles_odd(g, LP_DENSE_K, solution=solution)
            feasible = [
                structures.verify_cover(g, LP_DENSE_K, "cycle", r.cover)
                for r in (basic, improved)
            ]
            return solution.objective, (basic, improved), feasible

        return Op(f"{gid}/cycle{LP_DENSE_K}", g, "cycle", LP_DENSE_K, run, "rounding")

    graphs = fixed_size_graphs(seed, LP_DENSE_N, LP_DENSE_P, LP_DENSE_M, LP_DENSE_GRAPHS)
    return [make(gid, g) for gid, g in graphs]


def lp_dense_check(checker: Checker, op: Op, result) -> Outcome:
    objective, results, feasible = result
    if not all(feasible):
        return Outcome(False, why="verify_cover rejected a rounded cover")
    ratios, text = [], [op.problem, f"lp={objective}"]
    for algorithm, r in zip(("basic", "improved"), results):
        if r.lp_objective != objective:
            return Outcome(False, why=f"{algorithm} lp_objective changed")
        why = checker.cover_ok(
            op, algorithm, list(r.cover), r.cover_weight, r.lp_objective, r.ratio_bound
        )
        if why:
            return Outcome(False, why=why)
        ratios += _ratio(r.cover_weight, r.lp_objective)
        text.append(f"{algorithm}={r.cover_weight}:" + ",".join(f"{u}-{v}" for u, v in r.cover))
    return Outcome(True, ratios=ratios, text=" ".join(text))


# -- cli-small ----------------------------------------------------------------

CLI_SIZES = range(4, 10)
CLI_PROBS = (0.3, 0.5)
CLI_DRAWS = 80  # about one run of ops per pass, so few ops repeat within a run
CLI_CELLS = (("cycle", 3), ("cycle", 5), ("clique", 3), ("clique", 4))
CLI_BUDGET = ["--node-budget", str(NODE_BUDGET)]


def _call_cli(argv: list[str]):
    """kcover.cli.main in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _report(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _edges(text: str) -> list[tuple[int, int]]:
    return [tuple(int(v) for v in e.split("-")) for e in text.split(",") if e]


def cli_small_inputs(seed: int, workdir: str):
    """Write each small corpus graph to a file; yield (graph id, graph, path).

    Each (n, p) cell keeps draws with its most likely edge count, round(p *
    C(n, 2)), so the heaviest ops (5-cycle LPs at n=9) do not swing with the
    edges drawn.  Draw-major order, so any prefix of a pass mixes every cell.
    """
    from kcover.graph import serialize_graph

    os.makedirs(workdir, exist_ok=True)
    cells = [
        fixed_size_graphs(seed, n, p, round(p * n * (n - 1) / 2), CLI_DRAWS)
        for n in CLI_SIZES
        for p in CLI_PROBS
    ]
    for i in range(CLI_DRAWS):
        for cell in cells:
            gid, g = cell[i]
            path = os.path.join(workdir, f"{gid}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_graph(g))
            yield gid, g, path


def cli_small_ops(seed: int, workdir: str) -> list[Op]:
    """Per graph: cover (basic, improved) and verify of each cover for every
    (kind, k) cell, then exact clique k=3 and k=4 covers and a k=3 packing."""
    ops = []

    def cli_op(problem, g, kind, k, label, argv, after=None):
        ops.append(Op(problem, g, kind, k, lambda: _call_cli(argv), label, after))

    for gid, g, path in cli_small_inputs(seed, workdir):
        for kind, k in CLI_CELLS:
            covers = {a: os.path.join(workdir, f"{gid}-{kind}{k}-{a}.cover")
                      for a in ("basic", "improved")}
            for algorithm, cover_path in covers.items():

                def write_cover(result, cover_path=cover_path, n=g.vertex_count):
                    edges = _edges(_report(result[1]).get("cover", ""))
                    with open(cover_path, "w", encoding="utf-8") as fh:
                        fh.write("".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges]))

                argv = ["cover", path, "--k", str(k), "--kind", kind, "--algorithm", algorithm]
                cli_op(f"{gid}/{kind}{k}", g, kind, k, algorithm, argv, write_cover)
            for cover_path in covers.values():
                argv = ["verify", path, "--k", str(k), "--kind", kind, "--cover-file", cover_path]
                cli_op(f"{gid}/{kind}{k}", g, kind, k, "verify", argv)
        for k in (3, 4):
            argv = ["exact", path, "--k", str(k), "--kind", "clique"] + CLI_BUDGET
            cli_op(f"{gid}/clique{k}", g, "clique", k, "exact", argv)
        cli_op(f"{gid}/pack3", g, "clique", 3, "pack", ["pack", path, "--k", "3"] + CLI_BUDGET)
    return ops


def _lp_bound(checker: Checker, op: Op) -> Fraction | float | None:
    """The covering LP value: recorded, else HiGHS; None without either."""
    recorded = checker.ref(op.problem, "lp")
    return Fraction(recorded) if recorded is not None else checker.lp_float(op)


def _check_packing(checker: Checker, op: Op, report: dict, stdout: str) -> Outcome:
    cliques = [tuple(int(v) for v in c.split(".")) for c in report["cliques"].split(",") if c]
    used: set = set()
    for vs in cliques:
        pairs = {(vs[a], vs[b]) for a in range(len(vs)) for b in range(a + 1, len(vs))}
        if len(vs) != op.k or not checks.is_clique(op.graph, vs) or pairs & used:
            return Outcome(False, why=f"packing member {vs} invalid or not disjoint")
        used |= pairs
    count = int(report["count"])
    recorded = checker.ref(op.problem, "pack")
    if count != len(cliques) or recorded not in (None, count):
        return Outcome(False, why=f"packing count {count}, recorded {recorded}")
    return Outcome(True, text=stdout)


def _check_exact(checker: Checker, op: Op, report: dict, stdout: str) -> Outcome:
    weight = int(report["weight"])
    edges = _edges(report["cover"])
    try:
        true_weight = checks.weight_of(op.graph, edges)
    except KeyError as exc:
        return Outcome(False, why=f"cover edge {exc} not in graph")
    recorded = checker.ref(op.problem, "opt")
    if true_weight != weight or recorded not in (None, weight):
        return Outcome(False, why=f"optimum {weight}, recorded {recorded}")
    if checker.uncovered(op, edges):
        return Outcome(False, why="exact cover leaves a structure")
    bound = _lp_bound(checker, op)
    if bound is not None and weight < bound - checks.LP_TOLERANCE:
        return Outcome(False, why=f"optimum {weight} below LP bound {bound}")
    return Outcome(True, text=stdout)


def _check_rounding(checker: Checker, op: Op, report: dict, stdout: str) -> Outcome:
    lp_objective = Fraction(report["lp_objective"])
    weight = int(report["cover_weight"])
    if report.get("certified") != "true":
        return Outcome(False, why="report not certified")
    why = checker.cover_ok(op, op.label, _edges(report["cover"]), weight, lp_objective,
                           Fraction(report["ratio_bound"]))
    if why:
        return Outcome(False, why=why)
    return Outcome(True, ratios=_ratio(weight, lp_objective), text=stdout)


def cli_small_check(checker: Checker, op: Op, result) -> Outcome:
    code, stdout = result
    report = _report(stdout)
    if op.label in ("exact", "pack"):
        status = report.get("status")
        if (status, code) == ("unsolved", 3):
            return Outcome(True, solved=False, text=stdout)
        if (status, code) != ("optimal", 0):
            return Outcome(False, why=f"status {status!r}, exit code {code}")
        if op.label == "pack":
            return _check_packing(checker, op, report, stdout)
        return _check_exact(checker, op, report, stdout)
    if code != 0:
        return Outcome(False, why=f"exit code {code}")
    if op.label == "verify":
        ok = report.get("feasible") == "true"
        return Outcome(ok, text=stdout, why="" if ok else "verify said infeasible")
    return _check_rounding(checker, op, report, stdout)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int, str], list[Op]]
    check: Callable[[Checker, Op, Any], Outcome]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lp-dense", lp_dense_ops, lp_dense_check),
        Workload("cli-small", cli_small_ops, cli_small_check),
    )
}
