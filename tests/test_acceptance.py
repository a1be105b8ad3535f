"""Acceptance suite: one test per criterion, each printing a PASS line.

The random corpus is 216 seeded graphs (9 sizes x 3 densities x 8 draws)
with weights uniform in 1..10.  A module-scoped sweep runs all four
algorithms on every instance once and attempts the exact oracle whenever
the instance is small enough to finish inside a fixed node budget; the
criteria then read from those shared records.
"""

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from kcover import lp
from kcover.cli import main
from kcover.cover import CoverResult, round_basic, round_improved
from kcover.exact import (
    ExactCover,
    UnsolvedInstanceError,
    exact_max_packing,
    exact_min_cover,
    min_cover,
    sandwich_check,
    turan_tau_complete,
)
from kcover.graph import (
    EdgeSet,
    WeightedGraph,
    complete_graph,
    edge_induced_subgraph,
    remove_edges,
    serialize_graph,
    total_weight,
    two_coloring,
)
from kcover.structures import (
    CoveringProblem,
    enumerate_k_cliques,
    enumerate_k_cycles,
    verify_cover,
)

CORPUS_SEED = 20240801
SIZES = range(4, 13)  # n <= 12
EDGE_PROBS = (0.3, 0.5, 0.8)
GRAPHS_PER_CELL = 8
CYCLE_KS = (3, 5)
CLIQUE_KS = (3, 4)
ORACLE_ROW_CAP = 400
ORACLE_NODE_BUDGET = 30_000
SWEEP_TIME_LIMIT_SECONDS = 300.0
SWEEP_ANSWERS = Path(__file__).resolve().parent / "golden" / "sweep_answers.txt"


@dataclass
class Instance:
    """One (graph, k, kind) cell of the sweep with all its run artifacts."""

    graph_id: str
    graph: WeightedGraph
    kind: str
    k: int
    row_count: int
    runs: list  # list[CoverResult]
    oracle: ExactCover | None


def _random_graph(rng: random.Random, n: int, p: float) -> WeightedGraph:
    edges = [
        (u, v, rng.randint(1, 10))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedGraph.build(range(n), edges)


def build_corpus() -> list[tuple[str, WeightedGraph]]:
    graphs = []
    for n in SIZES:
        for p in EDGE_PROBS:
            for i in range(GRAPHS_PER_CELL):
                rng = random.Random((CORPUS_SEED, n, p, i).__repr__())
                graphs.append((f"n{n}-p{p}-{i}", _random_graph(rng, n, p)))
    return graphs


def run_sweep(corpus) -> tuple[list[Instance], float]:
    instances: list[Instance] = []
    started = time.perf_counter()
    for graph_id, g in corpus:
        cells = [("cycle", k) for k in CYCLE_KS] + [("clique", k) for k in CLIQUE_KS]
        for kind, k in cells:
            # One problem per cell: both roundings and the oracle share its
            # structures and its LP optimum.
            problem = CoveringProblem(g, k, kind)
            runs = [round_basic(problem), round_improved(problem)]
            row_count = len(problem.structures)
            oracle = None
            if row_count <= ORACLE_ROW_CAP:
                oracle = min_cover(problem, node_budget=ORACLE_NODE_BUDGET)
            instances.append(Instance(graph_id, g, kind, k, row_count, runs, oracle))
    elapsed = time.perf_counter() - started
    return instances, elapsed


@pytest.fixture(scope="module")
def corpus() -> list[tuple[str, WeightedGraph]]:
    return build_corpus()


@pytest.fixture(scope="module")
def counted_sweep(corpus):
    """The sweep, and the pivot count of every simplex run it made."""
    # The same counter as test_lp.count_pivots, written out: perfbench
    # loads this file on its own, so it imports no sibling test module.
    pivots = []
    run = lp._DualSimplex.run

    def counted(tableau, pivot_limit):
        run(tableau, pivot_limit)
        pivots.append(tableau.pivots)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp._DualSimplex, "run", counted)
        instances, elapsed = run_sweep(corpus)
    return instances, elapsed, pivots


@pytest.fixture(scope="module")
def sweep(counted_sweep):
    instances, elapsed, _ = counted_sweep
    return instances, elapsed


def answer_lines(instances) -> list[str]:
    """One line per instance: `graph_id kind k sha256` of all its answers.

    The digest covers the LP answer (objective, x and the stored dual), both
    rounding covers with their weights, and the oracle's status, weight,
    node count and cover.
    """
    lines = []
    for inst in instances:
        sol = inst.runs[0].solution
        oracle = inst.oracle
        answer = (
            inst.graph_id, inst.kind, inst.k,
            sol.objective, sol.value_den, sol.value_nums,
            sol.dual_den, sol.dual_rows, sol.dual_nums,
            [(tuple(run.cover), run.cover_weight) for run in inst.runs],
            None if oracle is None else (
                oracle.status, oracle.weight, oracle.node_count,
                None if oracle.cover is None else tuple(oracle.cover),
            ),
        )
        digest = hashlib.sha256(repr(answer).encode()).hexdigest()
        lines.append(f"{inst.graph_id} {inst.kind} {inst.k} {digest}")
    return lines


def test_sweep_answers_pinned(sweep):
    """Every instance's answers match its line in tests/golden/sweep_answers.txt.

    To accept an intended change, re-record with
    `PYTHONPATH=src python tests/test_acceptance.py > tests/golden/sweep_answers.txt`
    and say in the change description which instances changed and why.
    """
    instances, _ = sweep
    expected = SWEEP_ANSWERS.read_text().splitlines()
    actual = answer_lines(instances)
    changed = [a.rsplit(" ", 1)[0] for a, b in zip(actual, expected) if a != b]
    assert not changed, f"sweep answers changed on {len(changed)} instances: {changed}"
    assert len(actual) == len(expected), f"{len(actual)} instances, {len(expected)} pinned"


def test_sweep_pivot_total(counted_sweep):
    """The 864 corpus LPs take 13,929 pivots at the default pivot_limit.

    Every cell runs the simplex; the 264 cells without structures take no
    pivot.  Pricing may get faster without moving a pivot; a pin changes
    only with a recorded reason, written next to it.
    """
    instances, _, pivots = counted_sweep
    assert len(instances) == 864
    # 18,412 -> 13,929 when every structure column was priced at every pivot
    # instead of activated lazily in batches of 64; every objective is unchanged.
    assert (len(pivots), pivots.count(0), sum(pivots)) == (864, 264, 13_929)


def test_criterion_01_feasibility_sweep(sweep, corpus):
    instances, elapsed = sweep
    assert len(corpus) >= 200
    failures = [
        (inst.graph_id, inst.kind, inst.k, run.algorithm)
        for inst in instances
        for run in inst.runs
        if not verify_cover(inst.graph, inst.k, inst.kind, run.cover)
    ]
    assert failures == []
    assert elapsed < SWEEP_TIME_LIMIT_SECONDS
    runs = sum(len(inst.runs) for inst in instances)
    print(
        f"\nACCEPTANCE 1 PASS - feasibility: {runs} runs on {len(corpus)} graphs, "
        f"0 infeasible covers (sweep {elapsed:.1f}s)"
    )


def test_criterion_02_ratio_certificates(sweep):
    instances, _ = sweep
    expected_bounds = {
        ("cycle", "basic"): lambda k: Fraction(k),
        ("cycle", "improved"): lambda k: Fraction(2 * k - 1, 2),
        ("clique", "basic"): lambda k: Fraction(comb(k, 2)),
        ("clique", "improved"): lambda k: Fraction(k * k - k - 1, 2),
    }
    checked = 0
    for inst in instances:
        for run in inst.runs:
            variant = "improved" if "improved" in run.algorithm else "basic"
            assert run.ratio_bound == expected_bounds[(inst.kind, variant)](inst.k)
            assert Fraction(run.cover_weight) <= run.ratio_bound * run.lp_objective
            checked += 1
    print(f"\nACCEPTANCE 2 PASS - ratio certificates: {checked} runs, 0 violations")


def test_criterion_03_oracle_sandwich(sweep):
    instances, _ = sweep
    solved = 0
    for inst in instances:
        if inst.oracle is None or not inst.oracle.solved:
            continue
        solved += 1
        exact_weight = inst.oracle.weight
        for run in inst.runs:
            assert run.lp_objective <= exact_weight <= run.cover_weight
    assert solved >= 100, "oracle solved too few corpus instances to be meaningful"
    print(
        f"\nACCEPTANCE 3 PASS - LP <= exact <= approximation on all "
        f"{solved} oracle-solved instances"
    )


def test_criterion_04_complete_graph_ground_truth():
    for n in range(3, 8):
        for k in range(3, n + 1):
            res = exact_min_cover(complete_graph(n), k, "clique")
            assert res.solved
            assert res.weight == turan_tau_complete(n, k)
    assert exact_min_cover(complete_graph(4), 3, "cycle").weight == 2
    assert exact_min_cover(complete_graph(5), 3, "cycle").weight == 4
    assert exact_min_cover(complete_graph(5), 4, "clique").weight == 2
    assert exact_min_cover(complete_graph(7), 3, "clique").weight == 9
    print(
        "\nACCEPTANCE 4 PASS - exact covers of K_n match Turan closed forms "
        "for 3 <= k <= n <= 7"
    )


def test_criterion_05_packing_ground_truth():
    assert exact_max_packing(complete_graph(4), 3).count == 1
    assert exact_max_packing(complete_graph(6), 3).count == 4
    k7 = exact_max_packing(complete_graph(7), 3)
    assert k7.count == 7
    assert k7.cliques is not None
    used = EdgeSet()
    for s in k7.cliques:
        used = used | s.edges
    assert used == complete_graph(7).edge_set(), "K7 packing must be perfect"
    print(
        "\nACCEPTANCE 5 PASS - packing numbers 1/4/7 on K4/K6/K7; "
        "the K7 packing uses all 21 edges"
    )


def test_criterion_06_sandwich_inequality_and_ratio_table(sweep, capsys):
    instances, _ = sweep
    # Part 1: the covering/packing inequality on every solvable corpus (graph, k).
    checked = 0
    seen = set()
    for inst in instances:
        if inst.kind != "clique" or (inst.graph_id, inst.k) in seen:
            continue
        seen.add((inst.graph_id, inst.k))
        if inst.row_count > ORACLE_ROW_CAP:
            continue
        try:
            nu, tau, ok = sandwich_check(
                inst.graph, inst.k, node_budget=ORACLE_NODE_BUDGET
            )
        except UnsolvedInstanceError:
            continue
        assert ok, f"sandwich violated on {inst.graph_id} k={inst.k}"
        assert nu <= tau <= comb(inst.k, 2) * nu
        checked += 1
    assert checked >= 100

    # Part 2: the k=3 ratio table for K_3..K_9 via the CLI, against the oracle.
    code = main(["ratio-study", "--k", "3", "--kind", "clique", "--n-range", "3:9"])
    out = capsys.readouterr().out
    assert code == 0
    ratios = {}
    for line in out.strip().splitlines():
        fields = dict(part.split("=") for part in line.split())
        n = int(fields["n"])
        tau, nu = int(fields["tau"]), int(fields["nu"])
        cover = exact_min_cover(complete_graph(n), 3, "clique")
        packing = exact_max_packing(complete_graph(n), 3)
        assert (tau, nu) == (cover.weight, packing.count)
        assert Fraction(fields["tau_over_nu"]) == Fraction(tau, nu)
        ratios[n] = Fraction(tau, nu)
    assert set(ratios) == set(range(3, 10))
    assert {Fraction(1), Fraction(2), Fraction(9, 7), Fraction(4, 3)} <= set(ratios.values())
    assert all(ratios[n] <= Fraction(3, 2) for n in range(6, 10))
    print(
        f"\nACCEPTANCE 6 PASS - sandwich inequality on {checked} corpus instances; "
        f"K_3..K_9 ratio table matches the oracle and stays within 3/2 from n=6 on"
    )


def test_criterion_07_residual_value_window(sweep):
    instances, _ = sweep
    checked_edges = 0
    for inst in instances:
        t = inst.k if inst.kind == "cycle" else comb(inst.k, 2)
        lo, hi = Fraction(1, 2 * t - 1), Fraction(2, 2 * t - 1)
        for run in inst.runs:
            if run.parts is None:
                continue
            for e in run.parts.residual_edges:
                assert lo <= run.solution.values[e] < hi
                checked_edges += 1
    print(
        f"\nACCEPTANCE 7 PASS - all {checked_edges} surviving-structure edge values "
        f"inside [1/(2t-1), 2/(2t-1))"
    )


def test_criterion_08_bipartization_guarantee(sweep):
    instances, _ = sweep
    checked = 0
    for inst in instances:
        for run in inst.runs:
            if run.parts is None:
                continue
            parts = run.parts
            span = edge_induced_subgraph(inst.graph, parts.residual_edges)
            cut_weight = total_weight(span, parts.bipartition.cut_edges)
            assert 2 * cut_weight >= total_weight(span, span.edge_set())
            assert two_coloring(remove_edges(span, parts.bipartization_edges)) is not None
            checked += 1
    print(
        f"\nACCEPTANCE 8 PASS - half-weight cut and BFS-certified bipartiteness "
        f"on {checked} improved runs"
    )


def test_criterion_09_enumeration_closed_forms():
    for n in range(3, 8):
        g = complete_graph(n)
        for k in range(3, n + 1):
            assert len(enumerate_k_cycles(g, k)) == comb(n, k) * factorial(k - 1) // 2
            assert len(enumerate_k_cliques(g, k)) == comb(n, k)
    print(
        "\nACCEPTANCE 9 PASS - cycle and clique counts on K_n match "
        "C(n,k)(k-1)!/2 and C(n,k) for 3 <= k <= n <= 7"
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    graph_file = tmp_path / "k4.txt"
    graph_file.write_text(serialize_graph(complete_graph(4)))
    cover_file = tmp_path / "cover.txt"
    cover_file.write_text("4\n0 3\n1 2\n")
    commands = [
        ["cover", str(graph_file), "--k", "3", "--kind", "cycle", "--algorithm", "improved"],
        ["cover", str(graph_file), "--k", "3", "--kind", "clique", "--format", "structured"],
        ["exact", str(graph_file), "--k", "3", "--kind", "cycle"],
        ["pack", str(graph_file), "--k", "3"],
        ["ratio-study", "--k", "3", "--kind", "clique", "--n-range", "3:6"],
        ["verify", str(graph_file), "--k", "3", "--kind", "cycle", "--cover-file", str(cover_file)],
    ]
    for argv in commands:
        first_code = main(list(argv))
        first_out = capsys.readouterr().out
        second_code = main(list(argv))
        second_out = capsys.readouterr().out
        assert first_code == second_code
        assert first_out == second_out, f"output differs across runs for {argv}"
    print(
        f"\nACCEPTANCE 10 PASS - {len(commands)} CLI invocations byte-identical "
        f"across repeated runs"
    )


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in answer_lines(run_sweep(build_corpus())[0])))
