"""Tests of the benchmark itself: inputs, gates and tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import corpus  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kcover.graph import EdgeSet, complete_graph, total_weight  # noqa: E402
from kcover.structures import enumerate_k_cliques, enumerate_k_cycles  # noqa: E402

SEED = corpus.CORPUS_SEED


def test_generator_is_deterministic_and_seeded():
    a = corpus.graph(7, 9, 0.5, 3)
    assert a == corpus.graph(7, 9, 0.5, 3)
    assert a != corpus.graph(8, 9, 0.5, 3)
    first = workloads.fixed_size_graphs(5, 9, 0.8, 29, 4)
    assert first == workloads.fixed_size_graphs(5, 9, 0.8, 29, 4)
    assert all(g.edge_count == 29 for _, g in first)


def test_generator_reproduces_acceptance_corpus():
    path = os.path.join(ROOT, "tests", "test_acceptance.py")
    if not os.path.isfile(path):
        pytest.skip("acceptance suite not present")
    spec = importlib.util.spec_from_file_location("acceptance_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    assert module.CORPUS_SEED == corpus.CORPUS_SEED
    for n, p, i in [(4, 0.3, 0), (9, 0.5, 7), (12, 0.8, 5)]:
        rng = random.Random((module.CORPUS_SEED, n, p, i).__repr__())
        assert module._random_graph(rng, n, p) == corpus.graph(corpus.CORPUS_SEED, n, p, i)


@pytest.mark.parametrize("kind,k,enum", [("cycle", 3, enumerate_k_cycles),
                                         ("cycle", 5, enumerate_k_cycles),
                                         ("clique", 4, enumerate_k_cliques)])
def test_independent_enumeration_agrees_with_kcover(kind, k, enum):
    for i in range(4):
        g = corpus.graph(SEED, 8, 0.6, i)
        ours = sorted(sorted(s) for s in checks.structures(g, kind, k))
        theirs = sorted(sorted(s.edges) for s in enum(g, k))
        assert ours == theirs


def _cli_op(tmp_path, label, k, prefix="n9-p0.5-"):
    ops = workloads.cli_small_ops(SEED, str(tmp_path))
    return next(op for op in ops
                if op.label == label and op.k == k and op.problem.startswith(prefix))


def _check(workload, op, result):
    (outcome,) = bench.check_all(
        workloads, workloads.WORKLOADS[workload], workloads.Checker(SEED), [op], [result]
    )
    return outcome


def test_tampered_exact_cover_and_wrong_optimum_fail(tmp_path):
    op = _cli_op(tmp_path, "exact", 3)
    code, stdout = op.run()
    assert _check("cli-small", op, (code, stdout)).ok
    report = workloads._report(stdout)
    edges = report["cover"].split(",")
    dropped = op.graph.weight(tuple(int(v) for v in edges[0].split("-")))
    everything = EdgeSet(op.graph.edges)
    tampered = [
        # An optimal cover minus one edge leaves a structure uncovered.
        stdout.replace(f"cover={report['cover']}", "cover=" + ",".join(edges[1:])).replace(
            f"weight={report['weight']}", f"weight={int(report['weight']) - dropped}"),
        # A valid but heavier cover is not the recorded optimum.
        stdout.replace(f"cover={report['cover']}",
                       "cover=" + ",".join(f"{u}-{v}" for u, v in everything)).replace(
            f"weight={report['weight']}", f"weight={total_weight(op.graph, everything)}"),
        stdout.replace("status=optimal", "status=unsolved"),
    ]
    for text in tampered:
        assert text != stdout
        assert not _check("cli-small", op, (code, text)).ok
    assert not _check("cli-small", op, bench.Raised(RuntimeError("boom"))).ok
    unsolved = stdout.split("status=")[0] + "status=unsolved\nnodes=30001\n"
    outcome = _check("cli-small", op, (3, unsolved))
    assert outcome.ok and not outcome.solved


def test_tampered_packing_fails(tmp_path):
    op = _cli_op(tmp_path, "pack", 3)
    code, stdout = op.run()
    assert _check("cli-small", op, (code, stdout)).ok
    report = workloads._report(stdout)
    first = report["cliques"].split(",")[0]
    doubled = stdout.replace(f"cliques={report['cliques']}",
                             f"cliques={report['cliques']},{first}").replace(
        f"count={report['count']}", f"count={int(report['count']) + 1}")
    assert not _check("cli-small", op, (code, doubled)).ok


def test_tampered_rounding_and_wrong_lp_value_fail():
    op = workloads.lp_dense_ops(SEED, "")[0]
    objective, (basic, improved), feasible = op.run()
    assert _check("lp-dense", op, (objective, (basic, improved), feasible)).ok
    smaller = EdgeSet(list(basic.cover)[1:])
    tampered = [
        (objective, (replace(basic, cover=smaller), improved), feasible),
        (objective, (replace(basic, cover=EdgeSet(), cover_weight=0), improved), feasible),
        (objective, (basic, improved), [True, False]),
        (objective + 1, (replace(basic, lp_objective=objective + 1),
                         replace(improved, lp_objective=objective + 1)), feasible),
    ]
    for result in tampered:
        assert not _check("lp-dense", op, result).ok


def test_self_times_sum_to_root_span(tmp_path):
    ops = [_cli_op(tmp_path, "pack", 3)] * 2
    tracer = spans.Tracer()
    with tracer.installed():
        for i, op in enumerate(ops):
            with tracer.op(i):
                op.run()
    names = {s[0] for s in tracer.spans}
    assert {"op", "cli.main", "graph.parse", "exact.pack", "structures.enumerate"} <= names
    roots = [s[2] - s[1] for s in tracer.spans if s[0] == spans.ROOT]
    assert len(roots) == len(ops)
    self_times = tracer.self_times()
    assert all(t >= -1e-9 for t in self_times)
    assert sum(self_times) == pytest.approx(sum(roots), rel=1e-9, abs=1e-12)
    metrics = spans.layer_metrics(tracer, len(ops))
    assert metrics["cli.calls"] == len(ops)
    assert metrics["exact.pack.nodes"] > 0
    split = sum(v for k, v in metrics.items() if k.startswith("split."))
    assert split == pytest.approx(1.0)


def test_tracer_reports_absent_names_and_restores_originals():
    import kcover.lp

    original = kcover.lp.solve_covering_lp
    tracer = spans.Tracer([("kcover.lp", "solve_covering_lp", "lp.solve", None),
                           ("kcover.lp", "no_such_function", "lp.solve", None),
                           ("kcover.no_such_module", "f", "x", None)])
    with tracer.installed():
        assert kcover.lp.solve_covering_lp is not original
    assert kcover.lp.solve_covering_lp is original
    assert tracer.absent == ["kcover.lp.no_such_function", "kcover.no_such_module.f"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layer = set(spans.layer_metrics(spans.Tracer(), 1)) | {"trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) == set(
        workloads.WORKLOADS)


def test_tail_leaves_ten_samples_above():
    values = [float(v) for v in range(1, 101)]
    value, pct = bench.tail(values)
    assert value == 90.0 and pct == 90.0
    assert sum(v > value for v in values) == 10


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_brute_force_counts_on_complete_graph():
    g = complete_graph(5)
    assert len(checks.structures(g, "clique", 3)) == 10
    assert len(checks.structures(g, "cycle", 5)) == 12
    assert checks.weight_of(g, [(0, 1), (1, 2)]) == 2
