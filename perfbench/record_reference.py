"""Record the current code's answers at the corpus seed into reference.json.

    python3 perfbench/record_reference.py

The benchmark's gate compares every op at the corpus seed with these
values: LP optima (unique even when the optimal vertex is not), proven
exact optima and packing counts.  Re-record only when a change is meant to
alter an answer, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import corpus  # noqa: E402
import workloads  # noqa: E402
from kcover import exact, lp, structures  # noqa: E402


def main() -> None:
    seed = corpus.CORPUS_SEED
    workdir = os.path.join(os.path.dirname(HERE), ".bench_out", "record")
    problems: dict[str, dict] = {}
    try:
        for workload in workloads.WORKLOADS.values():
            for op in workload.ops(seed, workdir):
                entry = problems.setdefault(op.problem, {})
                if op.label == "pack":
                    packing = exact.exact_max_packing(
                        op.graph, op.k, node_budget=workloads.NODE_BUDGET
                    )
                    if packing.solved:
                        entry["pack"] = packing.count
                    continue
                if "lp" not in entry:
                    enum = (
                        structures.enumerate_k_cycles
                        if op.kind == "cycle"
                        else structures.enumerate_k_cliques
                    )
                    matrix = structures.build_incidence(op.graph, enum(op.graph, op.k))
                    entry["lp"] = str(lp.solve_covering_lp(matrix, op.graph).objective)
                if op.label == "exact":
                    result = exact.exact_min_cover(
                        op.graph, op.k, op.kind, node_budget=workloads.NODE_BUDGET
                    )
                    if result.solved:
                        entry["opt"] = result.weight
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"{json.dumps(key)}: {json.dumps(problems[key], sort_keys=True)}"
             for key in sorted(problems)]
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {seed}, "problems": {{\n' + ",\n".join(lines) + "\n}}\n")
    print(f"recorded {len(problems)} problems at seed {seed}")


if __name__ == "__main__":
    main()
