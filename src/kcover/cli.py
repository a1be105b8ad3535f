"""Command-line front end: cover, exact, pack, ratio-study, verify.

Reports are line-oriented key=value text (or JSON with --format structured)
with rationals rendered exactly, e.g. lp_objective=9/2.  Exit codes:
0 certified/feasible, 1 infeasible/uncertified (including a failed
certificate check or a simplex that stops short of an optimum), 2 usage
error, 3 resource cap (enumeration cap or node budget).  Stdout is
byte-identical across repeated runs on the same input; wall time goes
to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from math import comb

from .certificates import CertificateError
from .cover import (
    cover_k_cliques_basic,
    cover_k_cliques_improved,
    cover_k_cycles_basic,
    cover_k_cycles_odd,
)
from .exact import DEFAULT_NODE_BUDGET, exact_max_packing, exact_min_cover, max_packing, min_cover
from .graph import EdgeSet, GraphFormatError, complete_graph, parse_edge_set, parse_graph
from .graph import _foreign_edges
from .lp import SimplexIterationError
from .structures import (
    DEFAULT_MAX_STRUCTURES,
    KINDS,
    CoveringProblem,
    EnumerationCapError,
    complete_graph_structure_count,
    verify_cover,
)

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, EdgeSet):
        return ",".join(f"{u}-{v}" for u, v in value)
    if isinstance(value, tuple):  # packed cliques
        return ",".join(".".join(str(v) for v in s.vertices) for s in value)
    return str(value)


def _json(value):
    if isinstance(value, EdgeSet):
        return [[u, v] for u, v in value]
    if isinstance(value, tuple):
        return [list(s.vertices) for s in value]
    return str(value) if isinstance(value, Fraction) else value


def _write_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _emit(args, report: dict) -> None:
    """Print a report as key=value lines, or as one JSON object."""
    if args.format == "structured":
        _write_json({key: _json(value) for key, value in report.items()})
    else:
        sys.stdout.write("".join(f"{key}={_text(value)}\n" for key, value in report.items()))


def _emit_exact(args, head: dict, result, optimal: dict) -> int:
    """Report an exact solve: the fields of its optimum, or the nodes spent if unsolved."""
    if not result.solved:
        _emit(args, head | {"status": "unsolved", "nodes": result.node_count})
        return EXIT_RESOURCE
    _emit(args, head | {"status": "optimal"} | optimal)
    return EXIT_OK


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _count(text: str) -> int:
    """argparse type for caps and budgets: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def cmd_cover(args) -> int:
    """Run one rounding algorithm; the result comes back already certified."""
    g = parse_graph(_read(args.file))
    dispatch = {
        ("cycle", "basic"): cover_k_cycles_basic,
        ("cycle", "improved"): cover_k_cycles_odd,
        ("clique", "basic"): cover_k_cliques_basic,
        ("clique", "improved"): cover_k_cliques_improved,
    }
    run = dispatch[(args.kind, args.algorithm)]
    start = time.perf_counter()
    result = run(g, args.k, max_structures=args.max_structures)
    elapsed = time.perf_counter() - start
    _emit(args, {
        "input": args.file,
        "algorithm": result.algorithm,
        "k": args.k,
        "kind": args.kind,
        "cover_weight": result.cover_weight,
        "lp_objective": result.lp_objective,
        "ratio_bound": result.ratio_bound,
        "certified": True,
        "cover": result.cover,
    })
    sys.stderr.write(f"wall_time_seconds={elapsed:.6f}\n")
    return EXIT_OK


def cmd_exact(args) -> int:
    g = parse_graph(_read(args.file))
    result = exact_min_cover(
        g, args.k, args.kind, max_structures=args.max_structures, node_budget=args.node_budget
    )
    head = {"input": args.file, "k": args.k, "kind": args.kind}
    optimal = {"weight": result.weight, "nodes": result.node_count, "cover": result.cover}
    return _emit_exact(args, head, result, optimal)


def cmd_pack(args) -> int:
    g = parse_graph(_read(args.file))
    result = exact_max_packing(
        g, args.k, max_structures=args.max_structures, node_budget=args.node_budget
    )
    head = {"input": args.file, "k": args.k}
    optimal = {"count": result.count, "nodes": result.node_count, "cliques": result.cliques}
    return _emit_exact(args, head, result, optimal)


def cmd_ratio_study(args) -> int:
    try:
        lo_text, hi_text = args.n_range.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"--n-range must be MIN:MAX, got {args.n_range!r}")
    if lo > hi or lo < 1:
        raise ValueError(f"invalid n range {lo}:{hi}")
    # Counts grow with n, so the largest n decides before any K_n is built.
    cap = args.max_structures
    if complete_graph_structure_count(hi, args.k, args.kind, cap) > cap:
        raise EnumerationCapError(args.kind, args.k, cap)

    rows = []
    for n in range(lo, hi + 1):
        # One problem per n: tau covers and nu packs the same k-structures.
        problem = CoveringProblem(complete_graph(n), args.k, args.kind, cap)
        cover = min_cover(problem, args.node_budget)
        packing = max_packing(problem, args.node_budget)
        if not (cover.solved and packing.solved):
            rows.append({"n": n, "status": "unsolved"})
            continue
        tau, nu = cover.weight, packing.count
        rows.append({
            "n": n,
            "status": "optimal",
            "tau": tau,
            "nu": nu,
            "tau_over_nu": str(Fraction(tau, nu)) if nu else "-",
            "tau_over_binom": str(Fraction(tau, comb(n, 2))) if n >= 2 else "-",
        })
    if args.format == "structured":
        _write_json({"k": args.k, "kind": args.kind, "rows": rows})
    else:
        # One line per n; solved rows leave their status implicit.
        for row in rows:
            fields = (f"{key}={value}" for key, value in row.items() if value != "optimal")
            sys.stdout.write(" ".join(fields) + "\n")
    solved = all(row["status"] == "optimal" for row in rows)
    return EXIT_OK if solved else EXIT_RESOURCE


def cmd_verify(args) -> int:
    g = parse_graph(_read(args.file))
    _, cover = parse_edge_set(_read(args.cover_file))
    if foreign := _foreign_edges(g, cover):
        listed = ",".join(f"{u}-{v}" for u, v in foreign)
        raise ValueError(f"cover contains edges not in the graph: {listed}")
    feasible = verify_cover(g, args.k, args.kind, cover)
    _emit(args, {
        "input": args.file,
        "cover_file": args.cover_file,
        "k": args.k,
        "kind": args.kind,
        "feasible": feasible,
    })
    return EXIT_OK if feasible else EXIT_UNCERTIFIED


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # argparse runs `type` on string defaults too, so a bad environment
    # value is a usage error just like a bad flag.
    common.add_argument(
        "--max-structures",
        type=_count,
        default=os.environ.get("KCOVER_MAX_STRUCTURES") or DEFAULT_MAX_STRUCTURES,
        help="enumeration cap (default $KCOVER_MAX_STRUCTURES or "
        f"{DEFAULT_MAX_STRUCTURES}); exceeding it aborts with exit code 3",
    )
    common.add_argument(
        "--node-budget",
        type=_count,
        default=os.environ.get("KCOVER_NODE_BUDGET") or DEFAULT_NODE_BUDGET,
        help="branch-and-bound node budget for exact solves "
        f"(default $KCOVER_NODE_BUDGET or {DEFAULT_NODE_BUDGET})",
    )
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report style: key=value lines or a JSON document",
    )

    parser = argparse.ArgumentParser(
        prog="kcover",
        description="Certified approximation and exact solvers for k-cycle "
        "and k-clique covering of weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cover = sub.add_parser("cover", parents=[common], help="approximate cover")
    p_cover.add_argument("file", help="edge-list graph file")
    p_cover.add_argument("--k", type=int, required=True)
    p_cover.add_argument("--kind", choices=KINDS, required=True)
    p_cover.add_argument("--algorithm", choices=("basic", "improved"), default="basic")
    p_cover.set_defaults(func=cmd_cover)

    p_exact = sub.add_parser("exact", parents=[common], help="exact minimum cover")
    p_exact.add_argument("file")
    p_exact.add_argument("--k", type=int, required=True)
    p_exact.add_argument("--kind", choices=KINDS, required=True)
    p_exact.set_defaults(func=cmd_exact)

    p_pack = sub.add_parser("pack", parents=[common], help="exact maximum clique packing")
    p_pack.add_argument("file")
    p_pack.add_argument("--k", type=int, required=True)
    p_pack.set_defaults(func=cmd_pack)

    p_ratio = sub.add_parser(
        "ratio-study",
        parents=[common],
        help="exact covering/packing ratio table on complete graphs",
    )
    p_ratio.add_argument("--k", type=int, required=True)
    p_ratio.add_argument("--kind", choices=KINDS, required=True)
    p_ratio.add_argument("--n-range", required=True, help="inclusive MIN:MAX")
    p_ratio.set_defaults(func=cmd_ratio_study)

    p_verify = sub.add_parser("verify", parents=[common], help="check a cover file")
    p_verify.add_argument("file")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--kind", choices=KINDS, required=True)
    p_verify.add_argument("--cover-file", required=True)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except CertificateError as exc:
        sys.stderr.write(f"error: certificate check failed: {exc}\n")
        return EXIT_UNCERTIFIED
    except SimplexIterationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNCERTIFIED
    except (GraphFormatError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
