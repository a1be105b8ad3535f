"""Tracing from outside the program: spans around kcover's public functions.

Each function is wrapped at the name its callers bind, e.g. both
``kcover.cover.solve_covering_lp`` and ``kcover.exact.solve_covering_lp``,
because ``from .lp import solve_covering_lp`` copies the binding into each
caller's module.  A span is (name, start, end, parent, op id, count,
unsolved); spans stay in memory until the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows(args, result):
    return args[0].row_count


def _found(args, result):
    return len(result)


def _residual(args, result):
    return len(result.parts.residual_edges) if result.parts is not None else 0


def _nodes(args, result):
    return result.node_count


# (module, attribute, span name, count taken from the call's arguments and result)
TARGETS = [
    ("kcover.cli", "main", "cli.main", None),
    ("kcover.cli", "parse_graph", "graph.parse", None),
    ("kcover.cli", "parse_edge_set", "graph.parse", None),
    ("kcover.cover", "remove_edges", "graph.edit", None),
    ("kcover.cover", "edge_induced_subgraph", "graph.edit", None),
    ("kcover.structures", "remove_edges", "graph.edit", None),
    ("kcover.structures", "enumerate_k_cycles", "structures.enumerate", _found),
    ("kcover.structures", "enumerate_k_cliques", "structures.enumerate", _found),
    ("kcover.cover", "enumerate_k_cycles", "structures.enumerate", _found),
    ("kcover.cover", "enumerate_k_cliques", "structures.enumerate", _found),
    ("kcover.exact", "enumerate_k_cycles", "structures.enumerate", _found),
    ("kcover.exact", "enumerate_k_cliques", "structures.enumerate", _found),
    ("kcover.structures", "build_incidence", "structures.incidence", None),
    ("kcover.cover", "build_incidence", "structures.incidence", None),
    ("kcover.exact", "build_incidence", "structures.incidence", None),
    ("kcover.structures", "verify_cover", "structures.verify", None),
    ("kcover.cover", "verify_cover", "structures.verify", None),
    ("kcover.exact", "verify_cover", "structures.verify", None),
    ("kcover.cli", "verify_cover", "structures.verify", None),
    ("kcover.cover", "union_structure_edges", "structures.union", None),
    ("kcover.lp", "solve_covering_lp", "lp.solve", _rows),
    ("kcover.cover", "solve_covering_lp", "lp.solve", _rows),
    ("kcover.exact", "solve_covering_lp", "lp.solve", _rows),
    ("kcover.cover", "check_certificate", "lp.check", None),
    ("kcover.cover", "bipartize_half_weight", "cover.bipartize", None),
    ("kcover.exact", "exact_min_cover", "exact.cover", _nodes),
    ("kcover.cli", "exact_min_cover", "exact.cover", _nodes),
    ("kcover.exact", "exact_max_packing", "exact.pack", _nodes),
    ("kcover.cli", "exact_max_packing", "exact.pack", _nodes),
] + [
    (module, name, "cover.round", _residual)
    for module in ("kcover.cover", "kcover.cli")
    for name in (
        "cover_k_cycles_basic",
        "cover_k_cycles_odd",
        "cover_k_cliques_basic",
        "cover_k_cliques_improved",
    )
]

ROOT = "op"


class Tracer:
    """Collects spans; `installed()` swaps in the wrappers, `op(i)` opens op i's root span.

    Targets are resolved once; a name that does not exist is noted in
    `absent` instead of failing the run.
    """

    def __init__(self, targets=TARGETS):
        # Each span is [name, start, end, parent index, op id, count, unsolved].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self.absent: list[str] = []
        self._patches = []
        for module_name, attr, name, count in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, fn, self._wrap(fn, name, count)))

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, 0, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, count):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index][5] = count(args, result)
            if getattr(result, "status", None) == "unsolved":
                self.spans[index][6] = 1
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Bind every wrapper in place of its target; restore the originals on exit."""
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)
        try:
            yield self
        finally:
            for module, attr, fn, _ in reversed(self._patches):
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "count", "unsolved")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


LAYERS = ("lp", "exact", "structures", "graph", "cover", "cli")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from the spans of `ops` ops."""
    own = defaultdict(float)  # self seconds per span name
    calls = defaultdict(int)
    counts = defaultdict(int)
    unsolved = defaultdict(int)
    longest = defaultdict(float)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, _, count, miss = span
        own[name] += self_s
        calls[name] += 1
        counts[name] += count
        unsolved[name] += miss
        longest[name] = max(longest[name], end - start)

    def per_node(name):
        return own[name] / counts[name] * 1e6 if counts[name] else 0.0

    total = sum(own.values())  # equals the summed duration of the op spans
    split = defaultdict(float)
    for name, s in own.items():
        split[name.split(".")[0]] += s
    metrics = {
        "lp.solve.s": own["lp.solve"],
        "lp.solve.calls": calls["lp.solve"],
        "lp.solve.max_s": longest["lp.solve"],
        "lp.solve.rows": counts["lp.solve"],
        "lp.check.s": own["lp.check"],
        "lp.check.calls": calls["lp.check"],
        "lp.solves_per_op": calls["lp.solve"] / ops,
        "exact.cover.s": own["exact.cover"],
        "exact.cover.nodes": counts["exact.cover"],
        "exact.cover.us_per_node": per_node("exact.cover"),
        "exact.cover.unsolved": unsolved["exact.cover"],
        "exact.pack.s": own["exact.pack"],
        "exact.pack.nodes": counts["exact.pack"],
        "exact.pack.us_per_node": per_node("exact.pack"),
        "exact.pack.unsolved": unsolved["exact.pack"],
        "structures.enumerate.s": own["structures.enumerate"],
        "structures.enumerate.calls": calls["structures.enumerate"],
        "structures.enumerate.rows": counts["structures.enumerate"],
        "structures.enumerate_per_op": calls["structures.enumerate"] / ops,
        "structures.incidence.s": own["structures.incidence"],
        "structures.verify.s": own["structures.verify"],
        "structures.verify.calls": calls["structures.verify"],
        "structures.union.s": own["structures.union"],
        "graph.parse.s": own["graph.parse"],
        "graph.parse.calls": calls["graph.parse"],
        "graph.edit.s": own["graph.edit"],
        "cover.round.s": own["cover.round"],
        "cover.calls": calls["cover.round"],
        "cover.bipartize.s": own["cover.bipartize"],
        "cover.residual_edges": counts["cover.round"],
        "cli.self.s": own["cli.main"],
        "cli.calls": calls["cli.main"],
    }
    for layer in LAYERS + ("op",):
        metrics[f"split.{'bench' if layer == 'op' else layer}"] = (
            split[layer] / total if total else 0.0
        )
    return metrics
