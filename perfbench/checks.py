"""Independent answer checks: structures by brute force, LP values by HiGHS.

Nothing here calls into kcover's enumeration or LP code, so a gate built on
these functions does not share a defect with the program it checks.
"""

from __future__ import annotations

import importlib.util
import itertools
from fractions import Fraction

LP_TOLERANCE = 1e-6


def structures(g, kind: str, k: int) -> list[frozenset]:
    """Every k-cycle or k-clique of g, each as a frozenset of (u, v) edges with u < v."""
    edges = set(g.edges)
    found = []
    for vs in itertools.combinations(g.vertices, k):
        inside = [p for p in itertools.combinations(vs, 2) if p in edges]
        if kind == "clique":
            if len(inside) == len(vs) * (k - 1) // 2:
                found.append(frozenset(inside))
            continue
        if len(inside) < k:
            continue  # a k-cycle needs k edges among its k vertices
        first, rest = vs[0], vs[1:]
        for order in itertools.permutations(rest):
            if order[0] > order[-1]:
                continue  # the reversed orientation is the same cycle
            ring = (first,) + order
            pairs = [tuple(sorted((ring[i], ring[(i + 1) % k]))) for i in range(k)]
            if all(p in edges for p in pairs):
                found.append(frozenset(pairs))
    return found


def weight_of(g, cover_edges) -> int:
    """Total weight of cover_edges; raises KeyError for an edge not in g."""
    weights = dict(zip(g.edges, g.weights))
    return sum(weights[tuple(e)] for e in cover_edges)


def is_clique(g, vertices) -> bool:
    edges = set(g.edges)
    return all(p in edges for p in itertools.combinations(sorted(vertices), 2))


def expected_ratio(kind: str, k: int, algorithm: str) -> Fraction:
    """The certified ratio of each algorithm, from the theorems it implements."""
    t = k if kind == "cycle" else k * (k - 1) // 2
    return Fraction(t) if algorithm == "basic" else Fraction(2 * t - 1, 2)


def have_scipy() -> bool:
    return importlib.util.find_spec("scipy") is not None


def lp_value(g, rows: list[frozenset]) -> float | None:
    """Optimal value of min{w.x : Ax >= 1, 0 <= x <= 1} over `rows` by HiGHS.

    None when scipy is not installed.
    """
    if not have_scipy():
        return None
    from scipy.optimize import linprog

    if not rows:
        return 0.0
    index = {e: j for j, e in enumerate(g.edges)}
    a_ub = [[0.0] * len(g.edges) for _ in rows]
    for i, s in enumerate(rows):
        for e in s:
            a_ub[i][index[e]] = -1.0
    res = linprog(
        c=list(map(float, g.weights)),
        A_ub=a_ub,
        b_ub=[-1.0] * len(rows),
        bounds=[(0.0, 1.0)] * len(g.edges),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def lp_matches(value, reference: float | None) -> bool:
    """True when an exact LP value agrees with an independent float value."""
    if reference is None:
        return True
    return abs(float(value) - reference) <= LP_TOLERANCE * max(1.0, abs(reference))
