"""Seeded instance generator: the acceptance corpus, with the seed as an argument.

`graph(seed, n, p, i)` reproduces `_random_graph` and the `(seed, n, p, i)`
seeding of tests/test_acceptance.py, so at `CORPUS_SEED` the benchmark runs
the very graphs the acceptance sweep runs.  `random.Random` seeded with a
string hashes it with SHA-512, so the draws do not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import random

from kcover.graph import WeightedGraph

CORPUS_SEED = 20240801
MAX_WEIGHT = 10


def graph(seed: int, n: int, p: float, i: int) -> WeightedGraph:
    """Draw i of the (n, p) cell: G(n, p) with weights uniform in 1..MAX_WEIGHT."""
    rng = random.Random((seed, n, p, i).__repr__())
    edges = [
        (u, v, rng.randint(1, MAX_WEIGHT))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedGraph.build(range(n), edges)


def graph_id(n: int, p: float, i: int) -> str:
    """The acceptance sweep's name for a corpus graph, e.g. n10-p0.8-3."""
    return f"n{n}-p{p}-{i}"
