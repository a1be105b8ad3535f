"""Reference enumerators shared by the structure and property tests.

They look at every vertex subset and every ordering of it, and test
adjacency through set(g.edges), so they share no code with the DFS
enumerators or with the graph's edge_index.
"""

from itertools import combinations, permutations


def adjacent(edges, u, v):
    return (min(u, v), max(u, v)) in edges


def brute_cycles(g, k):
    """Each k-cycle once: its smallest vertex first, second vertex below the last."""
    edges = set(g.edges)
    found = []
    for subset in combinations(g.vertices, k):
        for rest in permutations(subset[1:]):
            seq = subset[:1] + rest
            if rest[0] < rest[-1] and all(adjacent(edges, seq[i - 1], seq[i]) for i in range(k)):
                found.append(seq)
    return sorted(found)


def brute_cliques(g, k):
    edges = set(g.edges)
    return [
        subset
        for subset in combinations(g.vertices, k)
        if all(adjacent(edges, u, v) for u, v in combinations(subset, 2))
    ]
