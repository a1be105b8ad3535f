"""Exact small-instance oracles: minimum covers, maximum packings, Turan values.

Both solvers are depth-first branch and bound over edge bitmasks with
deterministic branching, so repeated runs return identical optima.  Both run
on one explicit stack, `_search`, which visits their nodes in preorder with no
depth limit.  It counts the nodes it visits against an explicit budget, and a
solver reports "unsolved" when the budget runs out rather than ever returning
an unproven answer.  Both take one CoveringProblem of either kind and reuse
its rows, bitmasks and certified LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certificates import check_exact_cover, check_packing
from .graph import EdgeSet, WeightedGraph
from .structures import DEFAULT_MAX_STRUCTURES, CoveringProblem, EdgeStructure

DEFAULT_NODE_BUDGET = 10_000_000


class UnsolvedInstanceError(RuntimeError):
    """An exact oracle ran out of node budget on this instance."""


@dataclass(frozen=True)
class ExactCover:
    """Provably minimum-weight cover, or an explicit unsolved outcome."""

    status: str  # "optimal" or "unsolved"
    cover: EdgeSet | None
    weight: int | None
    node_count: int

    @property
    def solved(self) -> bool:
        return self.status == "optimal"


@dataclass(frozen=True)
class ExactPacking:
    """Provably maximum family of pairwise edge-disjoint k-structures, in `cliques`."""

    status: str
    cliques: tuple[EdgeStructure, ...] | None
    count: int | None
    node_count: int

    @property
    def solved(self) -> bool:
        return self.status == "optimal"


def _search(root, expand, budget: int) -> tuple[bool, int]:
    """Visit the tree below `root` in preorder; return (finished, nodes visited).

    expand(node) prunes or scores the node against the incumbent and returns
    its children in visiting order.  The search stops at the first node past
    the budget, so an unfinished search reports budget + 1 nodes.
    """
    stack = [root]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > budget:
            return False, nodes
        stack.extend(reversed(expand(stack.pop())))
    return True, nodes


class _CoverSearch:
    """Branch on the edges of an uncovered structure, cheapest-to-finish first.

    Structure = the uncovered row with fewest selectable edges (forced rows
    are handled for free); its candidate edges are tried in descending
    weight.  Branch i commits edge i and forbids edges 0..i-1, so subtrees
    are disjoint.  Lower bound: max of a greedy edge-disjoint-row bound and
    a bound inherited from the root LP dual y*, scaled by d to integers:
    the certificate proved A'y* <= w, so y* restricted to the still-uncovered
    rows is dual feasible for the residual system, and
    ceil(sum(y*d over uncovered) / d) lower-bounds any completion.  d, the
    rows with y* > 0 and their y*d are the certified solution's stored
    dual_den, dual_rows and dual_nums.  No node does rational arithmetic.
    """

    def __init__(self, row_masks, row_edges, weights, solution):
        self.row_masks = row_masks
        self.row_edges = row_edges  # per row: edge ids sorted by (-weight, id)
        self.weights = weights
        self.dual_scale = solution.dual_den
        self.nonzero_duals = list(zip(solution.dual_rows, solution.dual_nums))
        self.best_weight: int | None = None
        self.best_mask = 0

    def expand(self, node: tuple[int, int, int]) -> list[tuple[int, int, int]]:
        """Children of node (chosen, forbidden, cost), in visiting order."""
        chosen, forbidden, cost = node
        if self.best_weight is not None and cost >= self.best_weight:
            return []

        weights = self.weights
        branch_row = -1
        branch_count = 0
        greedy_bound = 0
        greedy_used = 0
        for r, mask in enumerate(self.row_masks):
            if mask & chosen:
                continue
            rem = mask & ~forbidden
            if rem == 0:
                return []  # row can no longer be covered on this branch
            count = rem.bit_count()
            if branch_row < 0 or count < branch_count:
                branch_row, branch_count = r, count
            if not rem & greedy_used:
                greedy_bound += min(weights[e] for e in self.row_edges[r] if rem >> e & 1)
                greedy_used |= rem
        if branch_row < 0:
            # Everything covered; strict improvement keeps the first optimum.
            if self.best_weight is None or cost < self.best_weight:
                self.best_weight = cost
                self.best_mask = chosen
            return []

        bound = greedy_bound
        if self.nonzero_duals:
            d = self.dual_scale
            dual_sum = sum(y for r, y in self.nonzero_duals if not self.row_masks[r] & chosen)
            if dual_sum > bound * d:
                bound = -(-dual_sum // d)
        if self.best_weight is not None and cost + bound >= self.best_weight:
            return []

        rem = self.row_masks[branch_row] & ~forbidden
        taken = 0
        children = []
        for e in self.row_edges[branch_row]:
            if rem >> e & 1:
                children.append((chosen | (1 << e), forbidden | taken, cost + weights[e]))
                taken |= 1 << e
        return children


def min_cover(problem: CoveringProblem, node_budget: int = DEFAULT_NODE_BUDGET) -> ExactCover:
    """Minimum-weight cover of the problem's structures by branch and bound.

    The dual bound is read off the LP optimum that `problem.solve()` has
    already certified.  The returned weight is provably optimal; if the node
    budget runs out the result is explicitly "unsolved", never a guess.
    """
    if not problem.structures:
        return ExactCover("optimal", EdgeSet(), 0, 0)
    g = problem.g
    relaxation = problem.solve()
    weights = g.weights
    rows = problem.incidence.row_edge_indices
    row_edges = [tuple(sorted(idx, key=lambda e: (-weights[e], e))) for idx in rows]

    search = _CoverSearch(problem.row_masks, row_edges, weights, relaxation)
    finished, nodes = _search((0, 0, 0), search.expand, node_budget)
    if not finished:
        return ExactCover("unsolved", None, None, nodes)

    cover = EdgeSet(e for i, e in enumerate(g.edges) if search.best_mask >> i & 1)
    check_exact_cover(problem, cover, search.best_weight, relaxation.objective)
    return ExactCover("optimal", cover, search.best_weight, nodes)


def exact_min_cover(
    g: WeightedGraph,
    k: int,
    kind: str,
    *,
    max_structures: int = DEFAULT_MAX_STRUCTURES,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactCover:
    """Minimum-weight k-structure cover by branch and bound; see min_cover."""
    return min_cover(CoveringProblem(g, k, kind, max_structures), node_budget)


class _PackingSearch:
    """Include/exclude the first structure that is edge-disjoint from the chosen ones."""

    def __init__(self, masks, edges_per_structure):
        self.masks = masks
        self.per_structure = edges_per_structure
        self.best_count = -1
        self.best: tuple[int, ...] = ()

    def expand(self, node: tuple[int, int, tuple[int, ...]]) -> list:
        """Children of node (start, used, chosen): include, then exclude, the first available."""
        start, used, chosen = node
        available = [i for i in range(start, len(self.masks)) if not self.masks[i] & used]
        if not available:
            if len(chosen) > self.best_count:
                self.best_count = len(chosen)
                self.best = chosen
            return []
        free = 0
        for i in available:
            free |= self.masks[i]
        bound = len(chosen) + min(len(available), free.bit_count() // self.per_structure)
        if bound <= self.best_count:
            return []

        first = available[0]
        return [(first + 1, used | self.masks[first], chosen + (first,)), (first + 1, used, chosen)]


def max_packing(problem: CoveringProblem, node_budget: int = DEFAULT_NODE_BUDGET) -> ExactPacking:
    """Maximum family of edge-disjoint structures of the problem, either kind, exactly."""
    structures = problem.structures
    if not structures:
        return ExactPacking("optimal", (), 0, 0)

    search = _PackingSearch(problem.row_masks, problem.edges_per_structure)
    finished, nodes = _search((0, 0, ()), search.expand, node_budget)
    if not finished:
        return ExactPacking("unsolved", None, None, nodes)

    chosen = tuple(structures[i] for i in search.best)
    check_packing(problem, chosen)
    return ExactPacking("optimal", chosen, search.best_count, nodes)


def exact_max_packing(
    g: WeightedGraph,
    k: int,
    *,
    max_structures: int = DEFAULT_MAX_STRUCTURES,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactPacking:
    """Maximum-cardinality family of edge-disjoint k-cliques; see max_packing."""
    return max_packing(CoveringProblem(g, k, "clique", max_structures), node_budget)


def sandwich_check(
    g: WeightedGraph,
    k: int,
    *,
    max_structures: int = DEFAULT_MAX_STRUCTURES,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, int, bool]:
    """Exact (packing, covering, inequality) triple for the unweighted graph.

    The covering-versus-packing inequality nu <= tau <= C(k,2) * nu is a
    statement about cardinalities, so the covering number is computed with
    unit weights regardless of the weights carried by `g`.  Packing and
    covering share one problem, so the cliques are enumerated once.
    """
    unit = WeightedGraph.build(g.vertices, [(u, v, 1) for u, v in g.edges])
    problem = CoveringProblem(unit, k, "clique", max_structures)
    packing = max_packing(problem, node_budget)
    if not packing.solved:
        raise UnsolvedInstanceError(f"packing search exhausted {node_budget} nodes")
    cover = min_cover(problem, node_budget)
    if not cover.solved:
        raise UnsolvedInstanceError(f"cover search exhausted {node_budget} nodes")
    nu, tau = packing.count, cover.weight
    return nu, tau, nu <= tau <= math.comb(k, 2) * nu


def turan_graph_edge_count(n: int, r: int) -> int:
    """Edges of the complete r-partite graph on n vertices with balanced parts."""
    if r <= 0:
        raise ValueError("need at least one part")
    if n <= 0:
        return 0
    q, s = divmod(n, r)
    return (n * n - s * (q + 1) ** 2 - (r - s) * q * q) // 2


def turan_tau_complete(n: int, k: int) -> int:
    """Exact k-clique covering number of K_n.

    A K_k-free spanning subgraph of K_n has at most as many edges as the
    balanced complete (k-1)-partite graph, and that bound is attained, so
    the minimum number of edges to delete is C(n,2) minus that count.
    Returns 0 when n < k (no k-clique exists).
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    if n < k:
        return 0
    return math.comb(n, 2) - turan_graph_edge_count(n, k - 1)
