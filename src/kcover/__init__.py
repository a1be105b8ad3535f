"""Approximation algorithms and exact oracles for k-cycle and k-clique covering.

A k-cycle (k-clique) covering of a weighted graph is an edge subset whose
removal leaves no simple cycle of length k (no complete subgraph on k
vertices).  This package provides:

* LP-relaxation threshold-rounding covers with certified approximation
  ratios k and k(k-1)/2, and the improved bipartization variants with
  ratios k - 1/2 (odd k) and (k^2 - k - 1)/2;
* an exact rational simplex solver for the covering LP;
* exact branch-and-bound oracles for minimum covers and maximum
  edge-disjoint packings of the problem's own k-cycles or k-cliques, plus
  closed-form Turan reference values.
"""

from .graph import (
    EdgeSet,
    GraphFormatError,
    WeightedGraph,
    complete_graph,
    edge_induced_subgraph,
    parse_edge_set,
    parse_graph,
    remove_edges,
    serialize_edge_set,
    serialize_graph,
    total_weight,
    two_coloring,
)
from .structures import (
    CoveringProblem,
    EdgeStructure,
    EnumerationCapError,
    IncidenceMatrix,
    build_incidence,
    enumerate_k_cliques,
    enumerate_k_cycles,
    verify_cover,
)
from .certificates import CertificateError
from .lp import FractionalSolution, SimplexIterationError, format_lp, solve_covering_lp
from .cover import (
    Bipartition,
    CoverParts,
    CoverResult,
    bipartize_half_weight,
    cover_k_cliques_basic,
    cover_k_cliques_improved,
    cover_k_cycles_basic,
    cover_k_cycles_odd,
    round_basic,
    round_improved,
    round_threshold,
)
from .exact import (
    ExactCover,
    ExactPacking,
    UnsolvedInstanceError,
    exact_max_packing,
    exact_min_cover,
    max_packing,
    min_cover,
    sandwich_check,
    turan_graph_edge_count,
    turan_tau_complete,
)

__all__ = [
    "EdgeSet",
    "GraphFormatError",
    "WeightedGraph",
    "complete_graph",
    "edge_induced_subgraph",
    "parse_edge_set",
    "parse_graph",
    "remove_edges",
    "serialize_edge_set",
    "serialize_graph",
    "total_weight",
    "two_coloring",
    "CoveringProblem",
    "EdgeStructure",
    "EnumerationCapError",
    "IncidenceMatrix",
    "build_incidence",
    "enumerate_k_cliques",
    "enumerate_k_cycles",
    "verify_cover",
    "CertificateError",
    "FractionalSolution",
    "SimplexIterationError",
    "format_lp",
    "solve_covering_lp",
    "Bipartition",
    "CoverParts",
    "CoverResult",
    "bipartize_half_weight",
    "cover_k_cliques_basic",
    "cover_k_cliques_improved",
    "cover_k_cycles_basic",
    "cover_k_cycles_odd",
    "round_basic",
    "round_improved",
    "round_threshold",
    "ExactCover",
    "ExactPacking",
    "UnsolvedInstanceError",
    "exact_max_packing",
    "exact_min_cover",
    "max_packing",
    "min_cover",
    "sandwich_check",
    "turan_graph_edge_count",
    "turan_tau_complete",
]

__version__ = "0.1.0"
