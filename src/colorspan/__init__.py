"""Color-spanning matchings on planar point sets and vertex-colored graphs.

A color-spanning matching picks one point of every color and pairs the
chosen points up.  This package solves the three tractable objectives over
such matchings (minimum total length, maximum smallest edge, minimum
largest edge), solves the analogous minimum-weight colorful matching on
vertex-colored graphs, ships exhaustive oracles that certify every
optimizer at small scale, and makes the hardness reductions for colorful
independent matching executable and checkable.
"""

from .errors import (
    BudgetExceededError,
    ColorspanError,
    EquivalenceViolationError,
    InvalidInstanceError,
    ParseError,
)
from .fixtures import stacked_rows_point_set, two_squares_point_set
from .geometry import (
    ColoredPointSet,
    ColorGraph,
    build_closest_color_graph,
    build_farthest_color_graph,
    color_spanning_matching,
)
from .hardness import (
    EquivalenceCertificate,
    ReductionArtifact,
    VertexColoredGraph,
    brute_force_mcim,
    brute_force_mcis,
    certify_equivalence,
    find_k_independent_set,
    reduce_is_to_mcis,
    reduce_mcis_to_mcim,
)
from .matching import (
    Matching,
    Objective,
    WeightedGraph,
    bottleneck_perfect_matching,
    has_perfect_matching,
    maxmin_perfect_matching,
    min_weight_perfect_matching,
)
from .oracles import (
    brute_force_colorful_graph_matching,
    brute_force_geometric,
    brute_force_graph_matching,
    pairing_count,
)
from .solvers import (
    solve_geometric,
    solve_k_multicolored_matching,
    solve_maxmin,
    solve_minmax,
    solve_minsum,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ColorspanError",
    "ColorGraph",
    "ColoredPointSet",
    "EquivalenceCertificate",
    "EquivalenceViolationError",
    "InvalidInstanceError",
    "Matching",
    "Objective",
    "ParseError",
    "ReductionArtifact",
    "VertexColoredGraph",
    "WeightedGraph",
    "bottleneck_perfect_matching",
    "brute_force_colorful_graph_matching",
    "brute_force_geometric",
    "brute_force_graph_matching",
    "brute_force_mcim",
    "brute_force_mcis",
    "build_closest_color_graph",
    "build_farthest_color_graph",
    "certify_equivalence",
    "color_spanning_matching",
    "find_k_independent_set",
    "has_perfect_matching",
    "maxmin_perfect_matching",
    "min_weight_perfect_matching",
    "pairing_count",
    "reduce_is_to_mcis",
    "reduce_mcis_to_mcim",
    "solve_geometric",
    "solve_k_multicolored_matching",
    "solve_maxmin",
    "solve_minmax",
    "solve_minsum",
    "stacked_rows_point_set",
    "two_squares_point_set",
]
