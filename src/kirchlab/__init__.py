"""Resistance distances and Kirchhoff indices of edge-replacement transforms.

The quadrilateral transform turns every edge into a 4-cycle, the pentagonal
one into a 5-cycle.  A {1}-inverse of the transformed Laplacian follows in
closed form from the factor Laplacian's group inverse plus per-edge
constants, and an independent brute-force oracle checks it.
"""

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    IncidenceSplit,
    adjacency_matrix,
    graph_from_edges,
    incidence_split,
    is_connected,
    laplacian,
    parse_edge_list,
    render_edge_list,
)
from .linalg import SingularMatrixError, group_inverse_laplacian
from .oracle import oracle_kirchhoff, oracle_resistance_matrix
from .structured import (
    StructuredOneInverse,
    build_structured_inverse,
    kirchhoff,
    resistance,
    resistance_matrix,
)
from .transforms import (
    TransformKind,
    VertexClass,
    VertexRole,
    apply_transform,
    flat_id,
    original,
    path1,
    path2,
    path3,
)
from .verify import (
    AuditClause,
    AuditReport,
    ClauseDomain,
    DiscrepancyReport,
    GenerationBudgetError,
    SplitMix64,
    audit_theorems,
    compare,
    random_connected_graph,
    run_corpus,
)

__all__ = [
    "AuditClause",
    "AuditReport",
    "ClauseDomain",
    "DisconnectedGraphError",
    "DiscrepancyReport",
    "GenerationBudgetError",
    "Graph",
    "GraphError",
    "IncidenceSplit",
    "SingularMatrixError",
    "SplitMix64",
    "StructuredOneInverse",
    "TransformKind",
    "VertexClass",
    "VertexRole",
    "adjacency_matrix",
    "apply_transform",
    "audit_theorems",
    "build_structured_inverse",
    "compare",
    "flat_id",
    "graph_from_edges",
    "group_inverse_laplacian",
    "incidence_split",
    "is_connected",
    "kirchhoff",
    "laplacian",
    "oracle_kirchhoff",
    "oracle_resistance_matrix",
    "original",
    "parse_edge_list",
    "path1",
    "path2",
    "path3",
    "random_connected_graph",
    "render_edge_list",
    "resistance",
    "resistance_matrix",
    "run_corpus",
]

__version__ = "0.1.0"
