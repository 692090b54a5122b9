"""Neighbourhood-matrix toolkit for undirected simple graphs.

Builds the signed integer matrix whose rows encode the first two BFS
levels around each vertex, reconstructs graphs from it, and extracts
structural properties (triangles, 4-cycles, girth and diameter bounds,
regularity signatures) straight from the matrix entries.
"""

from nmgraph.errors import InvalidMatrixError, ParseError, SizeGuardError
from nmgraph.graph import (
    ComponentPartition,
    Graph,
    connected_components,
    diameter,
    girth,
    parse_edge_list,
)
from nmgraph.nm import (
    NeighborhoodMatrix,
    RowProfile,
    build_mn,
    build_nm,
    build_nm_product,
    column_sums,
    determinant_exact,
    is_symmetric,
    reconstruct_adjacency,
    row_profile,
    row_sums,
    transpose,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentPartition",
    "Graph",
    "InvalidMatrixError",
    "NeighborhoodMatrix",
    "ParseError",
    "RowProfile",
    "SizeGuardError",
    "build_mn",
    "build_nm",
    "build_nm_product",
    "column_sums",
    "connected_components",
    "determinant_exact",
    "diameter",
    "girth",
    "is_symmetric",
    "parse_edge_list",
    "reconstruct_adjacency",
    "row_profile",
    "row_sums",
    "transpose",
]
