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
    LevelAssignment,
    bfs_levels,
    common_neighbors,
    connected_components,
    diameter,
    girth,
    parse_edge_list,
)
from nmgraph.nm import (
    NeighborhoodMatrix,
    RowProfile,
    TwoLevelSubgraph,
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
    two_level_subgraph,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentPartition",
    "Graph",
    "InvalidMatrixError",
    "LevelAssignment",
    "NeighborhoodMatrix",
    "ParseError",
    "RowProfile",
    "SizeGuardError",
    "TwoLevelSubgraph",
    "bfs_levels",
    "build_mn",
    "build_nm",
    "build_nm_product",
    "column_sums",
    "common_neighbors",
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
    "two_level_subgraph",
]
