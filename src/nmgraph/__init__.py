"""Neighbourhood-matrix toolkit for undirected simple graphs.

Builds the signed integer matrix whose rows encode the first two BFS
levels around each vertex, reconstructs graphs from it, and extracts
structural properties (triangles, 4-cycles, girth and diameter bounds,
regularity signatures) straight from the matrix entries.

The package itself holds only `__version__`: code imports each name
from the module that defines it (`nmgraph.graph`, `nmgraph.nm`, ...).
"""

__version__ = "0.1.0"
