"""Text serialization of neighbourhood matrices.

Two formats, both exact integer text (never floats):

* dense: optional '#' comment lines, then a line with n, then n rows of
  n whitespace-separated integers;
* Matrix Market coordinate, field integer, symmetry general, 1-based
  indices.

Both carry the external vertex labels in a comment line so that a
compute -> reconstruct -> compute round trip preserves labelling.
"""

from __future__ import annotations

import numpy as np

from nmgraph.errors import ParseError
from nmgraph.nm import NeighborhoodMatrix

_MM_HEADER = "%%MatrixMarket matrix coordinate integer general"


def write_dense(m: NeighborhoodMatrix) -> str:
    lines = [f"# labels: {' '.join(str(x) for x in m.labels)}", str(m.n)]
    for row in m.entries:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def read_dense(text: str) -> NeighborhoodMatrix:
    labels: tuple[int, ...] | None = None
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            labels = _parse_label_comment(line, "#", labels, lineno)
            continue
        body.append((lineno, line))
    if not body:
        raise ParseError("empty dense matrix file")
    first_lineno, first = body[0]
    try:
        n = int(first)
    except ValueError:
        raise ParseError(f"expected dimension, got {first!r}", first_lineno) from None
    if n < 0:
        raise ParseError(f"negative dimension {n}", first_lineno)
    if len(body) - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {len(body) - 1}")
    entries = np.zeros((n, n), dtype=np.int64)
    for i, (lineno, line) in enumerate(body[1:]):
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"expected {n} entries, got {len(parts)}", lineno)
        try:
            entries[i] = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-integer entry in {line!r}", lineno) from None
    if labels is None:
        labels = tuple(range(n))
    if len(labels) != n:
        raise ParseError(f"{len(labels)} labels for dimension {n}")
    return NeighborhoodMatrix.adopt(entries, labels)


def write_matrix_market(m: NeighborhoodMatrix) -> str:
    trip = m.triplets()
    lines = [
        _MM_HEADER,
        f"% labels: {' '.join(str(x) for x in m.labels)}",
        f"{m.n} {m.n} {len(trip)}",
    ]
    for r, c, v in trip:
        lines.append(f"{r + 1} {c + 1} {v}")
    return "\n".join(lines) + "\n"


def read_matrix_market(text: str) -> NeighborhoodMatrix:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing MatrixMarket header", 1)
    header = lines[0].lower().split()
    if header[1:4] != ["matrix", "coordinate", "integer"]:
        raise ParseError(f"unsupported MatrixMarket type {lines[0]!r}", 1)

    labels: tuple[int, ...] | None = None
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            labels = _parse_label_comment(line, "%", labels, lineno)
            continue
        body.append((lineno, line))
    if not body:
        raise ParseError("missing size line")
    size_lineno, size_line = body[0]
    try:
        rows, cols, nnz = (int(p) for p in size_line.split())
    except ValueError:
        raise ParseError(f"bad size line {size_line!r}", size_lineno) from None
    if rows != cols:
        raise ParseError(f"matrix is {rows}x{cols}, expected square", size_lineno)
    if len(body) - 1 != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(body) - 1}")
    entries = np.zeros((rows, rows), dtype=np.int64)
    for lineno, line in body[1:]:
        try:
            r, c, v = (int(p) for p in line.split())
        except ValueError:
            raise ParseError(f"bad coordinate line {line!r}", lineno) from None
        if not (1 <= r <= rows and 1 <= c <= rows):
            raise ParseError(f"index ({r},{c}) out of range", lineno)
        entries[r - 1, c - 1] = v
    if labels is None:
        labels = tuple(range(rows))
    if len(labels) != rows:
        raise ParseError(f"{len(labels)} labels for dimension {rows}")
    return NeighborhoodMatrix.adopt(entries, labels)


def read_auto(text: str) -> NeighborhoodMatrix:
    """Dispatch on the MatrixMarket banner; anything else is dense."""
    if text.lstrip().startswith("%%MatrixMarket"):
        return read_matrix_market(text)
    return read_dense(text)


def _parse_label_comment(line: str, marker: str, current: tuple[int, ...] | None,
                         lineno: int) -> tuple[int, ...] | None:
    stripped = line.lstrip(marker).strip()
    if not stripped.startswith("labels:"):
        return current
    try:
        return tuple(int(p) for p in stripped[len("labels:"):].split())
    except ValueError:
        raise ParseError(f"bad labels comment {line!r}", lineno) from None
