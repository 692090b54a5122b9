"""Text serialization of neighbourhood matrices.

Two formats, both exact integer text (never floats):

* dense: optional '#' comment lines, then a line with n, then n rows of
  n whitespace-separated integers;
* Matrix Market coordinate, field integer, symmetry general, 1-based
  indices.  Other symmetries are rejected, and so is a coordinate given
  twice.

Every integer, in the entries, the coordinates, the dimension and size
lines and the labels comment, follows the one grammar of `textio`: a
plain ASCII decimal with an optional sign that fits in int64.  Both
formats carry the external vertex labels in a comment line so that a
compute -> reconstruct -> compute round trip preserves labelling; labels
must be distinct and non-negative.

The text work is `textio`'s: one line scan, one whole-array parse and
one whole-array formatter, so no Python code runs per entry.
"""

from __future__ import annotations

import numpy as np

from nmgraph import textio
from nmgraph.errors import ParseError
from nmgraph.graph import check_labels
from nmgraph.nm import NeighborhoodMatrix

_MM_HEADER = "%%MatrixMarket matrix coordinate integer general"


def write_dense(m: NeighborhoodMatrix) -> str:
    return f"# labels: {' '.join(map(str, m.labels))}\n{m.n}\n" + textio.int_lines(m.entries)


def read_dense(text: str) -> NeighborhoodMatrix:
    lines = text.splitlines()
    comments, body = textio.scan(lines, "#")
    if not body:
        raise ParseError("empty dense matrix file")
    n = textio.int_table(lines, body[:1], 1, 0).item()
    if n < 0:
        raise textio.row_error(lines, body, 0, f"negative dimension {n}")
    if len(body) - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {len(body) - 1}")
    labels = _labels(lines, comments, "#", n)
    return NeighborhoodMatrix(textio.int_table(lines, body, n, 1), labels)


def write_matrix_market(m: NeighborhoodMatrix) -> str:
    """Every nonzero entry in row-major order: the view's off-diagonal
    entries with the nonzero diagonal ones merged in."""
    n = m.n
    diagonal, rows, cols, vals = m.nonzeros()
    d = np.flatnonzero(diagonal)
    at = (rows * n + cols).searchsorted(d * (n + 1))
    r, c, v = (np.insert(a, at, b) for a, b in ((rows, d), (cols, d), (vals, diagonal[d])))
    header = f"{_MM_HEADER}\n% labels: {' '.join(map(str, m.labels))}\n{n} {n} {len(r)}\n"
    return header + textio.int_lines(np.column_stack((r + 1, c + 1, v)))


def read_matrix_market(text: str) -> NeighborhoodMatrix:
    lines = text.splitlines()
    banner = next(filter(None, map(str.strip, lines)), "")  # the first non-blank line
    at = textio.lineno(lines, banner) if banner else 1
    if not banner.startswith("%%MatrixMarket"):
        raise ParseError("missing MatrixMarket header", at)
    if banner.lower().split() != _MM_HEADER.lower().split():
        raise ParseError(f"unsupported MatrixMarket type {banner!r}, expected {_MM_HEADER!r}", at)

    comments, body = textio.scan(lines, "%")
    if not body:
        raise ParseError("missing size line")
    rows, cols, nnz = textio.int_table(lines, body[:1], 3, 0)[0].tolist()
    if rows != cols:
        raise textio.row_error(lines, body, 0, f"matrix is {rows}x{cols}, expected square")
    # Checked before allocating the diagonal: a file compute writes names
    # every vertex in its labels comment, so it is longer than its dimension.
    if not 0 <= rows <= len(text):
        raise textio.row_error(lines, body, 0,
                               f"dimension {rows} out of range for a {len(text)}-character file")
    if len(body) - 1 != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(body) - 1}")
    labels = _labels(lines, comments, "%", rows)

    table = textio.int_table(lines, body, 3, 1)
    r, c = table[:, 0], table[:, 1]  # 1-based as written: shifting first could wrap at -2**63
    outside = (r < 1) | (r > rows) | (c < 1) | (c > rows)
    if outside.any():
        k = int(np.argmax(outside))
        raise textio.row_error(lines, body, k + 1, f"index ({r[k]},{c[k]}) out of range")
    flat = (r - 1) * rows + (c - 1)
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        k = int(repeats.min())
        raise textio.row_error(lines, body, k + 1, f"duplicate coordinate ({r[k]},{c[k]})")
    r, c, v = (table[order, k] for k in range(3))  # row-major, as the view wants
    r -= 1  # in range, so no longer able to wrap
    c -= 1
    on = r == c
    diagonal = np.zeros(rows, dtype=np.int64)
    diagonal[r[on]] = v[on]
    off = np.flatnonzero(~on & (v != 0))  # the view lists no zero
    return NeighborhoodMatrix.from_nonzeros(diagonal, r[off], c[off], v[off], labels)


def read_auto(text: str) -> NeighborhoodMatrix:
    """Dispatch on the MatrixMarket banner on the first non-blank line;
    anything else is dense."""
    if text.lstrip().startswith("%%MatrixMarket"):
        return read_matrix_market(text)
    return read_dense(text)


def _labels(lines: list[str], comments: list[str], marker: str, n: int) -> tuple[int, ...]:
    """The labels named by the last `labels:` comment, else 0..n-1."""
    labels = None
    for line in comments:
        stripped = line.lstrip(marker).strip()
        if stripped.startswith("labels:"):
            labels = _parse_label_comment(lines, line, stripped[len("labels:"):])
    if labels is None:
        return tuple(range(n))
    if len(labels) != n:
        raise ParseError(f"{len(labels)} labels for dimension {n}")
    return labels


def _parse_label_comment(lines: list[str], line: str, text: str) -> tuple[int, ...]:
    try:
        labels = tuple(textio.ints(text).tolist())
        check_labels(labels, len(labels))
    except ValueError:
        raise ParseError(
            f"bad labels comment {line!r}: labels must be distinct non-negative integers",
            textio.lineno(lines, line),
        ) from None
    return labels
