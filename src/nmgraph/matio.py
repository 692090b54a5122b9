"""Text serialization of neighbourhood matrices.

Two formats, both exact integer text (never floats):

* dense: optional '#' comment lines, then a line with n, then n rows of
  n whitespace-separated integers;
* Matrix Market coordinate, field integer, symmetry general, 1-based
  indices.  Other symmetries are rejected, and so is a coordinate given
  twice.

Matrix entries and coordinates are plain ASCII decimal integers that
fit in int64, with an optional sign; `1_0` or non-ASCII digits are
rejected.  Both formats carry the external vertex labels in a comment
line so that a compute -> reconstruct -> compute round trip preserves
labelling; labels must be distinct and non-negative.

Both writers share one whole-array integer formatter and both readers
one whole-array parse, so no Python code runs per entry.  Error paths
may re-scan the text to name the offending line.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

import numpy as np

from nmgraph.errors import ParseError
from nmgraph.nm import NeighborhoodMatrix

_MM_HEADER = "%%MatrixMarket matrix coordinate integer general"

# Entries formatted per pass: bounds the formatter's temporaries.
_BLOCK = 1 << 16
_TENS = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)


def write_dense(m: NeighborhoodMatrix) -> str:
    return f"# labels: {' '.join(map(str, m.labels))}\n{m.n}\n" + _int_lines(m.entries)


def read_dense(text: str) -> NeighborhoodMatrix:
    lines = text.splitlines()
    labels, body = _scan(lines, "#")
    if not body:
        raise ParseError("empty dense matrix file")
    try:
        n = int(body[0])
    except ValueError:
        raise _row_error(lines, body, 0, f"expected dimension, got {body[0]!r}") from None
    if n < 0:
        raise _row_error(lines, body, 0, f"negative dimension {n}")
    if len(body) - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {len(body) - 1}")
    labels = _check_labels(labels, n)
    return NeighborhoodMatrix.adopt(_int_table(lines, body, n), labels)


def write_matrix_market(m: NeighborhoodMatrix) -> str:
    r, c = np.nonzero(m.entries)
    header = f"{_MM_HEADER}\n% labels: {' '.join(map(str, m.labels))}\n{m.n} {m.n} {len(r)}\n"
    return header + _int_lines(np.column_stack((r + 1, c + 1, m.entries[r, c])))


def read_matrix_market(text: str) -> NeighborhoodMatrix:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing MatrixMarket header", 1)
    if lines[0].lower().split() != _MM_HEADER.lower().split():
        raise ParseError(f"unsupported MatrixMarket type {lines[0]!r}, expected {_MM_HEADER!r}", 1)

    labels, body = _scan(lines, "%")
    if not body:
        raise ParseError("missing size line")
    try:
        rows, cols, nnz = map(int, body[0].split())
    except ValueError:
        raise _row_error(lines, body, 0, f"bad size line {body[0]!r}") from None
    if rows != cols:
        raise _row_error(lines, body, 0, f"matrix is {rows}x{cols}, expected square")
    # Checked before allocating rows x rows: a file compute writes names
    # every vertex in its labels comment, so it is longer than its dimension.
    if not 0 <= rows <= len(text):
        raise _row_error(lines, body, 0,
                         f"dimension {rows} out of range for a {len(text)}-character file")
    if len(body) - 1 != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(body) - 1}")
    labels = _check_labels(labels, rows)

    table = _int_table(lines, body, 3)
    r, c = table[:, 0] - 1, table[:, 1] - 1
    outside = (r < 0) | (r >= rows) | (c < 0) | (c >= rows)
    if outside.any():
        k = int(np.argmax(outside))
        raise _row_error(lines, body, k + 1, f"index ({r[k] + 1},{c[k] + 1}) out of range")
    flat = r * rows + c
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        k = int(repeats.min())
        raise _row_error(lines, body, k + 1, f"duplicate coordinate ({r[k] + 1},{c[k] + 1})")
    entries = np.zeros((rows, rows), dtype=np.int64)
    entries[r, c] = table[:, 2]
    return NeighborhoodMatrix.adopt(entries, labels)


def read_auto(text: str) -> NeighborhoodMatrix:
    """Dispatch on the MatrixMarket banner; anything else is dense."""
    if text.lstrip().startswith("%%MatrixMarket"):
        return read_matrix_market(text)
    return read_dense(text)


def _int_lines(table: np.ndarray) -> str:
    """Each row of a 2-D int64 array as a line of space-separated decimals.

    Byte for byte " ".join(str(int(x)) for x in row) + "\\n" per row.
    Works through row blocks of about _BLOCK entries.
    """
    step = max(1, _BLOCK // max(table.shape[1], 1))
    return "".join(_format_block(table[i:i + step]) for i in range(0, len(table), step))


def _format_block(block: np.ndarray) -> str:
    cols = block.shape[1]
    values = block.ravel()
    negative = values < 0
    # Read as uint64, abs() is |v| even for the int64 minimum, where it wraps.
    magnitude = np.abs(values).view(np.uint64)
    digits = np.ones(len(values), dtype=np.intp)
    for ten in _TENS[_TENS <= magnitude.max()]:
        digits += magnitude >= ten
    width = digits + negative + 1  # sign, digits, separator
    ends = np.cumsum(width)
    out = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
    out[ends[cols - 1::cols] - 1] = ord("\n")
    out[(ends - width)[negative]] = ord("-")
    # One place value per pass, least significant first, over the fields
    # that still have digits left.
    pos = ends - 2
    while pos.size:
        magnitude, digit = np.divmod(magnitude, 10)
        out[pos] = digit + ord("0")
        more = magnitude > 0
        pos, magnitude = pos[more] - 1, magnitude[more]
    return out.tobytes().decode("ascii")


def _scan(lines: list[str], marker: str) -> tuple[tuple[int, ...] | None, list[str]]:
    """Split lines into the labels comment and the body.

    The body is every non-blank line that is not a comment, stripped.
    Lines are stripped and classified by their first character through
    C-level calls; Python code runs only per comment line.
    """
    kept = list(filter(None, map(str.strip, lines)))
    firsts = "".join(map(itemgetter(0), kept))
    labels = None
    body: list[str] = []
    start = 0
    while (k := firsts.find(marker, start)) >= 0:
        body += kept[start:k]
        labels = _parse_label_comment(lines, kept[k], marker, labels)
        start = k + 1
    body += kept[start:]
    return labels, body


def _int_table(lines: list[str], body: list[str], ncols: int) -> np.ndarray:
    """The body lines after the first, parsed as an int64 array with ncols
    columns."""
    if len(body) == 1:
        return np.zeros((0, ncols), dtype=np.int64)
    try:
        table = np.loadtxt(body[1:], dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is not None and table.shape[1] == ncols:
        return table
    # Error path: name the first line that fails on its own.
    for k, line in enumerate(body[1:], start=1):
        try:
            got = np.loadtxt([line], dtype=np.int64, comments=None, ndmin=2).shape[1]
        except ValueError:
            raise _row_error(lines, body, k, f"entry is not an int64 integer in {line!r}") from None
        if got != ncols:
            raise _row_error(lines, body, k, f"expected {ncols} entries, got {got}")
    raise ParseError("malformed matrix body")


def _check_labels(labels: tuple[int, ...] | None, n: int) -> tuple[int, ...]:
    if labels is None:
        return tuple(range(n))
    if len(labels) != n:
        raise ParseError(f"{len(labels)} labels for dimension {n}")
    return labels


def _parse_label_comment(lines: list[str], line: str, marker: str,
                         current: tuple[int, ...] | None) -> tuple[int, ...] | None:
    stripped = line.lstrip(marker).strip()
    if not stripped.startswith("labels:"):
        return current
    try:
        labels = tuple(map(int, stripped[len("labels:"):].split()))
    except ValueError:
        labels = None
    if labels is None or min(labels, default=0) < 0 or len(set(labels)) != len(labels):
        raise ParseError(
            f"bad labels comment {line!r}: labels must be distinct non-negative integers",
            _lineno(lines, line),
        )
    return labels


def _row_error(lines: list[str], body: list[str], k: int, message: str) -> ParseError:
    """A ParseError naming the file line of body[k]."""
    return ParseError(message, _lineno(lines, body[k], body[:k].count(body[k])))


def _lineno(lines: list[str], line: str, nth: int = 0) -> int:
    """1-based number of the nth file line that strips to `line`.  Error
    path only: it re-scans the file."""
    hits = (i for i, raw in enumerate(lines, start=1) if raw.strip() == line)
    return next(islice(hits, nth, None))
