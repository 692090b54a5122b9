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

The text work is `textio`'s.  Given the file's path, the Matrix Market
reader walks only the banner, the labels comment and the size line in
Python.  numpy's C reader reads the entries straight from the file when
the text is plain, and the line path reads them otherwise.  A file named
like a compressed one (`.gz`, ...) is read as plain text either way.
The dense reader, whose n lines are few and long, takes the line path.
Every error names its file line as `textio.Rows` numbers it: the banner
and each comment carry their numbers, and a bad entry's line is found by
walking the text again only as far as that entry.

Both writers read M's nonzero entries alone, in row-major order, and
take their digits from `textio`'s one kernel, so no Python code runs
per entry.  The Matrix Market writer formats one line per entry; the
dense writer lays the entries over a template of zeros, so it never
builds the n x n array.
"""

from __future__ import annotations

import numpy as np

from nmgraph import textio
from nmgraph.errors import ParseError
from nmgraph.graph import check_labels
from nmgraph.nm import NeighborhoodMatrix, scan

_MM_HEADER = "%%MatrixMarket matrix coordinate integer general"


def write_dense(m: NeighborhoodMatrix) -> str:
    """The dense text, written from M's nonzero entries alone into one
    uint8 buffer.

    With no nonzero entry the body would be n^2 tokens "0 ".  Each
    nonzero entry of w characters moves every later byte by w - 1, so a
    zero between two nonzero entries sits on that pattern where the
    shift so far is even, and one byte off it where the shift is odd.
    The buffer is therefore the shift's parity, repeated over each
    stretch between nonzero entries as '0' ^ ' ' or 0, XORed with the
    pattern.  The header, the row ends and each nonzero entry's sign
    and digits are then written over it.
    """
    n = m.n
    flat, vals = _row_major(m)
    head = f"# labels: {' '.join(map(str, m.labels))}\n{n}\n".encode("ascii")
    width = textio.widths(vals)
    shift = np.zeros(len(vals) + 1, dtype=np.int64)  # before each nonzero entry, then in all
    np.cumsum(width - 1, out=shift[1:])
    size = len(head) + 2 * n * n + int(shift[-1])
    row_ends = n * np.arange(1, n + 1)
    newlines = len(head) - 1 + 2 * row_ends + shift[flat.searchsorted(row_ends)]
    starts = len(head) + 2 * flat + shift[:-1]
    flip = (shift & 1).astype(np.uint8) << 4  # '0' ^ ' ' == 0x10 where the shift is odd
    # of even length, so that the pattern is XORed in two bytes at a time
    out = np.repeat(flip, np.diff(starts, prepend=0, append=size + size % 2))
    out.view(np.uint16)[:] ^= np.frombuffer(b"0 " if len(head) % 2 == 0 else b" 0", np.uint16)
    out = out[:size]
    out[:len(head)] = np.frombuffer(head, dtype=np.uint8)
    out[newlines] = ord("\n")
    textio.put_ints(out, starts, width, vals)
    return str(out, "ascii")


def read_dense(text: str) -> NeighborhoodMatrix:
    # The line path alone: n lines of n entries cost little to split, and
    # numpy's C reader on the file, no faster on a 1024 x 1024 file, left
    # the process up to 11 MiB larger over a compute/reconstruct loop.
    rows = textio.Rows(text, "#", 1)
    if not rows.count:
        raise ParseError("empty dense matrix file")
    n = rows.head_ints(0, 1).item()
    if n < 0:
        raise rows.error(0, f"negative dimension {n}")
    if rows.count - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {rows.count - 1}")
    labels = _labels(rows, n)
    return NeighborhoodMatrix.from_nonzeros(*scan(rows.table(n)), labels)  # labels checked


def write_matrix_market(m: NeighborhoodMatrix) -> str:
    n = m.n
    flat, vals = _row_major(m)
    rows = flat // n
    header = f"{_MM_HEADER}\n% labels: {' '.join(map(str, m.labels))}\n{n} {n} {len(vals)}\n"
    return header + textio.int_lines(np.column_stack((rows + 1, flat - rows * n + 1, vals)))


def _row_major(m: NeighborhoodMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(flat, vals): every nonzero entry m[i, j] as its flat index i n + j
    and its value, in row-major order; the view's off-diagonal entries
    with the nonzero diagonal ones merged in."""
    n = m.n
    diagonal, rows, cols, vals = m.nonzeros()
    d = np.flatnonzero(diagonal)
    flat = rows * n + cols
    at = flat.searchsorted(d * (n + 1))
    return np.insert(flat, at, d * (n + 1)), np.insert(vals, at, diagonal[d])


def read_matrix_market(text: str, path: str | None = None) -> NeighborhoodMatrix:
    rows = textio.Rows(text, "%", 1, path)
    number, banner = rows.first  # the first non-blank line
    if not banner.startswith("%%MatrixMarket"):
        raise ParseError("missing MatrixMarket header", number)
    if banner.lower().split() != _MM_HEADER.lower().split():
        raise ParseError(f"unsupported MatrixMarket type {banner!r}, expected {_MM_HEADER!r}",
                         number)

    if not rows.count:
        raise ParseError("missing size line")
    n, cols, nnz = rows.head_ints(0, 3).tolist()
    if n != cols:
        raise rows.error(0, f"matrix is {n}x{cols}, expected square")
    # Checked before allocating the diagonal: a file compute writes names
    # every vertex in its labels comment, so it is longer than its dimension.
    if not 0 <= n <= len(text):
        raise rows.error(0, f"dimension {n} out of range for a {len(text)}-character file")
    if rows.count - 1 != nnz:
        raise ParseError(f"expected {nnz} entries, found {rows.count - 1}")
    labels = _labels(rows, n)

    table = rows.table(3)
    r, c = table[:, 0], table[:, 1]  # 1-based as written: shifting first could wrap at -2**63
    outside = (r < 1) | (r > n) | (c < 1) | (c > n)
    if outside.any():
        k = int(np.argmax(outside))
        raise rows.error(k + 1, f"index ({r[k]},{c[k]}) out of range")
    # A file compute writes is row-major with no coordinate twice already;
    # only a file in another order is sorted, and only there can one repeat.
    if not ((r[1:] > r[:-1]) | (r[1:] == r[:-1]) & (c[1:] > c[:-1])).all():
        flat = (r - 1) * n + (c - 1)
        order = np.argsort(flat, kind="stable")
        repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
        if repeats.size:
            k = int(repeats.min())
            raise rows.error(k + 1, f"duplicate coordinate ({r[k]},{c[k]})")
        table = table[order]
    r, c, v = table.T  # row-major, as the view wants
    r -= 1  # in range, so no longer able to wrap
    c -= 1
    on = r == c
    diagonal = np.zeros(n, dtype=np.int64)
    diagonal[r[on]] = v[on]
    off = np.flatnonzero(~on & (v != 0))  # the view lists no zero
    return NeighborhoodMatrix.from_nonzeros(diagonal, r[off], c[off], v[off], labels)


def read_auto(text: str, path: str | None = None) -> NeighborhoodMatrix:
    """Dispatch on the MatrixMarket banner on the first non-blank line;
    anything else is dense."""
    if text.lstrip().startswith("%%MatrixMarket"):
        return read_matrix_market(text, path)
    return read_dense(text)


def _labels(rows: textio.Rows, n: int) -> tuple[int, ...]:
    """The labels named by the last `labels:` comment, else 0..n-1."""
    labels = None
    for number, line in rows.comments:
        stripped = line.lstrip(rows.marker).strip()
        if stripped.startswith("labels:"):
            labels = _parse_label_comment(number, line, stripped[len("labels:"):])
    if labels is None:
        return tuple(range(n))
    if len(labels) != n:
        raise ParseError(f"{len(labels)} labels for dimension {n}")
    return labels


def _parse_label_comment(number: int, line: str, text: str) -> tuple[int, ...]:
    try:
        labels = tuple(textio.ints(text).tolist())
        check_labels(labels, len(labels))
    except ValueError:
        raise ParseError(
            f"bad labels comment {line!r}: labels must be distinct non-negative integers",
            number,
        ) from None
    return labels
