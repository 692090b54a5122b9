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

The text work is `textio`'s, and every reader takes the file's bytes,
which `textio` alone decodes, only as far as Python walks them.  Given
the file's path, the Matrix Market reader walks only the banner, the
labels comment and the size line in Python.  numpy's C reader reads the
entries straight from the file when the text is plain, and the line
path reads them otherwise.  A file named like a compressed one (`.gz`,
...) is read as plain text either way.  The dense reader reads a text
exactly as `write_dense` writes it in place, walking only its two header
lines in Python, and keeps what it read only if writing that back gives
the same bytes; every other dense text takes the line path, which alone
raises a dense error.
Every error names its file line as `textio.Rows` numbers it: the banner
and each comment carry their numbers, and a bad entry's line is found by
walking the text again only as far as that entry.

Both writers return their text as one uint8 buffer of exactly its size,
never as a `str`.  They read M's nonzero entries alone, in row-major
order, and take their digits from `textio`'s one kernel, so no Python
code runs per entry.  The Matrix Market writer sizes its buffer from
per-row and per-column counts and fills it one block of lines at a time;
the dense writer lays the entries over a template of zeros, so it never
builds the n x n array.  Both readers hand their entries over in the
row-major order they read them in.
"""

from __future__ import annotations

import numpy as np

from nmgraph import textio
from nmgraph.errors import ParseError
from nmgraph.graph import check_labels
from nmgraph.nm import NeighborhoodMatrix, scan

_MM_HEADER = "%%MatrixMarket matrix coordinate integer general"
_LABELS = b"# labels: "
# Bytes of a dense body classified per pass: bounds the masks.
_BYTES_PER_BLOCK = 1 << 20
# Matrix Market lines formatted per pass: bounds the writer's temporaries.
_LINES_PER_BLOCK = 1 << 14


def write_dense(m: NeighborhoodMatrix) -> np.ndarray:
    """The dense text, written from M's nonzero entries alone into one
    uint8 buffer of exactly its size (see `_dense_bytes`)."""
    rows, cols, vals = m.nonzeros()
    return _dense_bytes(m.labels, rows * m.n + cols, vals)


def _dense_bytes(labels: tuple[int, ...], flat: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The dense text of the M with these labels whose nonzero entries
    are m[i, j] = vals[k] at flat[k] = i n + j, in row-major order.

    With no nonzero entry the body would be n^2 tokens "0 ".  Each
    nonzero entry of w characters moves every later byte by w - 1, so a
    zero between two nonzero entries sits on that pattern where the
    shift so far is even, and one byte off it where the shift is odd.
    The buffer is therefore the shift's parity, repeated over each
    stretch between nonzero entries as '0' ^ ' ' or 0, XORed with the
    pattern.  The header, the row ends and each nonzero entry's sign
    and digits are then written over it.
    """
    n = len(labels)
    head = _LABELS + f"{' '.join(map(str, labels))}\n{n}\n".encode("ascii")
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
    return out


def read_dense(data: bytes) -> NeighborhoodMatrix:
    """M from the bytes of a dense text: by `_read_written` when they are
    exactly what `write_dense` writes, else read line by line, where every
    bad line is named.  Bytes that are not UTF-8 raise UnicodeDecodeError."""
    m = _read_written(data)
    return m if m is not None else _read_lines(data)


def _read_written(data: bytes) -> NeighborhoodMatrix | None:
    """M from data when writing it back gives data byte for byte, else
    None; so it returns nothing that the line path would not.

    Python walks the two header lines alone.  The body is read in place:
    in what `write_dense` writes, each nonzero entry is a token other
    than '0' after a separator, which `_nonzero_tokens` finds, and each
    token of w characters moves every later one by w - 1 from where the
    zero tokens "0 " alone would put it.  So a token's flat index i n + j
    is half its offset in the body less that shift so far, and the
    digits come from `textio.get_ints`.
    """
    first = data.find(b"\n")
    second = data.find(b"\n", first + 1)
    # The final newline also keeps every token `get_ints` reads inside the buffer.
    if not (data.startswith(_LABELS) and data.endswith(b"\n") and data.isascii()) or second < 0:
        return None
    try:
        labels = tuple(map(int, data[len(_LABELS):first].split()))
        n = int(data[first + 1:second])
    except ValueError:
        return None
    body = second + 1
    if n != len(labels) or 2 * n * n > len(data) - body:  # n is bounded before any allocation
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    starts = _nonzero_tokens(buf, body)
    vals, width = textio.get_ints(buf, starts)
    shift = np.cumsum(width - 1)
    twice = starts - body
    twice[1:] -= shift[:-1]
    flat = twice >> 1
    if len(flat) and ((twice & 1).any() or flat[0] < 0 or flat[-1] >= n * n
                      or not (flat[1:] > flat[:-1]).all() or not vals.all()):
        return None
    written = _dense_bytes(labels, flat, vals)
    if len(written) != len(buf) or np.bitwise_xor(written, buf, out=written).any():
        return None  # compared in place: no text-sized mask
    try:
        check_labels(labels, n)
    except ValueError:
        return None  # the line path names the labels comment
    rows = flat // n  # empty when n is 0
    return NeighborhoodMatrix.from_nonzeros(rows, flat - rows * n, vals, labels)


def _nonzero_tokens(buf: np.ndarray, body: int) -> np.ndarray:
    """The positions, from body on, of the bytes of buf other than '0'
    that follow a byte no greater than ' ': in a body that `write_dense`
    wrote, the first byte of each nonzero entry.  body is past the header,
    so every byte has one before it.  buf is compared _BYTES_PER_BLOCK at
    a time, which bounds the masks.
    """
    found = [np.empty(0, dtype=np.intp)]
    for lo in range(body, len(buf), _BYTES_PER_BLOCK):
        lead = buf[lo:lo + _BYTES_PER_BLOCK] != ord("0")
        lead &= buf[lo - 1:lo - 1 + len(lead)] <= ord(" ")  # in place: two masks at most
        found.append(lo + np.flatnonzero(lead))
    return np.concatenate(found)


def _read_lines(data: bytes) -> NeighborhoodMatrix:
    rows = textio.Rows(data, "#", 1)
    if not rows.count:
        raise ParseError("empty dense matrix file")
    n = rows.head_ints(0, 1).item()
    if n < 0:
        raise rows.error(0, f"negative dimension {n}")
    if rows.count - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {rows.count - 1}")
    labels = _labels(rows, n)
    return NeighborhoodMatrix.from_nonzeros(*scan(rows.table(n)), labels)  # labels checked


def write_matrix_market(m: NeighborhoodMatrix) -> np.ndarray:
    """The Matrix Market text, one "i j value" line per nonzero entry in
    row-major order, in one uint8 buffer of exactly its size.

    The size is summed before the buffer is allocated: the lines of each
    row times the width of its index, the entries of each column times
    the width of its index, and the values' widths.  The lines are then
    written _LINES_PER_BLOCK at a time, so no temporary holds the whole
    view.
    """
    n = m.n
    rows, cols, vals = m.nonzeros()
    head = (f"{_MM_HEADER}\n% labels: {' '.join(map(str, m.labels))}\n{n} {n} {len(vals)}\n"
            .encode("ascii"))
    index_width = textio.widths(np.arange(1, n + 1))
    size = (len(head) + int(np.bincount(rows, minlength=n) @ index_width)
            + int(np.bincount(cols, minlength=n) @ index_width) + 3 * len(vals)
            + textio.width_sum(vals))
    out = np.empty(size, dtype=np.uint8)
    out[:len(head)] = np.frombuffer(head, dtype=np.uint8)
    at = len(head)
    for lo in range(0, len(vals), _LINES_PER_BLOCK):
        block = slice(lo, lo + _LINES_PER_BLOCK)
        at = textio.put_lines(out, at, np.column_stack((rows[block] + 1, cols[block] + 1,
                                                        vals[block])))
    return out


def read_matrix_market(data: bytes, path: str | None = None) -> NeighborhoodMatrix:
    """M from the bytes of a Matrix Market text; `path`, when given, names
    the file they were read from, so that numpy's C reader can read it.
    Bytes that are not UTF-8 raise UnicodeDecodeError."""
    rows = textio.Rows(data, "%", 1, path)
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
    # A file compute writes names every vertex in its labels comment, so it
    # is longer than its dimension.  The bound caps the n-sized arrays that
    # M's diagonal and a reconstructed graph allocate later.
    if not 0 <= n <= len(rows.text):
        raise rows.error(0, f"dimension {n} out of range for a {len(rows.text)}-character file")
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
    listed = v != 0  # the view lists no zero; a mask is smaller and faster than indices here
    return NeighborhoodMatrix.from_nonzeros(r[listed], c[listed], v[listed], labels)


def read_auto(data: bytes, path: str | None = None) -> NeighborhoodMatrix:
    """M from a file's bytes: a Matrix Market text when the MatrixMarket
    banner starts its first non-blank line, and a dense text otherwise.
    Bytes that are not UTF-8 raise UnicodeDecodeError.

    A text that starts as `write_dense` writes one is dense and is not
    walked here: the banner would have to be on its first line.
    """
    if not data.startswith(_LABELS) and textio.first_line(data).startswith("%%MatrixMarket"):
        return read_matrix_market(data, path)
    return read_dense(data)


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
