"""Integer text: one line scan, one whole-array parse and one whole-array
formatter, shared by the edge-list format and both matrix formats.

Every integer read from text follows one grammar: a plain ASCII decimal
with an optional sign that fits in int64.  `1_0`, non-ASCII digits such
as full-width `１` and values past the int64 range are rejected.  Parsing
is one `np.loadtxt` call over the whole body and formatting one uint8
buffer per row block, so no Python code runs per entry.  Only error
paths re-scan the text, to name the offending file line.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

import numpy as np

from nmgraph.errors import ParseError

# Entries formatted per pass: bounds the formatter's temporaries.
_BLOCK = 1 << 16
_TENS = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)


def scan(lines: list[str], marker: str) -> tuple[list[str], list[str]]:
    """Split lines into the comment lines and the body, both stripped.

    Blank lines are dropped, and a comment is a line whose first
    non-blank character is `marker`.  Lines are stripped and classified
    through C-level calls; Python code runs only per comment line.
    """
    kept = list(filter(None, map(str.strip, lines)))
    firsts = "".join(map(itemgetter(0), kept))
    comments: list[str] = []
    body: list[str] = []
    start = 0
    while (k := firsts.find(marker, start)) >= 0:
        body += kept[start:k]
        comments.append(kept[k])
        start = k + 1
    body += kept[start:]
    return comments, body


def ints(text: str) -> np.ndarray:
    """The whitespace-separated integers of one line as an int64 array.

    Raises ValueError on any token outside the grammar.
    """
    if not text.split():
        return np.zeros(0, dtype=np.int64)
    return np.loadtxt([text], dtype=np.int64, comments=None, ndmin=1)


def int_table(lines: list[str], body: list[str], ncols: int, first: int) -> np.ndarray:
    """body[first:] parsed as an int64 array with ncols columns.

    `lines` is the whole file, so that an error can name its line.
    """
    if len(body) == first:
        return np.zeros((0, ncols), dtype=np.int64)
    try:
        table = np.loadtxt(body[first:], dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is not None and table.shape[1] == ncols:
        return table
    # Error path: name the first line that fails on its own.
    for k, line in enumerate(body[first:], start=first):
        try:
            got = len(ints(line))
        except ValueError:
            raise row_error(lines, body, k, f"entry is not an int64 integer in {line!r}") from None
        if got != ncols:
            raise row_error(lines, body, k, f"expected {ncols} entries, got {got}")
    raise ParseError("malformed integer table")


def int_lines(table: np.ndarray) -> str:
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


def row_error(lines: list[str], body: list[str], k: int, message: str) -> ParseError:
    """A ParseError naming the file line of body[k]."""
    return ParseError(message, lineno(lines, body[k], body[:k].count(body[k])))


def lineno(lines: list[str], line: str, nth: int = 0) -> int:
    """1-based number of the nth file line that strips to `line`.  Error
    path only: it re-scans the file."""
    hits = (i for i, raw in enumerate(lines, start=1) if raw.strip() == line)
    return next(islice(hits, nth, None))
