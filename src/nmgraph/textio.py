"""Integer text: one reader and one whole-array formatter, shared by the
edge-list format and both matrix formats.

Every integer read from text follows one grammar: a plain ASCII decimal
with an optional sign that fits in int64.  `1_0`, non-ASCII digits such
as full-width `１` and values past the int64 range are rejected.

A file is read as `Rows`.  Given its path, Python reads only the header
lines (comments, the Matrix Market banner and size line), and numpy's C
reader reads the body straight from the file, in one `np.loadtxt` call
that builds no Python string per line.  numpy's tokenizer agrees
with the line grammar only on plain text, so the line path decides every
other file: the text is split into lines, each is stripped and
classified, and the body is parsed as one list of lines.  The line path
also decides every file numpy rejects, so that it alone names a bad
line.  Formatting is one uint8 buffer per row block, so no Python code
runs per entry either way.
"""

from __future__ import annotations

import os
from functools import cached_property
from itertools import islice
from operator import itemgetter

import numpy as np

from nmgraph.errors import ParseError

# Entries formatted per pass: bounds the formatter's temporaries.
_BLOCK = 1 << 16
_TENS = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)
# The ASCII whitespace besides newline, space and tab, left to the line
# path.  str.splitlines breaks lines at all of it but \x1f, where numpy's
# tokenizer reads a separator inside a line, or, for \r, where its file
# reader may see a line break that the text did not hold.
_ODD_WHITESPACE = "\r\v\f\x1c\x1d\x1e\x1f"
# numpy opens a file with one of these suffixes through a decompressor,
# whatever it holds.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


class Rows:
    """The significant lines of a text file: blank lines are dropped and
    comment lines, whose first non-blank character is `marker`, are set
    aside in `comments`.  Every line is stripped.

    The first `head` significant lines are kept as text in `head`; the
    rest, the body, is an int64 table, returned by one `table(ncols)` call.
    `count` is the number of significant lines and `first` the first
    non-blank line, comment or not.  Given the file's `path`, with `text`
    its decoded content, numpy's C reader reads the body from the file when
    the text is plain; the line path reads it otherwise, or without a path,
    with the same result.
    """

    def __init__(self, text: str, marker: str, head: int = 0, path: str | None = None):
        self.text, self.marker, self._head = text, marker, head
        loaded = _load(text, marker, head, path) if path is not None else None
        if loaded is None:
            self.comments, body = self._scanned
            self.head, self._table, self.count = body[:head], None, len(body)
            self.first = next(filter(None, map(str.strip, self.lines)), "")
        else:
            self.comments, self.head, self.first, self._table = loaded
            self.count = head + len(self._table)

    @cached_property
    def lines(self) -> list[str]:
        """The text's lines: built on the line path, or to name a line."""
        return self.text.splitlines()

    @cached_property
    def _scanned(self) -> tuple[list[str], list[str]]:
        return scan(self.lines, self.marker)

    def head_ints(self, k: int, ncols: int) -> np.ndarray:
        """Head line k as an int64 array of ncols entries."""
        return self._parse(self.head[k:k + 1], ncols, k)[0]

    def table(self, ncols: int) -> np.ndarray:
        """The body as an int64 array of shape (count - head, ncols)."""
        if self._table is not None and self._table.shape[1] == ncols:
            return self._table
        return self._parse(self._scanned[1][self._head:], ncols, self._head)

    def line(self, k: int) -> str:
        """Significant line k.  Error path only: it scans the text."""
        return self._scanned[1][k]

    def error(self, k: int, message: str) -> ParseError:
        """A ParseError naming the file line of significant line k."""
        body = self._scanned[1]
        return ParseError(message, lineno(self.lines, body[k], body[:k].count(body[k])))

    def _parse(self, rows: list[str], ncols: int, first: int) -> np.ndarray:
        """rows, the significant lines from line `first` on, as an int64
        array with ncols columns; else the error of the first bad row."""
        if not rows:
            return np.zeros((0, ncols), dtype=np.int64)
        try:
            table = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is not None and table.shape[1] == ncols:
            return table
        # Error path: name the first line that fails on its own.
        for k, line in enumerate(rows, start=first):
            try:
                got = len(ints(line))
            except ValueError:
                raise self.error(k, f"entry is not an int64 integer in {line!r}") from None
            if got != ncols:
                raise self.error(k, f"expected {ncols} entries, got {got}")
        raise ParseError("malformed integer table")


def _load(text: str, marker: str, head: int,
          path: str) -> tuple[list[str], list[str], str, np.ndarray] | None:
    """(comments, head lines, first non-blank line, body table) with the
    body read from the file at `path` by numpy's C reader; None when the
    line path must decide, or when there is no body.

    Python walks the text's lines only up to the body's first line.  A
    comment inside the body is a token numpy rejects, so it too falls to
    the line path.  Only a regular file is read again: a pipe would give
    nothing the second time.
    """
    if (not text.isascii() or any(c in text for c in _ODD_WHITESPACE)
            or path.endswith(_COMPRESSED) or not os.path.isfile(path)):
        return None
    comments: list[str] = []
    heads: list[str] = []
    first = ""
    skip = start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line = text[start:end].strip()
        first = first or line
        if line and not line.startswith(marker):
            if len(heads) == head:
                break
            heads.append(line)
        elif line:
            comments.append(line)
        skip, start = skip + 1, end + 1
    if len(heads) < head or start >= len(text):  # no body: nothing to save
        return None
    try:
        # An absolute path, so that numpy takes no name for a URL.
        table = np.loadtxt(os.path.abspath(path), dtype=np.int64, comments=None,
                           skiprows=skip, ndmin=2, encoding="utf-8")
    except (ValueError, OSError):
        return None
    return comments, heads, first, table


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


def lineno(lines: list[str], line: str, nth: int = 0) -> int:
    """1-based number of the nth file line that strips to `line`.  Error
    path only: it re-scans the file."""
    hits = (i for i, raw in enumerate(lines, start=1) if raw.strip() == line)
    return next(islice(hits, nth, None))
