"""Integer text: one reader and one whole-array digit kernel, shared by
the edge-list format and both matrix formats.

Every integer read from text follows one grammar: a plain ASCII decimal
with an optional sign that fits in int64.  `1_0`, non-ASCII digits such
as full-width `１` and values past the int64 range are rejected.

A file is read as `Rows`, through one walk over its lines that yields
each non-blank line, stripped, with its 1-based line number.  Plain
text is split lazily at '\n'; any other text by str.splitlines.  Given
the file's path, the walk stops at the body's first line, and numpy's C
reader reads the body straight from the file, in one `np.loadtxt` call
that builds no Python string per line.  numpy's tokenizer agrees with
the line grammar only on plain text, so the line path decides every
other file: the walk goes on to the end, and the body is parsed as one
list of lines.  The line path also decides every file numpy rejects, so
that it alone names a bad line.  An error names its line by walking
again, only as far as that line.

Formatting writes into uint8 buffers, one per text, of exactly its
size.  One digit kernel, `widths` and `put_ints`, sizes and writes every
integer of every format; its passes run in the narrowest unsigned dtype
that holds the largest magnitude.  `int_lines` sizes a table's text by
`width_sum` and lays it out by `put_lines` one row block at a time, the
Matrix Market writer calls `put_lines` on its own row blocks, and the
dense matrix writer lays out its own buffer, so no Python code runs per
entry either way.  `get_ints`, the kernel's inverse, reads the decimals
at given offsets of a uint8 buffer, for the dense reader's byte path.
"""

from __future__ import annotations

import os
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import Iterator

import numpy as np

from nmgraph.errors import ParseError

# Entries formatted, or characters split into lines, per pass: bounds the
# temporaries of the formatter and of a walk that stops early.
_BLOCK = 1 << 16
_TENS = [10 ** k for k in range(1, 20)]  # Python ints: compared in any unsigned dtype
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

    The first `head` significant non-comment lines are kept as text in
    `head`; the rest, the body, is an int64 table, returned by one
    `table(ncols)` call.  `count` is the number of significant
    non-comment lines.  `first` is the first non-blank line, comment or
    not, and `comments` the comment lines, each as a (line number, line)
    pair; an all-blank text's `first` is (1, "").  Given the file's
    `path`, with `text` its decoded content, numpy's C reader reads the
    body from the file when the text is plain; the line path reads it
    otherwise, or without a path, with the same result.  Every walk over
    the text's lines, the error path's included, is one of `_walk`.
    """

    def __init__(self, text: str, marker: str, head: int = 0, path: str | None = None):
        self.text, self.marker, self._head = text, marker, head
        self._plain = text.isascii() and not any(c in text for c in _ODD_WHITESPACE)
        loaded = self._load(path) if path is not None else None
        if loaded is None:
            self.first, self.comments, body = self._walked
            self.head, self._table, self.count = body[:head], None, len(body)
        else:
            self.first, self.comments, self.head, self._table = loaded
            self.count = head + len(self._table)

    def _walk(self) -> Iterator[tuple[int, str]]:
        """(1-based line number, stripped line) of each non-blank line.

        Plain text is split lazily at '\\n', its only line break in the
        sense of str.splitlines, so a walk that stops early splits only
        the block of lines it has reached; any other text is split by
        str.splitlines.
        """
        lines = _lazy_lines(self.text) if self._plain else self.text.splitlines()
        return filter(itemgetter(1), enumerate(map(str.strip, lines), start=1))

    def _split(self, stop: int | None) -> tuple[tuple[int, str], list[tuple[int, str]],
                                                list[str], int]:
        """(first, comments, the significant non-comment lines, number):
        the walk stops at non-comment line `stop`, whose line number is
        `number`; 0 when it reaches the end first."""
        first, comments, body = None, [], []
        for number, line in self._walk():
            first = first or (number, line)
            if line.startswith(self.marker):
                comments.append((number, line))
            elif len(body) == stop:
                return first, comments, body, number
            else:
                body.append(line)
        return first or (1, ""), comments, body, 0

    @cached_property
    def _walked(self) -> tuple[tuple[int, str], list[tuple[int, str]], list[str]]:
        """The line path: the whole text walked."""
        return self._split(None)[:3]

    def _load(self, path: str) -> tuple[tuple[int, str], list[tuple[int, str]], list[str],
                                        np.ndarray] | None:
        """(first, comments, head lines, body table) with the body read
        from the file at `path` by numpy's C reader; None when the line
        path must decide, or when there is no body.

        The walk stops at the body's first line.  A comment inside the
        body is a token numpy rejects, so it too falls to the line path.
        Only a regular file is read again: a pipe would give nothing the
        second time.
        """
        if not self._plain or path.endswith(_COMPRESSED) or not os.path.isfile(path):
            return None
        first, comments, heads, number = self._split(self._head)
        if not number:  # no body: nothing to save
            return None
        try:
            # An absolute path, so that numpy takes no name for a URL.
            table = np.loadtxt(os.path.abspath(path), dtype=np.int64, comments=None,
                               skiprows=number - 1, ndmin=2, encoding="utf-8")
        except (ValueError, OSError):
            return None
        return first, comments, heads, table

    def _numbered(self, k: int) -> tuple[int, str]:
        """(line number, line) of significant non-comment line k, walked
        to lazily.  Error path only."""
        body = (item for item in self._walk() if not item[1].startswith(self.marker))
        return next(islice(body, k, None))

    def head_ints(self, k: int, ncols: int) -> np.ndarray:
        """Head line k as an int64 array of ncols entries."""
        return self._parse(self.head[k:k + 1], ncols, k)[0]

    def table(self, ncols: int) -> np.ndarray:
        """The body as an int64 array of shape (count - head, ncols)."""
        if self._table is not None and self._table.shape[1] == ncols:
            return self._table
        return self._parse(self._walked[2][self._head:], ncols, self._head)

    def line(self, k: int) -> str:
        """Significant non-comment line k.  Error path only."""
        return self._numbered(k)[1]

    def error(self, k: int, message: str) -> ParseError:
        """A ParseError naming the file line of significant non-comment
        line k."""
        return ParseError(message, self._numbered(k)[0])

    def _parse(self, rows: list[str], ncols: int, first: int) -> np.ndarray:
        """rows, the significant lines from line `first` on, as an int64
        array with ncols columns; else the error of the first bad row."""
        if not rows:
            return np.zeros((0, ncols), dtype=np.int64)
        try:
            # Each line is one row, so numpy allocates the table once, without
            # growing it row block by row block
            table = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2,
                               max_rows=len(rows))
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


def _lazy_lines(text: str) -> Iterator[str]:
    """The lines of text split at '\\n', one block at a time: each block
    ends at the first line end `size` characters on, and `size` doubles
    from 1 to _BLOCK, so that a walk that stops within the first lines
    splits little more than them."""
    start, size = 0, 1
    while start < len(text):
        end = text.find("\n", start + size)
        end = len(text) if end < 0 else end
        yield from text[start:end].split("\n")
        start, size = end + 1, min(2 * size, _BLOCK)


def ints(text: str) -> np.ndarray:
    """The whitespace-separated integers of one line as an int64 array.

    Raises ValueError on any token outside the grammar.
    """
    if not text.split():
        return np.zeros(0, dtype=np.int64)
    return np.loadtxt([text], dtype=np.int64, comments=None, ndmin=1)


def int_lines(table: np.ndarray) -> np.ndarray:
    """Each row of a 2-D int64 array as a line of space-separated decimals,
    in one uint8 buffer of exactly their size.

    Byte for byte " ".join(str(int(x)) for x in row) + "\\n" per row.
    Works through row blocks of about _BLOCK entries.
    """
    out = np.empty(width_sum(table) + table.size, dtype=np.uint8)
    step = max(1, _BLOCK // max(table.shape[1], 1))
    at = 0
    for i in range(0, len(table), step):
        at = put_lines(out, at, table[i:i + step])
    return out


def put_lines(out: np.ndarray, at: int, block: np.ndarray) -> int:
    """Write each row of the 2-D int64 array block, which holds at least
    one entry, into the uint8 buffer out from offset at, laid out as
    `int_lines` lays it out; return the offset past the last line."""
    cols = block.shape[1]
    values = block.ravel()
    width = widths(values) + 1  # sign, digits, separator
    ends = np.cumsum(width)
    ends += at
    out[at:ends[-1]] = ord(" ")
    out[ends[cols - 1::cols] - 1] = ord("\n")
    put_ints(out, ends - width, width - 1, values)
    return int(ends[-1])


def width_sum(values: np.ndarray) -> int:
    """The characters of all of an int64 array's decimals, as `widths`
    counts them, taken _BLOCK values at a time: no temporary holds one
    integer per value."""
    flat = values.reshape(-1)
    return sum(int(widths(flat[i:i + _BLOCK]).sum()) for i in range(0, len(flat), _BLOCK))


def widths(values: np.ndarray) -> np.ndarray:
    """The characters of each int64 value's decimal: its digits, plus
    one for the sign of a negative value."""
    magnitude = _magnitudes(values)
    digits = np.ones(len(values), dtype=np.intp)
    digits += values < 0
    for ten in _TENS[:len(str(magnitude.max(initial=0))) - 1]:  # the tens up to the largest
        digits += magnitude >= ten
    return digits


def put_ints(out: np.ndarray, starts: np.ndarray, width: np.ndarray, values: np.ndarray) -> None:
    """Write each int64 value's decimal into the uint8 buffer out, from
    starts onwards, width characters long as `widths` gives them.

    One place value per pass, least significant first, over the values
    that still have digits left, so no Python code runs per value.  Every
    start gets a '-' first: a value >= 0 writes its first digit over it.
    """
    out[starts] = ord("-")
    magnitude = _magnitudes(values)
    pos = starts + width - 1
    while pos.size:
        magnitude, digit = np.divmod(magnitude, 10)
        out[pos] = digit + ord("0")
        more = np.flatnonzero(magnitude)
        if len(more) < len(pos):
            pos, magnitude = pos[more], magnitude[more]
        pos -= 1


def get_ints(buf: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, widths): the decimal at each start of the uint8 buffer
    buf, an optional '-' and then the ASCII digits up to the first other
    byte, at most 19 of them; the inverse of `put_ints`.  buf must end in
    a byte that is neither a digit nor '-', so that no read runs past it.

    One place value per pass, most significant first, over the tokens
    that still have digits left.  Magnitudes are read as uint64, where 19
    digits cannot overflow, and a magnitude past the int64 range wraps in
    values: only a caller that writes the values back and compares the
    text may skip the range check.
    """
    negative = buf[starts] == ord("-")
    ends = starts + negative  # one past the characters read so far
    digit = buf[ends] - np.uint8(ord("0"))
    first = digit < 10
    magnitude = np.where(first, digit, 0).astype(np.uint64)
    ends += first
    at = np.flatnonzero(first)  # the tokens whose digits may go on
    for _ in range(18):
        digit = buf[ends[at]] - np.uint8(ord("0"))
        more = np.flatnonzero(digit < 10)
        if not more.size:
            break
        at = at[more]
        magnitude[at] = magnitude[at] * np.uint64(10) + digit[more]
        ends[at] += 1
    return np.where(negative, -magnitude, magnitude).view(np.int64), ends - starts


def _magnitudes(values: np.ndarray) -> np.ndarray:
    """|v| of each int64 value, in the narrowest unsigned dtype that holds
    the largest, so that the digit passes work on as few bytes as they
    can.  Read as uint64, abs() is |v| even for the int64 minimum, where
    it wraps."""
    magnitude = np.abs(values).view(np.uint64)
    return magnitude.astype(np.min_scalar_type(magnitude.max(initial=0)), copy=False)
