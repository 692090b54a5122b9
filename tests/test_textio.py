"""The one reader kernel: numpy's C reader on the file path, and the line
path that decides every text it could read differently."""

from __future__ import annotations

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmgraph
from nmgraph import matio, textio
from nmgraph.errors import ParseError
from nmgraph.graph import parse_edge_list
from nmgraph.nm import build_nm
from helpers import (as_text, edge_list_texts, example7_graph, matrices, numbered_lines,
                     read_file)

# Line breaks of str.splitlines, whitespace numpy's tokenizer reads as a
# separator, and non-ASCII text.
ODD = ["\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028",
       "\u2029", "\xe9"]
FILLERS = ["", "  \t", "#", "# c", "%", "% c", "# labels: 5 6", "% labels: 0 1", "% caf\xe9",
           "%%MatrixMarket matrix coordinate integer general", "1 1 0", "2"]
SUFFIXES = [".txt", ".mtx", ".gz", ".bz2", ".xz", ".lzma"]


@st.composite
def perturbed(draw, texts) -> str:
    """A text from `texts` with up to three of its lines changed: dropped,
    repeated, given a filler line before it (blank, comment, labels comment,
    banner or size line), an inline comment, an odd character or an odd
    line end; and blank lines before the header."""
    lines = draw(texts).split("\n")
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        change = draw(st.sampled_from(["drop", "twice", "filler", "inline", "odd", "end"]))
        if change == "drop":
            del lines[k], ends[k]
            if not lines:
                lines, ends = [""], ["\n"]
        elif change in ("twice", "filler"):
            lines.insert(k, lines[k] if change == "twice" else draw(st.sampled_from(FILLERS)))
            ends.insert(k, "\n")
        elif change == "inline":
            lines[k] += draw(st.sampled_from([" # x", " % x", "#", "%"]))
        elif change == "odd":
            odd = draw(st.sampled_from(ODD))
            lines[k] = lines[k].replace(" ", odd, 1) if " " in lines[k] else lines[k] + odd
        else:
            ends[k] = draw(st.sampled_from(ODD[:-1] + ["\r\n"]))
    head = draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
    return "".join(f"{h}\n" for h in head) + "".join(map(str.__add__, lines, ends))


def outcome(reader, text: str, path: Path | None):
    """The reader's result, or the type and message of what it raised."""
    try:
        return read_file(reader, text, path)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("input")


def matrix_market_texts():
    return matrices(max_n=6).map(matio.write_matrix_market).map(as_text)


class TestPathReadsAsTheLinePath:
    """Fed the file's path, each reader gives what the line path gives
    on the text alone: the same value, or the same error and line."""

    @settings(max_examples=300, deadline=None)
    @given(text=perturbed(edge_list_texts()), suffix=st.sampled_from(SUFFIXES))
    def test_parse_edge_list(self, input_dir, text, suffix):
        path = input_dir / f"g{suffix}"
        assert outcome(parse_edge_list, text, path) == outcome(parse_edge_list, text, None)

    @settings(max_examples=300, deadline=None)
    @given(text=perturbed(matrix_market_texts()), suffix=st.sampled_from(SUFFIXES))
    def test_read_matrix_market(self, input_dir, text, suffix):
        path = input_dir / f"m{suffix}"
        assert (outcome(matio.read_matrix_market, text, path)
                == outcome(matio.read_matrix_market, text, None))


class TestLineNumbers:
    """Rows numbers every line as str.splitlines does, read from the text
    alone or from a file, whichever path reads the body."""

    FORMATS = {"edges": (edge_list_texts(), "#", 0), "mm": (matrix_market_texts(), "%", 1),
               "dense": (matrices(max_n=6).map(matio.write_dense).map(as_text), "#", 1)}

    @pytest.mark.parametrize("fmt", FORMATS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), suffix=st.sampled_from([None, ".txt", ".gz"]),
           block=st.integers(1, 40) | st.just(textio._BLOCK))
    def test_rows_number_lines_as_splitlines(self, input_dir, fmt, data, suffix, block):
        texts, marker, head = self.FORMATS[fmt]
        text = data.draw(perturbed(texts))
        path = None
        if suffix is not None:
            path = input_dir / f"{fmt}{suffix}"
            path.write_bytes(text.encode("utf-8"))
            text = path.read_text(encoding="utf-8")  # as the CLI reads it
        first, comments, body = numbered_lines(text, marker)
        # a small block makes a lazy split cut most texts into several blocks
        with mock.patch.object(textio, "_BLOCK", block):
            rows = textio.Rows(text, marker, head, path and str(path))
            assert (rows.first, rows.comments, rows.count) == (first, comments, len(body))
            assert ([(rows.error(k, "").line_number, rows.line(k)) for k in range(rows.count)]
                    == body)


def refuse_walk(rows):
    raise AssertionError("the text was walked past its header")


def plain_inputs():
    m = build_nm(example7_graph())
    return [(parse_edge_list, "# c\n\n1 2\n2 3\n  3 1\n"),
            (matio.read_matrix_market, as_text(matio.write_matrix_market(m)))]


@pytest.mark.parametrize("reader, text", plain_inputs(), ids=["edges", "mm"])
def test_plain_file_builds_no_line_list(reader, text, tmp_path, monkeypatch):
    expected = reader(text)
    monkeypatch.setattr(textio.Rows, "_walked", property(refuse_walk))
    assert read_file(reader, text, tmp_path / "input.txt") == expected


@pytest.mark.parametrize("bad, message", [("4 4", "self-loop 4-4 not allowed"),
                                          ("4 -1", "negative label in '4 -1'")])
def test_error_after_the_file_read_walks_only_to_its_line(bad, message, tmp_path, monkeypatch):
    # a small stand-in for a file of millions of lines: naming line 3
    # walks the text only as far as line 3, and never on the line path
    text = f"1 2\n2 3\n{bad}\n" + "".join(f"{v} {v + 1}\n" for v in range(5, 1002))
    split = set()
    lazy_lines = textio._lazy_lines

    def recorded(text):
        for line in lazy_lines(text):
            split.add(line)
            yield line

    monkeypatch.setattr(textio, "_lazy_lines", recorded)
    monkeypatch.setattr(textio.Rows, "_walked", property(refuse_walk))
    with pytest.raises(ParseError) as excinfo:
        read_file(parse_edge_list, text, tmp_path / "input.txt")
    assert str(excinfo.value) == f"line 3: {message}"
    assert split == {"1 2", "2 3", bad}


@pytest.mark.parametrize("reader, text", plain_inputs(), ids=["edges", "mm"])
@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compressed_suffix_is_read_as_plain_text(reader, text, suffix, tmp_path):
    # numpy would open the file through a decompressor, so the line path reads it
    assert read_file(reader, text, tmp_path / f"input{suffix}") == reader(text)


def test_carriage_return_in_the_text_as_given(tmp_path):
    # a text read without newline translation: numpy would read the file's
    # lines with it, so the line path reads the text
    text = "%%MatrixMarket matrix coordinate integer general\n2 2 2\r1 2 5\n2 1 5\n"
    path = tmp_path / "input.mtx"
    path.write_bytes(text.encode("ascii"))
    assert matio.read_matrix_market(text, str(path)) == matio.read_matrix_market(text)


def test_only_textio_calls_loadtxt():
    # every reader goes through the same C path and the same fallback, and
    # splits a text into lines only through textio's one walk; cli splits
    # only its own output
    callers = {"loadtxt": set(), "splitlines": set()}
    for path in sorted(Path(nmgraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in callers:
                callers[name].add(path.stem)
    assert callers == {"loadtxt": {"textio"}, "splitlines": {"cli", "textio"}}


def _tokens(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The text as a uint8 buffer and the offset of each token in it."""
    starts = [k for k, c in enumerate(text) if c != " " and (k == 0 or text[k - 1] == " ")]
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8), np.array(starts, dtype=np.intp)


@settings(max_examples=200)
@given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-300, 300),
                          st.sampled_from([0, -1, 2**63 - 1, -2**63])), min_size=1, max_size=40))
def test_get_ints_inverts_put_ints(values):
    text = as_text(textio.int_lines(np.array(values, dtype=np.int64).reshape(1, -1)))
    buf, starts = _tokens(text)
    got, widths = textio.get_ints(buf, starts)
    assert (got.tolist(), widths.tolist()) == (values, [len(str(v)) for v in values])


@pytest.mark.parametrize("token, value, width", [
    ("007", 7, 3),                                     # leading zeros are read
    ("-0", 0, 2),
    ("-", 0, 1),                                       # a sign and no digit
    ("+5", 0, 0),                                      # no '+': nothing read
    ("12x", 12, 2),                                    # up to the first non-digit
    ("9223372036854775808", -2**63, 19),               # past int64: wraps
    ("-9223372036854775809", 2**63 - 1, 20),
    ("99999999999999999999", 9999999999999999999 - 2**64, 19),  # 19 digits at most
])
def test_get_ints_reads_what_the_caller_must_check(token, value, width):
    buf, starts = _tokens(token + " ")
    got, widths = textio.get_ints(buf, starts)
    assert (got.tolist(), widths.tolist()) == ([value], [width])
