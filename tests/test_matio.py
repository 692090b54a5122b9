from __future__ import annotations

import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmgraph import matio, textio
from nmgraph.cli import main
from nmgraph.errors import ParseError
from nmgraph.graph import check_labels, from_edges
from nmgraph.nm import NeighborhoodMatrix, build_nm
from helpers import (
    as_text,
    edgeless,
    example7_graph,
    matrices,
    petersen,
    q3_cube,
    random_corpus,
    read_file,
    reference_read_dense,
)

MM_HEADER = "%%MatrixMarket matrix coordinate integer general"


class TestDense:
    def test_round_trip_example7(self):
        m = build_nm(example7_graph())
        assert matio.read_dense(bytes(matio.write_dense(m))) == m

    def test_byte_stability(self):
        m = build_nm(example7_graph())
        assert bytes(matio.write_dense(m)) == bytes(matio.write_dense(m))

    def test_labels_preserved(self):
        m = build_nm(example7_graph())
        assert matio.read_dense(bytes(matio.write_dense(m))).labels == tuple(range(1, 8))

    def test_empty_matrix(self):
        m = build_nm(edgeless(0))
        data = bytes(matio.write_dense(m))
        assert b"0" in data.splitlines()
        assert matio.read_dense(data).n == 0

    def test_bad_row_count(self):
        with pytest.raises(ParseError):
            matio.read_dense(b"2\n1 0\n")

    def test_bad_entry(self):
        with pytest.raises(ParseError):
            matio.read_dense(b"1\nx\n")

    def test_no_floats_in_output(self):
        assert b"." not in bytes(matio.write_dense(build_nm(example7_graph())))


class TestMatrixMarket:
    def test_round_trip_example7(self):
        m = build_nm(example7_graph())
        assert matio.read_matrix_market(as_text(matio.write_matrix_market(m))) == m

    def test_header_and_one_based(self):
        m = build_nm(example7_graph())
        lines = as_text(matio.write_matrix_market(m)).splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
        data = [ln for ln in lines if not ln.startswith("%")]
        n_r, n_c, nnz = (int(x) for x in data[0].split())
        assert (n_r, n_c) == (7, 7)
        assert len(data) - 1 == nnz
        coords = [tuple(int(x) for x in ln.split()) for ln in data[1:]]
        assert all(1 <= r <= 7 and 1 <= c <= 7 for r, c, _ in coords)

    def test_nnz_counts_only_nonzeros(self):
        m = build_nm(example7_graph())
        lines = as_text(matio.write_matrix_market(m)).splitlines()
        size_line = next(ln for ln in lines if not ln.startswith("%"))
        assert int(size_line.split()[2]) == int(np.count_nonzero(m.entries))

    def test_round_trip_random(self):
        for g in random_corpus(15, 20, seed=61):
            m = build_nm(g)
            assert matio.read_matrix_market(as_text(matio.write_matrix_market(m))) == m

    def test_rejects_float_field(self):
        with pytest.raises(ParseError):
            matio.read_matrix_market("%%MatrixMarket matrix coordinate real general\n1 1 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            matio.read_matrix_market("1 1 0\n")


class TestAutoDetect:
    def test_dispatch(self):
        m = build_nm(example7_graph())
        assert matio.read_auto(bytes(matio.write_dense(m))) == m
        assert matio.read_auto(bytes(matio.write_matrix_market(m))) == m

    @pytest.mark.parametrize("lead", ["\x1c", "\x1f \n", "\u3000", "\xa0\n", "\u2028"])
    def test_banner_found_past_what_str_lstrip_strips(self, lead):
        # the banner is looked for in the decoded text, past Unicode whitespace
        m = build_nm(example7_graph())
        mm = as_text(matio.write_matrix_market(m))
        assert matio.read_auto((lead + mm).encode()) == m
        with pytest.raises(ParseError):  # not a banner: read as dense
            matio.read_auto((lead + "x" + mm).encode())


# -- the whole-array formatter and parser against per-entry references --------

def reference_dense(m: NeighborhoodMatrix) -> str:
    """The dense text written entry by entry with str() and join."""
    lines = [f"# labels: {' '.join(str(x) for x in m.labels)}", str(m.n)]
    lines += [" ".join(map(str, row)) for row in m.entries.tolist()]
    return "\n".join(lines) + "\n"


def reference_matrix_market(m: NeighborhoodMatrix) -> str:
    triples = [
        (r + 1, c + 1, v)
        for r, row in enumerate(m.entries.tolist())
        for c, v in enumerate(row)
        if v != 0
    ]
    lines = [MM_HEADER, f"% labels: {' '.join(str(x) for x in m.labels)}",
             f"{m.n} {m.n} {len(triples)}"]
    lines += [" ".join(map(str, t)) for t in triples]
    return "\n".join(lines) + "\n"


class TestWholeArrayFormat:
    @settings(max_examples=150)
    @given(matrices(), st.integers(min_value=1, max_value=40))
    def test_writers_match_reference_and_readers_invert(self, m, block):
        # a small block size makes most matrices span several row blocks
        with mock.patch.object(textio, "_BLOCK", block), \
                mock.patch.object(matio, "_LINES_PER_BLOCK", block):
            dense = as_text(matio.write_dense(m))
            mm = as_text(matio.write_matrix_market(m))
        assert dense == reference_dense(m)
        assert mm == reference_matrix_market(m)
        assert matio.read_dense(dense.encode()) == m
        assert matio.read_matrix_market(mm) == m

    @settings(max_examples=150)
    @given(matrices())
    def test_read_view_writes_the_same_bytes(self, m):
        # the reader hands M over as its nonzero view; writing that view,
        # or densifying it, gives back what the dense M gave
        mm = as_text(matio.write_matrix_market(m))
        read = matio.read_matrix_market(mm)
        assert "entries" not in vars(read)
        assert as_text(matio.write_matrix_market(read)) == mm
        assert as_text(matio.write_dense(read)) == as_text(matio.write_dense(m))
        assert np.array_equal(read.entries, m.entries)

    def test_explicit_zeros_and_diagonal_coordinates(self):
        m = matio.read_matrix_market(f"{MM_HEADER}\n3 3 4\n3 1 -1\n1 2 0\n2 2 5\n1 1 0\n")
        assert m.entries.tolist() == [[0, 0, 0], [0, 5, 0], [-1, 0, 0]]
        rows, cols, vals = m.nonzeros()
        assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([1, 2], [1, 0], [5, -1])
        assert m.diagonal.tolist() == [0, 5, 0]
        lines = as_text(matio.write_matrix_market(m)).splitlines()
        assert lines[2:] == ["3 3 2", "2 2 5", "3 1 -1"]

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_matrices(self, n):
        m = NeighborhoodMatrix(entries=np.full((n, n), -7, dtype=np.int64), labels=tuple(range(n)))
        assert as_text(matio.write_dense(m)) == reference_dense(m)
        assert as_text(matio.write_matrix_market(m)) == reference_matrix_market(m)
        assert matio.read_dense(bytes(matio.write_dense(m))) == m
        assert matio.read_matrix_market(as_text(matio.write_matrix_market(m))) == m

    def test_many_row_blocks_at_the_default_size(self):
        n = 300  # 90 000 entries: more than one block of _BLOCK entries
        assert n * n > textio._BLOCK
        rng = np.random.default_rng(5)
        entries = rng.integers(-2**63, 2**63 - 1, size=(n, n), dtype=np.int64, endpoint=True)
        entries[rng.random((n, n)) < 0.5] = 0
        entries[0, :3] = [-2**63, 2**63 - 1, -10]
        m = NeighborhoodMatrix(entries=entries, labels=tuple(range(n, 0, -1)))
        dense = as_text(matio.write_dense(m))
        mm = as_text(matio.write_matrix_market(m))
        assert dense == reference_dense(m)
        assert mm == reference_matrix_market(m)
        assert matio.read_dense(dense.encode()) == m
        assert matio.read_matrix_market(mm) == m

    def test_edgeless_matrix_market_round_trip(self):
        # nnz is 0, so only the labels comment makes the file longer than n
        m = build_nm(edgeless(40))
        assert matio.read_matrix_market(as_text(matio.write_matrix_market(m))) == m


@st.composite
def zero_heavy_matrices(draw, max_n: int = 80) -> NeighborhoodMatrix:
    """A square int64 matrix that is mostly zeros: up to 3n nonzero entries,
    the diagonal among them, small values mixed with the int64 extremes."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    entries = np.zeros((n, n), dtype=np.int64)
    if n:
        values = st.one_of(st.integers(-300, 300), st.sampled_from([-2**63, 2**63 - 1]),
                           st.integers(-2**63, 2**63 - 1))
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), values)
        for i, j, v in draw(st.lists(cells, max_size=3 * n)):
            entries[i, j] = v
    labels = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    return NeighborhoodMatrix(entries=entries, labels=tuple(labels))


def _dense(rows, labels=None) -> NeighborhoodMatrix:
    entries = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows))
    return NeighborhoodMatrix(entries=entries, labels=labels or tuple(range(len(rows))))


class TestDenseFromNonzeros:
    """The dense writer formats only the nonzero entries over a template of
    zeros; each case against the entry-by-entry reference."""

    @settings(max_examples=150, deadline=None)
    @given(zero_heavy_matrices())
    def test_writes_the_reference_and_reads_back(self, m):
        dense = as_text(matio.write_dense(m))
        assert dense == reference_dense(m)
        assert matio.read_dense(dense.encode()) == m

    @pytest.mark.parametrize("m", [
        _dense([[0, 0, 5], [0, 0, 0], [0, 0, 0]]),            # a row ending in a nonzero
        _dense([[0, 12, 0], [0, 0, 0], [0, 0, -1]]),          # one ending in a zero
        _dense([[-3, 0], [0, 0]]),                           # a negative first token
        _dense([[-3, 0], [0, 0]], labels=(10, 1)),           # behind an odd-length header
        _dense([[0, 0, 0], [0, 0, 0], [4, -55, 0]]),          # all-zero rows first
        _dense([[0, 1, 2], [3, 0, -4], [5, 6, 0]]),           # zero diagonal, nonzero elsewhere
        _dense([[0, 2**63 - 1, 0], [0, -2**63, 0], [-(2**63 - 1), 0, 0]]),
        _dense([[0, 0, 0, 0], [0, -2**63, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2**63 - 1]]),
        _dense([[7, -10], [100, -1000]]),                     # no zeros at all
        _dense([]),
        _dense([[0]]),
        _dense([[-1]]),
        _dense([[0]], labels=(1000,)),
    ], ids=["last-nonzero", "last-zero", "negative-first", "odd-header", "zero-rows",
            "zero-diagonal", "int64-extremes", "int64-extremes-apart", "no-zeros", "n0",
            "n1-zero", "n1-nonzero", "n1-odd-header"])
    def test_pinned(self, m):
        dense = as_text(matio.write_dense(m))
        assert dense == reference_dense(m)
        assert matio.read_dense(dense.encode()) == m

    @pytest.mark.parametrize("values, narrowest", [
        ([0, 7, -9, 10, -99, 100, 255, -255], np.uint8),     # every magnitude below 256
        ([255, 256, -65535], np.uint16),
        ([65536, -(2**32 - 1)], np.uint32),
        ([2**32, -5, 0], np.uint64),                          # one magnitude above 2^32
        ([-2**63, 2**63 - 1, 0], np.uint64),
    ])
    def test_digit_kernel_takes_the_narrowest_dtype(self, values, narrowest):
        v = np.array(values, dtype=np.int64)
        assert textio._magnitudes(v).dtype == narrowest
        assert as_text(textio.int_lines(v.reshape(1, -1))) == " ".join(map(str, values)) + "\n"
        m = _dense(np.diag(v))
        assert as_text(matio.write_dense(m)) == reference_dense(m)

    def test_labels_checked_once(self):
        calls = []

        def counted(labels, n):
            calls.append(labels)
            check_labels(labels, n)

        with mock.patch.object(matio, "check_labels", counted), \
                mock.patch("nmgraph.nm.check_labels", counted):
            m = matio.read_dense(b"# labels: 4 9\n2\n0 1\n-1 0\n")
        assert (m.labels, calls) == ((4, 9), [(4, 9)])


class TestMalformedDense:
    @pytest.mark.parametrize("text, line", [
        ("# labels: 1 2\n2\n1 0\n0\n", 4),          # ragged: short row
        ("2\n1 0 0\n0 1\n", 2),                      # ragged: long first row
        ("2\n1 0\n0 x\n", 3),                        # non-integer
        ("1\n1.0\n", 2),                              # float
        ("1\n1_0\n", 2),                              # int() accepted this
        ("1\n\uff11\n", 2),                          # full-width digit one
        ("1\n9223372036854775808\n", 2),              # above the int64 maximum
        ("1\n-9223372036854775809\n", 2),             # below the int64 minimum
        ("2\n\n# note\n1 0\n  0 x  \n", 5),          # blank and comment lines counted
        ("2\n0 1 2\n0 1 2\n", 2),                    # identical bad rows: the first
    ])
    def test_bad_entry_names_its_line(self, text, line):
        with pytest.raises(ParseError) as excinfo:
            matio.read_dense(text.encode())
        assert excinfo.value.line_number == line

    @pytest.mark.parametrize("comment", ["# labels: 1 1", "# labels: -5 7", "# labels: 1 x"])
    def test_bad_labels_comment(self, comment):
        with pytest.raises(ParseError, match="labels") as excinfo:
            matio.read_dense(f"\n{comment}\n2\n0 0\n0 0\n".encode())
        assert excinfo.value.line_number == 2

    def test_label_count_must_match(self):
        with pytest.raises(ParseError, match="3 labels for dimension 2"):
            matio.read_dense(b"# labels: 1 2 3\n2\n0 0\n0 0\n")

    def test_bad_dimension_line(self):
        with pytest.raises(ParseError) as excinfo:
            matio.read_dense(b"# c\n-1\n")
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("text, line", [
        ("1_0\n", 1),                                      # int() accepted this
        ("# c\n\uff11\n0\n", 2),                            # full-width digit one
        ("9223372036854775808\n", 1),
        ("1 1\n0\n", 1),
        ("# labels: 9223372036854775808\n1\n0\n", 1),     # a label past int64
        ("# labels: 1_0\n1\n0\n", 1),
    ])
    def test_header_integers_follow_the_entry_grammar(self, text, line):
        with pytest.raises(ParseError) as excinfo:
            matio.read_dense(text.encode())
        assert excinfo.value.line_number == line

    def test_largest_int64_label(self):
        m = matio.read_dense(b"# labels: 9223372036854775807\n1\n0\n")
        assert m.labels == (2**63 - 1,)
        assert matio.read_dense(bytes(matio.write_dense(m))) == m


# Tokens of 19 and 20 digits, in and past the int64 range, with leading zeros
BIG_TOKENS = ["9223372036854775807", "-9223372036854775808", "9223372036854775808",
              "-9223372036854775809", "1000000000000000000", "10000000000000000000",
              "99999999999999999999", "18446744073709551616", "00000000000000000001",
              "-0000000000000000000007"]


def _change(pattern: str, new):
    """A change that replaces one match of pattern, chosen by pick, with
    new(pick); a text with no match is left as it is."""
    def change(text: str, pick) -> str:
        found = list(re.finditer(pattern, text, flags=re.M))
        if not found:
            return text
        match = pick(found)
        return text[:match.start()] + new(pick) + text[match.end():]
    return change


_BODY_LINE = r"(?<=\n)(?=.)"  # at the start of a line after the first
# Each changes a dense text in one way; pick(options) chooses one option.
DENSE_CHANGES = {
    "tab": _change(" ", lambda pick: "\t"),
    "double-space": _change(" ", lambda pick: "  "),
    "leading-zero": _change(r"(?:(?<=\s)|(?<=\s-))(?=\d)", lambda pick: "0"),
    "plus": _change(r"(?<=\s)(?=\d)", lambda pick: "+"),
    "minus-zero": _change(r"(?<=\s)0(?=\s)", lambda pick: "-0"),
    "crlf": lambda text, pick: text.replace("\n", "\r\n"),
    "blank-line": _change(_BODY_LINE, lambda pick: pick(["\n", "  \n"])),
    "comment-line": _change(_BODY_LINE, lambda pick: "# note\n"),
    "no-final-newline": lambda text, pick: text.removesuffix("\n"),
    "big-token": _change(r"(?<=\s)-?\d+(?=\s)", lambda pick: pick(BIG_TOKENS)),
    "short-row": _change(r" -?\d+(?=\s)", lambda pick: ""),
    "long-row": _change(r"(?<=\d)$", lambda pick: pick([" 0", " 7", " -3"])),
}


@st.composite
def perturbed_dense(draw) -> str:
    """The dense text of a zero-heavy matrix, as `write_dense` writes it
    or with up to three changes from DENSE_CHANGES."""
    dense = as_text(matio.write_dense(draw(zero_heavy_matrices(max_n=12))))
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731
    for change in draw(st.lists(st.sampled_from(sorted(DENSE_CHANGES)), max_size=3)):
        dense = DENSE_CHANGES[change](dense, pick)
    return dense


def _compute_dense(g) -> str:
    return as_text(matio.write_dense(build_nm(g)))


class TestDenseFastPath:
    """`read_dense` reads the text `write_dense` writes from its bytes and
    accepts what it read only when writing it back gives the same text."""

    @settings(max_examples=400, deadline=None)
    @given(perturbed_dense())
    def test_matches_reference_reader(self, dense):
        expected = reference_read_dense(dense)
        try:
            m = matio.read_dense(dense.encode())
        except ParseError:
            assert expected is None
        else:
            assert expected == (m.labels, m.entries.tolist())

    @pytest.mark.parametrize("g", [
        example7_graph(), petersen(), q3_cube(), edgeless(0), edgeless(1),
    ], ids=["example7", "petersen", "q3", "n0", "n1"])
    def test_compute_output_needs_no_loadtxt(self, g, monkeypatch):
        data = _compute_dense(g).encode()
        monkeypatch.setattr("nmgraph.textio.np.loadtxt", _no_loadtxt)
        assert matio.read_dense(data) == build_nm(g)

    def test_sparse_1024_needs_no_loadtxt(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        tails, heads = np.triu_indices(1024, 1)
        keep = rng.random(len(tails)) < 8 / 1023
        edges = tmp_path / "g.txt"
        edges.write_text("".join(f"{u} {v}\n" for u, v in zip(tails[keep], heads[keep])))
        assert main(["compute", str(edges), "-o", str(tmp_path / "m.dense")]) == 0
        data = (tmp_path / "m.dense").read_bytes()
        expected = matio._read_lines(data.decode())
        monkeypatch.setattr("nmgraph.textio.np.loadtxt", _no_loadtxt)
        assert matio.read_dense(data) == expected

    @pytest.mark.parametrize("change", sorted(DENSE_CHANGES))
    def test_changed_text_takes_the_line_path(self, change, monkeypatch):
        dense = _compute_dense(example7_graph())
        changed = DENSE_CHANGES[change](dense, lambda options: options[len(options) // 2])
        monkeypatch.setattr("nmgraph.textio.np.loadtxt", _no_loadtxt)
        with pytest.raises(AssertionError, match="loadtxt"):
            matio.read_dense(changed.encode())

    def test_reads_every_nonzero_width(self):
        values = [1, -1, 9, -9, 10, -10, 99, 100, -1000, 10**18, -10**18, 2**63 - 1, -2**63]
        m = _dense(np.diag(values))
        assert matio._read_written(bytes(matio.write_dense(m))) == m


def _no_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt called")


class TestNonzeroTokenBlocks:
    """`_nonzero_tokens` compares the body _BYTES_PER_BLOCK bytes at a time.
    The default 1 MiB puts at most two boundaries in any test text; blocks
    of a few bytes put one at every offset of a token."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 8, 9])
    @settings(max_examples=40, deadline=None)
    @given(m=st.one_of(zero_heavy_matrices(max_n=24), matrices(max_n=8)))
    @example(m=_dense([]))  # n = 0
    @example(m=_dense([[0]]))  # n = 1
    @example(m=_dense([[-1]]))
    @example(m=build_nm(petersen()))  # no zero entry
    def test_blocks_give_the_whole_buffer_scan(self, block, m):
        buf = matio.write_dense(m)
        data = bytes(buf)
        body = data.index(b"\n", data.index(b"\n") + 1) + 1
        expected = body + np.flatnonzero((buf[body - 1:-1] <= 32) & (buf[body:] != 48))
        with mock.patch.object(matio, "_BYTES_PER_BLOCK", block):
            assert matio._nonzero_tokens(buf, body).tolist() == expected.tolist()
            assert matio.read_dense(data) == m


class TestMalformedMatrixMarket:
    @pytest.mark.parametrize("body, line", [
        ("2 2 1\n1 1\n", 3),                          # ragged
        ("2 2 1\n1 1 x\n", 3),                        # non-integer
        ("2 2 1\n1 1 9223372036854775808\n", 3),      # overflow
        ("2 2 2\n1 1 -1\n3 1 1\n", 4),               # row index out of range
        ("2 2 1\n1 0 1\n", 3),                        # column index out of range
        ("2 2 3\n1 1 -1\n2 2 -1\n1 1 -1\n", 5),      # duplicate, same text
        ("2 2 3\n1 2 4\n% note\n2 1 1\n1 2 5\n", 6),  # duplicate, after a comment
        ("2 2 1\n1 1 1 % x\n", 3),                   # a marker after the entry
        ("2 2 2\n1 1\x1c1\n", 3),                     # \x1c breaks the line
        ("% caf\u00e9\r\n2 2 1\r\n3 1 1\r\n", 4),       # non-ASCII comment, CRLF
    ])
    def test_bad_entry_names_its_line(self, body, line, tmp_path):
        for path in (None, tmp_path / "m.mtx"):  # the text alone, then the file too
            with pytest.raises(ParseError) as excinfo:
                read_file(matio.read_matrix_market, f"{MM_HEADER}\n{body}", path)
            assert excinfo.value.line_number == line

    @pytest.mark.parametrize("coordinate", ["-9223372036854775808 1", "1 -9223372036854775808"],
                             ids=["row", "column"])
    def test_most_negative_coordinate_is_named_without_a_warning(self, coordinate):
        # the range test reads the coordinates as written, so nothing wraps
        expected = re.escape(f"index ({coordinate.replace(' ', ',')}) out of range")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=expected) as excinfo:
                matio.read_matrix_market(f"{MM_HEADER}\n2 2 1\n{coordinate} 1\n")
        assert excinfo.value.line_number == 3

    @pytest.mark.parametrize("body, message, line", [
        ("", "missing size line", None),  # no line to name
        ("% only a comment\n\n", "missing size line", None),
        ("2 3 0\n", "line 2: matrix is 2x3, expected square", 2),
        ("3 2 0\n", "line 2: matrix is 3x2, expected square", 2),
    ])
    def test_size_line_rejections(self, body, message, line, tmp_path):
        for path in (None, tmp_path / "m.mtx"):  # the text alone, then the file too
            with pytest.raises(ParseError) as excinfo:
                read_file(matio.read_matrix_market, f"{MM_HEADER}\n{body}", path)
            assert (str(excinfo.value), excinfo.value.line_number) == (message, line)

    def test_duplicate_coordinate_message(self, tmp_path):
        for path in (None, tmp_path / "m.mtx"):  # the text alone, then the file too
            with pytest.raises(ParseError) as excinfo:
                read_file(matio.read_matrix_market, f"{MM_HEADER}\n2 2 2\n1 2 1\n1 2 1\n", path)
            assert str(excinfo.value) == "line 4: duplicate coordinate (1,2)"

    @pytest.mark.parametrize("header", [
        "%%MatrixMarket matrix coordinate integer symmetric",
        "%%MatrixMarket matrix coordinate integer skew-symmetric",
        "%%MatrixMarket matrix coordinate integer",
    ])
    def test_only_general_symmetry(self, header):
        with pytest.raises(ParseError) as excinfo:
            matio.read_matrix_market(f"{header}\n2 2 1\n1 2 1\n")
        assert excinfo.value.line_number == 1

    @pytest.mark.parametrize("text", [
        # 10^10 x 10^10 int64 is too big for numpy to even try to allocate,
        # so these stay safe on a reader that skips the check
        f"{MM_HEADER}\n10000000000 10000000000 0\n",
        f"{MM_HEADER}\n% labels: 0 1\n10000000000 10000000000 0\n",
        f"{MM_HEADER}\n-1 -1 0\n",
    ])
    def test_dimension_checked_before_allocation(self, text):
        with pytest.raises(ParseError):
            matio.read_matrix_market(text)

    @pytest.mark.parametrize("body", [
        "2 2 1_0\n",
        "2 2\n",
        "2 2 0 0\n",
        "2 9223372036854775808 0\n",
        "% labels: 1 18446744073709551616\n2 2 0\n",   # a label of 2^64
    ])
    def test_size_line_and_labels_follow_the_entry_grammar(self, body):
        with pytest.raises(ParseError) as excinfo:
            matio.read_matrix_market(f"{MM_HEADER}\n{body}")
        assert excinfo.value.line_number == 2

    def test_banner_after_blank_lines(self):
        m = build_nm(example7_graph())
        mm = "\n  \n" + as_text(matio.write_matrix_market(m))
        assert matio.read_matrix_market(mm) == m
        assert matio.read_auto(mm.encode()) == m
        with pytest.raises(ParseError) as excinfo:
            matio.read_matrix_market("\n%%MatrixMarket matrix coordinate real general\n1 1 0\n")
        assert excinfo.value.line_number == 2

    def test_label_count_must_match(self):
        with pytest.raises(ParseError, match="2 labels for dimension 3"):
            matio.read_matrix_market(f"{MM_HEADER}\n% labels: 4 5\n3 3 0\n")

    @pytest.mark.parametrize("comment", ["% labels: 1 1", "% labels: -5 7"])
    def test_bad_labels_comment(self, comment):
        with pytest.raises(ParseError, match="labels") as excinfo:
            matio.read_matrix_market(f"{MM_HEADER}\n{comment}\n2 2 0\n")
        assert excinfo.value.line_number == 2


def _numpy_gnp(n: int, p: float, seed: int):
    """G(n, p) drawn by numpy, fast at any n: about p n (n - 1) / 2 edges."""
    rng = np.random.default_rng(seed)
    draws = rng.binomial(n * (n - 1) // 2, p)
    u, v = rng.integers(0, n, size=(2, 2 * draws))
    pairs = np.unique(np.column_stack((np.minimum(u, v), np.maximum(u, v)))[u != v], axis=0)
    return from_edges(n, pairs[rng.permutation(len(pairs))[:draws]])


def _traced_peak(fn, *args):
    """(fn(*args), the peak of what it allocated, traced above what was
    allocated before it)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWritersAndReaderMemory:
    def test_matrix_market_writer_holds_no_copy_of_the_view(self):
        # about 1.4 million lines, 19 MiB of text: no temporary besides the
        # text outgrows one row block's
        m = build_nm(_numpy_gnp(20000, 8 / 19999, seed=1))
        out, peak = _traced_peak(matio.write_matrix_market, m)
        assert len(out) > 16 << 20
        assert peak <= len(out) + (8 << 20)

    def test_dense_reader_makes_no_second_copy_of_its_input(self):
        # a perfect matching: 2 MB of text and 2n nonzero entries, so a
        # text-sized temporary besides the re-render shows
        m = build_nm(from_edges(1024, [(2 * i, 2 * i + 1) for i in range(512)]))
        data = bytes(matio.write_dense(m))
        nnz = len(m.nonzeros()[2])
        read, peak = _traced_peak(matio.read_dense, data)
        assert read == m
        assert peak <= len(data) + 256 * nnz + (128 << 10)
