from __future__ import annotations

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmgraph import matio, textio
from nmgraph.errors import ParseError
from nmgraph.nm import NeighborhoodMatrix, build_nm
from helpers import edgeless, example7_graph, random_corpus

INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)
MM_HEADER = "%%MatrixMarket matrix coordinate integer general"


class TestDense:
    def test_round_trip_example7(self):
        m = build_nm(example7_graph())
        assert matio.read_dense(matio.write_dense(m)) == m

    def test_byte_stability(self):
        m = build_nm(example7_graph())
        assert matio.write_dense(m) == matio.write_dense(m)

    def test_labels_preserved(self):
        m = build_nm(example7_graph())
        assert matio.read_dense(matio.write_dense(m)).labels == tuple(range(1, 8))

    def test_empty_matrix(self):
        m = build_nm(edgeless(0))
        text = matio.write_dense(m)
        assert "0" in text.splitlines()
        assert matio.read_dense(text).n == 0

    def test_bad_row_count(self):
        with pytest.raises(ParseError):
            matio.read_dense("2\n1 0\n")

    def test_bad_entry(self):
        with pytest.raises(ParseError):
            matio.read_dense("1\nx\n")

    def test_no_floats_in_output(self):
        text = matio.write_dense(build_nm(example7_graph()))
        assert "." not in text


class TestMatrixMarket:
    def test_round_trip_example7(self):
        m = build_nm(example7_graph())
        assert matio.read_matrix_market(matio.write_matrix_market(m)) == m

    def test_header_and_one_based(self):
        m = build_nm(example7_graph())
        lines = matio.write_matrix_market(m).splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
        data = [ln for ln in lines if not ln.startswith("%")]
        n_r, n_c, nnz = (int(x) for x in data[0].split())
        assert (n_r, n_c) == (7, 7)
        assert len(data) - 1 == nnz
        coords = [tuple(int(x) for x in ln.split()) for ln in data[1:]]
        assert all(1 <= r <= 7 and 1 <= c <= 7 for r, c, _ in coords)

    def test_nnz_counts_only_nonzeros(self):
        m = build_nm(example7_graph())
        lines = matio.write_matrix_market(m).splitlines()
        size_line = next(ln for ln in lines if not ln.startswith("%"))
        assert int(size_line.split()[2]) == int(np.count_nonzero(m.entries))

    def test_round_trip_random(self):
        for g in random_corpus(15, 20, seed=61):
            m = build_nm(g)
            assert matio.read_matrix_market(matio.write_matrix_market(m)) == m

    def test_rejects_float_field(self):
        with pytest.raises(ParseError):
            matio.read_matrix_market("%%MatrixMarket matrix coordinate real general\n1 1 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            matio.read_matrix_market("1 1 0\n")


class TestAutoDetect:
    def test_dispatch(self):
        m = build_nm(example7_graph())
        assert matio.read_auto(matio.write_dense(m)) == m
        assert matio.read_auto(matio.write_matrix_market(m)) == m


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


@st.composite
def matrices(draw, max_n: int = 12) -> NeighborhoodMatrix:
    """Any square int64 matrix: small entries mixed with the full range."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    values = st.one_of(st.integers(-12, 12), st.sampled_from([-2**63, 2**63 - 1, 0]), INT64)
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    return NeighborhoodMatrix(entries=np.array(rows, dtype=np.int64).reshape(n, n),
                              labels=tuple(labels))


class TestWholeArrayFormat:
    @settings(max_examples=150)
    @given(matrices(), st.integers(min_value=1, max_value=40))
    def test_writers_match_reference_and_readers_invert(self, m, block):
        # a small block size makes most matrices span several row blocks
        with mock.patch.object(textio, "_BLOCK", block):
            dense = matio.write_dense(m)
            mm = matio.write_matrix_market(m)
        assert dense == reference_dense(m)
        assert mm == reference_matrix_market(m)
        assert matio.read_dense(dense) == m
        assert matio.read_matrix_market(mm) == m

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_matrices(self, n):
        m = NeighborhoodMatrix(entries=np.full((n, n), -7, dtype=np.int64), labels=tuple(range(n)))
        assert matio.write_dense(m) == reference_dense(m)
        assert matio.write_matrix_market(m) == reference_matrix_market(m)
        assert matio.read_dense(matio.write_dense(m)) == m
        assert matio.read_matrix_market(matio.write_matrix_market(m)) == m

    def test_many_row_blocks_at_the_default_size(self):
        n = 300  # 90 000 entries: more than one block of _BLOCK entries
        assert n * n > textio._BLOCK
        rng = np.random.default_rng(5)
        entries = rng.integers(-2**63, 2**63 - 1, size=(n, n), dtype=np.int64, endpoint=True)
        entries[rng.random((n, n)) < 0.5] = 0
        entries[0, :3] = [-2**63, 2**63 - 1, -10]
        m = NeighborhoodMatrix(entries=entries, labels=tuple(range(n, 0, -1)))
        dense = matio.write_dense(m)
        mm = matio.write_matrix_market(m)
        assert dense == reference_dense(m)
        assert mm == reference_matrix_market(m)
        assert matio.read_dense(dense) == m
        assert matio.read_matrix_market(mm) == m

    def test_edgeless_matrix_market_round_trip(self):
        # nnz is 0, so only the labels comment makes the file longer than n
        m = build_nm(edgeless(40))
        assert matio.read_matrix_market(matio.write_matrix_market(m)) == m


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
            matio.read_dense(text)
        assert excinfo.value.line_number == line

    @pytest.mark.parametrize("comment", ["# labels: 1 1", "# labels: -5 7", "# labels: 1 x"])
    def test_bad_labels_comment(self, comment):
        with pytest.raises(ParseError, match="labels") as excinfo:
            matio.read_dense(f"\n{comment}\n2\n0 0\n0 0\n")
        assert excinfo.value.line_number == 2

    def test_label_count_must_match(self):
        with pytest.raises(ParseError, match="3 labels for dimension 2"):
            matio.read_dense("# labels: 1 2 3\n2\n0 0\n0 0\n")

    def test_bad_dimension_line(self):
        with pytest.raises(ParseError) as excinfo:
            matio.read_dense("# c\n-1\n")
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
            matio.read_dense(text)
        assert excinfo.value.line_number == line

    def test_largest_int64_label(self):
        m = matio.read_dense("# labels: 9223372036854775807\n1\n0\n")
        assert m.labels == (2**63 - 1,)
        assert matio.read_dense(matio.write_dense(m)) == m


class TestMalformedMatrixMarket:
    @pytest.mark.parametrize("body, line", [
        ("2 2 1\n1 1\n", 3),                          # ragged
        ("2 2 1\n1 1 x\n", 3),                        # non-integer
        ("2 2 1\n1 1 9223372036854775808\n", 3),      # overflow
        ("2 2 2\n1 1 -1\n3 1 1\n", 4),               # row index out of range
        ("2 2 1\n1 0 1\n", 3),                        # column index out of range
        ("2 2 3\n1 1 -1\n2 2 -1\n1 1 -1\n", 5),      # duplicate, same text
        ("2 2 3\n1 2 4\n% note\n2 1 1\n1 2 5\n", 6),  # duplicate, after a comment
    ])
    def test_bad_entry_names_its_line(self, body, line):
        with pytest.raises(ParseError) as excinfo:
            matio.read_matrix_market(f"{MM_HEADER}\n{body}")
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

    def test_duplicate_coordinate_message(self):
        with pytest.raises(ParseError, match=r"duplicate coordinate \(1,2\)"):
            matio.read_matrix_market(f"{MM_HEADER}\n2 2 2\n1 2 1\n1 2 1\n")

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
        text = "\n  \n" + matio.write_matrix_market(m)
        assert matio.read_matrix_market(text) == m
        assert matio.read_auto(text) == m
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
