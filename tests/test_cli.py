from __future__ import annotations

import contextlib
import inspect
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmgraph import analytics, cli, graph, matio, verify
from nmgraph.cli import build_parser, main
from nmgraph.nm import NeighborhoodMatrix, build_nm
from helpers import (EXAMPLE7_EDGE_LINES, EXAMPLE7_MATRIX, example7_graph, petersen,
                     two_squares_graph)
from nmgraph.graph import format_edge_list

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def example7_file(tmp_path):
    path = tmp_path / "example7.edges"
    path.write_text("\n".join(EXAMPLE7_EDGE_LINES) + "\n")
    return path


@pytest.fixture
def two_squares_file(tmp_path):
    path = tmp_path / "two_squares.edges"
    path.write_text(format_edge_list(two_squares_graph()))
    return path


class TestCompute:
    def test_dense_matches_golden(self, example7_file, tmp_path, capsys):
        out = tmp_path / "m.txt"
        assert main(["compute", str(example7_file), "-o", str(out)]) == 0
        m = matio.read_dense(out.read_text())
        assert np.array_equal(m.entries, EXAMPLE7_MATRIX)
        assert m.labels == tuple(range(1, 8))

    def test_matrix_market(self, example7_file, tmp_path):
        out = tmp_path / "m.mtx"
        assert main(["compute", str(example7_file), "--format", "mm", "-o", str(out)]) == 0
        m = matio.read_matrix_market(out.read_text())
        assert np.array_equal(m.entries, EXAMPLE7_MATRIX)

    def test_empty_input(self, tmp_path, capsys):
        src = tmp_path / "empty.edges"
        src.write_text("")
        assert main(["compute", str(src)]) == 0
        assert "0" in capsys.readouterr().out.splitlines()

    def test_self_loop_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.edges"
        src.write_text("1 2\n5 5\n")
        assert main(["compute", str(src)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["compute", str(tmp_path / "nope.edges")]) == 3

    def test_shared_parser_keeps_no_options_between_calls(self, example7_file, tmp_path):
        assert build_parser() is build_parser()
        first, second = tmp_path / "m.mtx", tmp_path / "m.txt"
        assert main(["compute", str(example7_file), "--format", "mm", "-o", str(first)]) == 0
        assert main(["compute", str(example7_file), "-o", str(second)]) == 0
        assert second.read_text() == matio.write_dense(matio.read_auto(first.read_text()))


class TestReconstruct:
    def test_example7_round_trip(self, example7_file, tmp_path):
        mfile = tmp_path / "m.txt"
        efile = tmp_path / "out.edges"
        assert main(["compute", str(example7_file), "-o", str(mfile)]) == 0
        assert main(["reconstruct", str(mfile), "-o", str(efile)]) == 0
        lines = efile.read_text().splitlines()
        assert sorted(lines) == sorted(
            ["1 2", "1 6", "2 5", "3 4", "4 5", "5 6", "5 7", "6 7"]
        )

    def test_zero_matrix(self, tmp_path, capsys):
        mfile = tmp_path / "z.txt"
        mfile.write_text("2\n0 0\n0 0\n")
        assert main(["reconstruct", str(mfile)]) == 0
        assert capsys.readouterr().out == ""

    def test_perturbed_matrix_exit_4(self, example7_file, tmp_path, capsys):
        m = build_nm(example7_graph())
        entries = m.entries.copy()
        entries[0, 4] -= 1
        bad = tmp_path / "bad.txt"
        lines = ["7"] + [" ".join(str(int(x)) for x in row) for row in entries]
        bad.write_text("\n".join(lines) + "\n")
        assert main(["reconstruct", str(bad)]) == 4
        assert "not a valid NM" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1\n5\n", "2\n1 1\n1 -1\n"])
    def test_positive_diagonal_exit_4(self, tmp_path, capsys, text):
        bad = tmp_path / "diag.txt"
        bad.write_text(text)
        assert main(["reconstruct", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "not a valid NM" in err and err.count("\n") == 1

    @pytest.mark.parametrize("write", [matio.write_dense, matio.write_matrix_market])
    @pytest.mark.parametrize("i, j, value", [(0, 2, 1), (2, 0, 1), (3, 3, 2), (0, 4, -3)])
    def test_invalid_matrix_names_entry_on_one_line(self, tmp_path, capsys, write, i, j, value):
        # an asymmetric positive pattern both ways, a positive diagonal entry
        # and one perturbed entry of the worked example
        entries = EXAMPLE7_MATRIX.copy()
        entries[i, j] = value
        bad = tmp_path / "bad.txt"
        bad.write_text(write(NeighborhoodMatrix(entries=entries, labels=tuple(range(1, 8)))))
        assert main(["reconstruct", str(bad)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: not a valid NM: entry \(\d+,\d+\) is -?\d+, "
                            r"the recovered graph's is -?\d+\n", err)

    def test_matrix_market_after_blank_line(self, tmp_path, capsys):
        mfile = tmp_path / "m.mtx"
        mfile.write_text("\n" + matio.write_matrix_market(build_nm(example7_graph())))
        assert main(["reconstruct", str(mfile)]) == 0
        assert capsys.readouterr().out == format_edge_list(example7_graph())

    def test_malformed_matrix_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 2 3\n")
        assert main(["reconstruct", str(bad)]) == 2

    def test_compute_reconstruct_compute_byte_identical(self, tmp_path):
        # input already in the canonical sorted order reconstruct emits,
        # so label order survives the round trip
        src = tmp_path / "sorted.edges"
        src.write_text("1 2\n1 6\n2 5\n3 4\n4 5\n5 6\n5 7\n6 7\n")
        m1 = tmp_path / "m1.txt"
        edges = tmp_path / "r.edges"
        m2 = tmp_path / "m2.txt"
        assert main(["compute", str(src), "-o", str(m1)]) == 0
        assert main(["reconstruct", str(m1), "-o", str(edges)]) == 0
        assert main(["compute", str(edges), "-o", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()


class TestTextInput:
    @pytest.mark.parametrize("text", [
        "1\n9223372036854775808\n",
        "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 9223372036854775808\n",
    ])
    def test_int64_overflow_exit_2(self, tmp_path, capsys, text):
        bad = tmp_path / "big.txt"
        bad.write_text(text)
        assert main(["reconstruct", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        f"# labels: {2**70}\n1\n0\n",
        "1_0\n" + "0 " * 10 + "\n",
    ])
    def test_header_outside_the_integer_grammar_exit_2(self, tmp_path, capsys, text):
        bad = tmp_path / "header.txt"
        bad.write_text(text)
        assert main(["reconstruct", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["compute", "reconstruct", "analyze"])
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"1 2\n3 \xe9\n")
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and err.count("\n") == 1


class TestAnalyze:
    def test_example7(self, example7_file, capsys):
        assert main(["analyze", str(example7_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["triangleCount"] == 1
        assert doc["fourCycleCount"] == 1
        assert doc["diameterAtMost2"] is False
        assert doc["s1Term"] == "4/4"
        assert doc["componentCount"] == 1

    def test_two_squares(self, two_squares_file, capsys):
        assert main(["analyze", str(two_squares_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["triangleFree"] is True
        assert doc["distinctEntryValues"] == [-2, 0, 2]
        assert doc["srgConsistent"] is False
        assert doc["componentCount"] == 2

    def test_single_edge(self, tmp_path, capsys):
        src = tmp_path / "e.edges"
        src.write_text("1 2\n")
        assert main(["analyze", str(src)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["triangleCount"] == 0
        assert doc["diameterAtMost2"] is True

    def test_empty_graph_has_no_diameter(self, tmp_path, capsys):
        src = tmp_path / "empty.edges"
        src.write_text("")
        assert main(["analyze", str(src)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 0
        assert doc["diameterAtMost2"] is False

    def test_component_count_is_read_off_m(self, two_squares_file, example7_file,
                                           monkeypatch, capsys):
        # the whole document comes from one report: no graph-side
        # components, and no other analytics function
        def refuse(*args):
            raise AssertionError("called")

        monkeypatch.setattr(graph, "connected_components", refuse)
        monkeypatch.setattr(cli, "connected_components", refuse, raising=False)
        report = analytics.structural_report
        for name, value in vars(analytics).copy().items():
            if (inspect.isfunction(value) and value.__module__ == analytics.__name__
                    and not name.startswith("_")):
                monkeypatch.setattr(analytics, name, refuse)
        reports = []
        monkeypatch.setattr(analytics, "structural_report",
                            lambda m: reports.append(m) or report(m))
        for path, count in [(two_squares_file, 2), (example7_file, 1)]:
            reports.clear()
            assert main(["analyze", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["componentCount"] == count
            assert len(reports) == 1

    @pytest.mark.parametrize("name", ["example7", "two_squares", "petersen", "empty"])
    def test_golden_document(self, name, tmp_path, capsys):
        # the whole document, key order and layout included, minus the timings
        text = {"example7": "\n".join(EXAMPLE7_EDGE_LINES) + "\n",
                "two_squares": format_edge_list(two_squares_graph()),
                "petersen": format_edge_list(petersen()), "empty": ""}[name]
        src = tmp_path / f"{name}.edges"
        src.write_text(text)
        assert main(["analyze", str(src)]) == 0
        out = re.sub(r'  "timingsMicros": \{[^}]*\},\n', "", capsys.readouterr().out)
        assert out == (GOLDEN / f"analyze_{name}.json").read_text()

    def test_integers_never_floats(self, example7_file, capsys):
        assert main(["analyze", str(example7_file)]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert isinstance(doc["triangleCount"], int)
        assert isinstance(doc["fourCycleCount"], int)

    def test_deterministic_modulo_timings(self, example7_file, capsys):
        main(["analyze", str(example7_file)])
        doc1 = json.loads(capsys.readouterr().out)
        main(["analyze", str(example7_file)])
        doc2 = json.loads(capsys.readouterr().out)
        doc1.pop("timingsMicros")
        doc2.pop("timingsMicros")
        assert doc1 == doc2


class TestVerify:
    def test_random_corpus_passes(self, capsys):
        assert main(["verify", "--trials", "20", "--size", "12", "--seed", "7"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_example7_input_passes(self, example7_file):
        assert main(["verify", str(example7_file)]) == 0

    def test_self_test_detects_corruption(self, capsys):
        assert main(["verify", "--self-test"]) == 1
        assert "corruption detected" in capsys.readouterr().out

    def test_raising_check_is_a_fail_row(self, monkeypatch, capsys):
        def corrupted(g):
            entries = build_nm(g).entries.copy()
            if g.n:
                entries[0, 0] -= 1
            return NeighborhoodMatrix(entries=entries, labels=g.labels)

        monkeypatch.setattr(verify, "build_nm", corrupted)
        assert main(["verify", "--trials", "3", "--size", "6", "--seed", "1"]) == 1
        out = capsys.readouterr().out
        # column_sums and reconstruct_adjacency raise on this matrix
        assert "column-sum-formula               FAIL" in out
        assert "detail: InvalidMatrixError: column sums" in out
        assert "reconstruction-round-trip        FAIL" in out
        assert "entry-shape                      FAIL" in out
        assert "detail: diagonal is not -degree" in out
        assert "counterexample edge list:" in out


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


OUT_OF_MEMORY_INPUTS = {
    # n = 60 000: build_nm's n^2 histogram asks for 26.8 GiB
    "analyze": "".join(f"{2 * i} {2 * i + 1}\n" for i in range(30000)),
    # dimension 10^6 and no entries, padded past the dimension guard: 7.28 TiB
    "reconstruct": "%%MatrixMarket matrix coordinate integer general\n"
                   + ("%" * 99 + "\n") * 10**4 + "1000000 1000000 0\n",
}


@pytest.mark.skipif(sys.platform != "linux", reason="the address-space cap is Linux only")
@pytest.mark.parametrize("command", sorted(OUT_OF_MEMORY_INPUTS))
def test_out_of_memory_is_one_error_line(command, tmp_path):
    # Never run these without the cap: the machine would try to provide it.
    src = tmp_path / "input.txt"
    src.write_text(OUT_OF_MEMORY_INPUTS[command])
    done = subprocess.run(
        [sys.executable, "-m", "nmgraph.cli", command, str(src)], capture_output=True,
        text=True, timeout=60, preexec_fn=_cap_address_space,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
    assert done.returncode == 3
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: Unable to allocate ")


@pytest.mark.parametrize("coordinate", ["-9223372036854775808 1", "1 -9223372036854775808"],
                         ids=["row", "column"])
def test_most_negative_coordinate_is_one_error_line(coordinate, tmp_path):
    # a fresh interpreter shows numpy's RuntimeWarnings, which pytest would catch
    src = tmp_path / "input.mtx"
    src.write_text(f"%%MatrixMarket matrix coordinate integer general\n2 2 1\n{coordinate} 1\n")
    done = subprocess.run(
        [sys.executable, "-m", "nmgraph.cli", "reconstruct", str(src)], capture_output=True,
        text=True, timeout=60,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"error: line 3: index ({coordinate.replace(' ', ',')}) out of range"]


class TestBench:
    def test_small_counts_equal(self, capsys):
        assert main(["bench", "--size", "16", "--reps", "3", "--seed", "1",
                     "--density", "0.3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        row = doc["rows"][0]
        assert row["n"] == 16 and row["reps"] == 3
        assert row["triangleCount"] >= 0

    def test_empty(self, capsys):
        assert main(["bench", "--size", "0"]) == 0
        assert json.loads(capsys.readouterr().out) == {"rows": []}


class TestCountArguments:
    @pytest.mark.parametrize("argv", [
        ["bench", "--reps", "0"],
        ["bench", "--size", "-1"],
        ["bench", "--density", "1.5"],
        ["bench", "--density", "nan"],
        ["verify", "--size", "-1"],
        ["verify", "--trials", "-1"],
        ["verify", "--trials", "x"],
    ])
    def test_bad_count_exit_2_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: nmgraph") and f"argument {argv[1]}" in err

    def test_bounds_are_inclusive(self, capsys):
        assert main(["verify", "--trials", "0", "--size", "0"]) == 0
        capsys.readouterr()
        assert main(["bench", "--size", "4", "--reps", "1", "--density", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["triangleCount"] == 4  # K4


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestTotalInputContract:
    """Any input bytes end in exit 0, 2, 3 or 4 with at most one line on
    stderr, never an exception out of main."""

    @pytest.mark.parametrize("argv", [
        ["compute"],
        ["compute", "--format", "mm"],
        ["reconstruct"],
        ["analyze"],
        ["verify"],
    ])
    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=200)
           | st.text(alphabet="0123456789 -#%\n", max_size=200).map(str.encode)
           | st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=20)
             .map(lambda pairs: "".join(f"{u} {v}\n" for u, v in pairs).encode()))
    def test_arbitrary_bytes(self, fuzz_input, argv, data):
        fuzz_input.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv[:1], str(fuzz_input), *argv[1:]])
        assert code in {0, 2, 3, 4}
        assert err.getvalue().count("\n") <= 1
