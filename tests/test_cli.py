from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmgraph import analytics, cli, graph, matio, oracles, verify
from nmgraph.cli import build_parser, main
from nmgraph.graph import from_edges
from nmgraph.nm import NeighborhoodMatrix, build_nm
from helpers import (EXAMPLE7_EDGE_LINES, EXAMPLE7_MATRIX, as_text, complete_graph, edgeless,
                     example7_graph, paley, petersen, q3_cube, sparse_graphs, two_squares_graph)
from nmgraph.graph import format_edge_list
from nmgraph.random_graphs import gnp

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def example7_file(tmp_path):
    path = tmp_path / "example7.edges"
    path.write_text("\n".join(EXAMPLE7_EDGE_LINES) + "\n")
    return path


@pytest.fixture
def two_squares_file(tmp_path):
    path = tmp_path / "two_squares.edges"
    path.write_bytes(format_edge_list(two_squares_graph()))
    return path


class TestCompute:
    def test_dense_matches_golden(self, example7_file, tmp_path, capsys):
        out = tmp_path / "m.txt"
        assert main(["compute", str(example7_file), "-o", str(out)]) == 0
        m = matio.read_dense(out.read_bytes())
        assert np.array_equal(m.entries, EXAMPLE7_MATRIX)
        assert m.labels == tuple(range(1, 8))

    def test_matrix_market(self, example7_file, tmp_path):
        out = tmp_path / "m.mtx"
        assert main(["compute", str(example7_file), "--format", "mm", "-o", str(out)]) == 0
        m = matio.read_matrix_market(out.read_bytes())
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
        assert second.read_bytes() == bytes(matio.write_dense(matio.read_auto(first.read_bytes())))


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
        bad.write_bytes(write(NeighborhoodMatrix(entries=entries, labels=tuple(range(1, 8)))))
        assert main(["reconstruct", str(bad)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: not a valid NM: entry \(\d+,\d+\) is -?\d+, "
                            r"the recovered graph's is -?\d+\n", err)

    @pytest.mark.parametrize("write", [matio.write_dense, matio.write_matrix_market])
    def test_file_named_like_gzip_is_plain_text(self, write, tmp_path):
        matrix = tmp_path / "m.gz"
        matrix.write_bytes(write(build_nm(example7_graph())))
        out = tmp_path / "r.edges"
        assert main(["reconstruct", str(matrix), "-o", str(out)]) == 0
        assert out.read_bytes() == bytes(format_edge_list(example7_graph()))

    def test_matrix_market_after_blank_line(self, tmp_path, capsys):
        mfile = tmp_path / "m.mtx"
        mfile.write_text("\n" + as_text(matio.write_matrix_market(build_nm(example7_graph()))))
        assert main(["reconstruct", str(mfile)]) == 0
        assert capsys.readouterr().out == as_text(format_edge_list(example7_graph()))

    @pytest.mark.parametrize("body, message", [
        ("", "error: missing size line"),
        ("2 3 0\n", "error: line 2: matrix is 2x3, expected square"),
    ])
    def test_matrix_market_size_line_exit_2(self, tmp_path, capsys, body, message):
        bad = tmp_path / "bad.mtx"
        bad.write_text(f"%%MatrixMarket matrix coordinate integer general\n{body}")
        assert main(["reconstruct", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_duplicate_coordinate_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 1\n1 2 1\n")
        assert main(["reconstruct", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: line 4: duplicate coordinate (1,2)"]

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

    @pytest.mark.parametrize("data", [
        b"# labels: 0 1\n2\n0 0\n0 \xe9\n",
        b"%%MatrixMarket matrix coordinate integer general\n% caf\xe9\n1 1 0\n",
        b"%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 5\xff",
        b"\xe9%%MatrixMarket matrix coordinate integer general\n1 1 0\n",
    ], ids=["dense", "mm-comment", "mm-last-byte", "first-byte"])
    def test_non_utf8_matrix_names_the_byte(self, tmp_path, capsys, data):
        bad = tmp_path / "m.txt"
        bad.write_bytes(data)
        assert main(["reconstruct", str(bad)]) == 2
        with pytest.raises(UnicodeDecodeError) as excinfo:
            data.decode("utf-8")
        byte, reason = excinfo.value.start, excinfo.value.reason
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (byte {byte}: {reason})\n"

    @pytest.mark.parametrize("command", ["compute", "reconstruct", "analyze", "verify"])
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"1 2\n3 \xe9\n")
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and err.count("\n") == 1
        if command != "reconstruct":  # test_non_utf8_matrix_names_the_byte pins it
            assert err == f"error: {bad}: not UTF-8 text (byte 6: invalid continuation byte)\n"


def _stdout_bytes(argv: list[str]) -> tuple[int, bytes]:
    """(exit code, the bytes main wrote to stdout), stdout being a text
    stream over a binary buffer, as a terminal's or a pipe's is."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue()


def _outputs(edges: Path, matrices: list[Path], work: Path) -> list[tuple[str, int, bytes]]:
    """(command, exit code, output) of compute (dense and mm) on the edge
    list and of reconstruct on each matrix file, each run once to stdout
    and once to -o; the two outputs must be the same bytes."""
    runs = [("compute", str(edges)), ("compute", str(edges), "--format", "mm")]
    runs += [("reconstruct", str(path)) for path in matrices]
    found = []
    for argv in runs:
        code, out = _stdout_bytes([*argv])
        target = work / "out"
        target.unlink(missing_ok=True)
        assert _stdout_bytes([*argv, "-o", str(target)]) == (code, b"")
        assert (target.read_bytes() if target.exists() else b"") == out
        found.append((" ".join(argv[:1] + argv[2:]), code, out))
    return found


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("io")


def _matrix_files(g, directory: Path) -> list[Path]:
    paths = []
    for write, name in [(matio.write_dense, "m.dense"), (matio.write_matrix_market, "m.mtx")]:
        paths.append(directory / name)
        paths[-1].write_bytes(write(build_nm(g)))
    return paths


class TestOutputBytes:
    @settings(max_examples=60, deadline=None)
    @given(g=sparse_graphs(max_n=24))
    def test_stdout_and_output_file_hold_the_same_bytes(self, io_dir, g):
        # n = 0 and isolated vertices included: reconstruct reads them from
        # the matrix, compute from the edge list, which cannot hold them
        edges = io_dir / "g.edges"
        edges.write_bytes(format_edge_list(g))
        _outputs(edges, _matrix_files(g, io_dir), io_dir)

    def test_outputs_match_the_pinned_digest(self, tmp_path):
        # the sha256 of every output of 44 inputs, as the text writers wrote
        # them before they wrote bytes: any change to a written byte shows
        assert _output_digest(tmp_path) == OUTPUT_DIGEST

    @pytest.mark.parametrize("argv", [["compute"], ["compute", "--format", "mm"],
                                      ["reconstruct"]])
    def test_stdout_closed_early_is_one_error_line(self, argv, tmp_path):
        # output well past a pipe's buffer, read for 10 bytes, then closed
        rng = random.Random(7)
        g = from_edges(2000, {tuple(sorted(rng.sample(range(2000), 2))) for _ in range(12000)})
        src = tmp_path / "input"
        src.write_bytes(matio.write_matrix_market(build_nm(g)) if argv == ["reconstruct"]
                        else format_edge_list(g))
        child = subprocess.Popen(
            [sys.executable, "-m", "nmgraph.cli", *argv, str(src)], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
        child.stdout.read(10)
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 3
        assert err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [["compute"], ["analyze"], ["verify", "--trials", "2"],
                                      ["--help"], ["--version"]],
                             ids=["compute", "analyze", "verify", "help", "version"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("same_pipe", [False, True], ids=["stderr-apart", "stderr-same"])
    def test_closed_stdout_exits_3(self, argv, unbuffered, same_pipe, tmp_path):
        # the pipe's read end is closed before the child starts, so its
        # first write fails: for output that fits stdout's buffer, main's flush,
        # and for --help and --version, argparse's own print or its flush
        rng = random.Random(7)
        g = from_edges(2000, {tuple(sorted(rng.sample(range(2000), 2))) for _ in range(12000)})
        src = tmp_path / "input"
        src.write_bytes(format_edge_list(g))
        env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "nmgraph.cli", *argv,
                 *([str(src)] if argv[0] in ("compute", "analyze") else [])],
                stdout=write_end, stderr=write_end if same_pipe else subprocess.PIPE,
                env=env, timeout=120)
        finally:
            os.close(write_end)
        assert child.returncode == 3
        if not same_pipe:
            assert child.stderr == b"error: [Errno 32] Broken pipe\n"

    def test_stdout_that_takes_part_of_each_write_gets_every_byte(self, example7_file,
                                                                    monkeypatch):
        # an unbuffered stdout's buffer is a raw FileIO, whose write may
        # take fewer bytes than it is given
        class Trickle(io.RawIOBase):
            def __init__(self):
                self.taken = bytearray()

            def writable(self):
                return True

            def write(self, data):
                self.taken += bytes(data[:3])
                return min(len(data), 3)

        trickle = Trickle()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(trickle))
        assert main(["compute", str(example7_file)]) == 0
        assert trickle.taken == matio.write_dense(build_nm(example7_graph())).tobytes()


def _digest_inputs() -> list[tuple[str, object]]:
    """44 graphs: named ones, the empty list, Paley(101), and 36 drawn
    by a seeded random.Random with labels up to 2^63 - 1, listed in a
    shuffled order with repeated and reversed pairs."""
    named = [example7_graph(), petersen(), two_squares_graph(), q3_cube(), complete_graph(5),
             edgeless(0), paley(101), edgeless(3)]
    rng = random.Random(2026)
    drawn = []
    for k in range(36):
        n = rng.randint(1, 40)
        labels = rng.sample(range(10**6), n) if k % 3 else rng.sample(range(2**63 - 40, 2**63), n)
        p = rng.choice([0.05, 0.2, 0.5, 0.9])
        pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        pairs += [pair[::-1] for pair in rng.sample(pairs, len(pairs) // 4)]
        rng.shuffle(pairs)
        drawn.append("".join(f"{u} {v}\n" for u, v in pairs))
    return named + drawn


def _output_digest(work: Path) -> str:
    digest = hashlib.sha256()
    for k, source in enumerate(_digest_inputs()):
        edges = work / f"g{k}.edges"
        if isinstance(source, str):
            edges.write_text(source)
            g = graph.parse_edge_list(source.encode())
        else:
            edges.write_text(as_text(format_edge_list(source)))
            g = source
        for name, code, out in _outputs(edges, _matrix_files(g, work), work):
            digest.update(f"{k} {name} {code} {len(out)}\n".encode() + out)
    return digest.hexdigest()


OUTPUT_DIGEST = "6296051f20e2dc86060c236c1c1f9a62e8cccc6700efabf22f54ff4c9b3e19cb"


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
                "two_squares": as_text(format_edge_list(two_squares_graph())),
                "petersen": as_text(format_edge_list(petersen())), "empty": ""}[name]
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

    def test_file_named_like_gzip_is_plain_text(self, tmp_path, capsys):
        docs = []
        for name in ("g.txt", "g.gz"):
            src = tmp_path / name
            src.write_bytes(format_edge_list(petersen()))
            assert main(["analyze", str(src)]) == 0
            docs.append(re.sub(r'  "timingsMicros": \{[^}]*\},\n', "", capsys.readouterr().out))
        assert docs[0] == docs[1] == (GOLDEN / "analyze_petersen.json").read_text()

    @pytest.mark.parametrize("text", ["", "# only\n\n# comments\n", "# caf\u00e9\n"])
    def test_no_edges_gives_n_0_without_a_warning(self, text, tmp_path, capsys):
        src = tmp_path / "g.txt"
        src.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(src)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 0

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
    def test_pipe_is_read_once(self):
        # a pipe gives nothing when opened again, so its text is what is read
        done = subprocess.run(
            [sys.executable, "-m", "nmgraph.cli", "analyze", "/dev/stdin"], capture_output=True,
            input=as_text(format_edge_list(petersen())), text=True, timeout=60,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
        assert (done.returncode, done.stderr) == (0, "")
        assert (json.loads(done.stdout)["n"], json.loads(done.stdout)["edgeCount"]) == (10, 15)


class TestVerify:
    def test_random_corpus_passes(self, capsys):
        assert main(["verify", "--trials", "20", "--size", "12", "--seed", "7"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_example7_input_passes(self, example7_file):
        assert main(["verify", str(example7_file)]) == 0

    def test_self_test_detects_corruption(self, capsys):
        assert main(["verify", "--self-test"]) == 1
        assert "corruption detected" in capsys.readouterr().out

    def test_self_test_fails_when_the_corruption_is_accepted(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "reconstruct_adjacency", lambda m: None)
        assert main(["verify", "--self-test"]) == 0
        assert capsys.readouterr().out == "self-test FAIL: corrupted matrix was accepted\n"

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


# n = 60 000: a dense M would take 26.8 GiB
DISJOINT_EDGES = "".join(f"{2 * i} {2 * i + 1}\n" for i in range(30000))
# dimension 10^6, padded past the dimension guard: a dense M would take 7.28 TiB
MILLION_HEADER = ("%%MatrixMarket matrix coordinate integer general\n"
                  + ("%" * 99 + "\n") * 10**4)


def _run_capped(argv: list[str], text: str, tmp_path: Path) -> subprocess.CompletedProcess:
    """The CLI on `text` in a subprocess whose address space is capped at
    4 GiB.  Never run these inputs without the cap: the machine would try
    to provide the memory."""
    src = tmp_path / "input.txt"
    src.write_text(text)
    return subprocess.run(
        [sys.executable, "-m", "nmgraph.cli", *argv, str(src)], capture_output=True,
        text=True, timeout=60, preexec_fn=_cap_address_space,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})


@pytest.mark.skipif(sys.platform != "linux", reason="the address-space cap is Linux only")
def test_out_of_memory_is_one_error_line(tmp_path):
    done = _run_capped(["compute", "--format", "dense"], DISJOINT_EDGES, tmp_path)
    assert done.returncode == 3
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: Unable to allocate ")


@pytest.mark.skipif(sys.platform != "linux", reason="the address-space cap is Linux only")
class TestNoDenseArrayOnSparseInputs:
    def test_analyze_disjoint_edges(self, tmp_path):
        done = _run_capped(["analyze"], DISJOINT_EDGES, tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        doc = json.loads(done.stdout)
        assert (doc["n"], doc["edgeCount"], doc["componentCount"]) == (60000, 30000, 30000)
        assert (doc["triangleCount"], doc["fourCycleCount"]) == (0, 0)
        assert doc["distinctEntryValues"] == [-1, 0, 1]

    def test_reconstruct_empty_million(self, tmp_path):
        done = _run_capped(["reconstruct"], MILLION_HEADER + "1000000 1000000 0\n", tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")

    def test_reconstruct_names_the_wrong_entry(self, tmp_path):
        text = MILLION_HEADER + "1000000 1000000 2\n1 1 0\n1000000 999999 -1\n"
        done = _run_capped(["reconstruct"], text, tmp_path)
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr == ("error: not a valid NM: entry (1000000,999999) is -1,"
                               " the recovered graph's is 0\n")


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

    def test_density_defaults_to_mean_degree_8(self, capsys):
        assert main(["bench", "--size", "16", "--reps", "1", "--seed", "1"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        g = gnp(16, 8 / 15, seed=1)
        assert row["edgeCount"] == g.edge_count
        assert row["triangleCount"] == analytics.triangle_count(build_nm(g))

    def test_count_mismatch_exit_1(self, monkeypatch, capsys):
        trace = oracles.triangle_count_trace
        monkeypatch.setattr(oracles, "triangle_count_trace", lambda g: trace(g) + 1)
        argv = ["bench", "--size", "8", "--reps", "1", "--seed", "2", "--density", "1"]
        assert main(argv) == 1  # K8: 56 triangles
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "count mismatch: nm=56 dense=57\n")

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

    @pytest.mark.parametrize("argv, out", [(["--version"], "0.1.0\n"),
                                           (["--help"], "usage: nmgraph [-h] [--version]")])
    def test_help_and_version_print_and_exit_0(self, capsys, argv, out):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(out)

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
