import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from satflip import MAX_STATE_CAP, SolveResult, TheoryError
from satflip import cli, formula
from satflip.cli import main
from satflip.errors import content_lines
from satflip.navigate import Outcome

from helpers import NON_DECIMAL_TOKENS, mutated

ROOT = pathlib.Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"

PATH_CNFS = str(DATA / "path.cnfs")
EQ_CNFS = str(DATA / "equality.cnfs")
THREECNF = str(DATA / "threecnf.cnfs")
K3_GRAPH = str(DATA / "k3.graph")
SINGLE_EDGE_GRAPH = str(DATA / "single_edge.graph")


PATH5_COMPLEMENT_CNFS = """\
# s=111
# t=001
vars 3
relation p5c 3
111
110
010
000
001
end
clause p5c x1 x2 x3
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


OR_REL = "arity 2\n01\n10\n11\n"


def write(path, text):
    path.write_text(text)
    return path


class TestClassify:
    def test_navigable_golden(self, capsys):
        code, out, _ = run(capsys, "classify", PATH_CNFS)
        assert code == 0
        assert out == (
            "relation path5: bijunctive=no horn=no dual-horn=yes affine=no"
            " componentwise-bijunctive=no or-free=no nand-free=yes"
            " horn-free=yes dual-horn-free=yes\n"
            "NAVIGABLE (nand-free + dual-horn-free)\n"
        )

    def test_vertex_cover_golden(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "vc", K3_GRAPH)
        assert code == 0
        instance = tmp_path / "vc.cnfs"
        instance.write_text(out)
        code, out, _ = run(capsys, "classify", str(instance))
        assert code == 0
        assert out.endswith("NP-COMPLETE CLASS (tight, not navigable)\n")
        assert "nand-free=yes" in out and "dual-horn-free=no" in out

    def test_three_cnf_golden(self, capsys):
        code, out, _ = run(capsys, "classify", THREECNF)
        assert code == 0
        assert out.endswith("PSPACE CLASS (not tight)\n")
        assert out.count("relation r") == 4

    def test_parse_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.cnfs"
        bad.write_text("vars 2\nclause nope x1 x2\n")
        code, out, err = run(capsys, "classify", str(bad))
        assert code == 1
        assert "undefined relation" in err
        assert out == ""

    def test_rel_file(self, capsys, tmp_path):
        rel = tmp_path / "or.rel"
        rel.write_text("arity 2\n01\n10\n11\n")
        code, out, _ = run(capsys, "classify", str(rel))
        assert code == 0
        assert out.endswith("NAVIGABLE (componentwise bijunctive)\n")

    def test_rel_file_refused_at_a_wide_closure_level(self, capsys, tmp_path):
        # the relation and each restriction onto three positions have only
        # bijunctive components; a restriction onto four positions does not
        rel = write(tmp_path / "w5.rel", "arity 5\n00001\n00101\n01010\n01011\n10101\n11010\n")
        code, out, _ = run(capsys, "classify", str(rel))
        assert (code, out) == (0, (
            "relation r1: bijunctive=no horn=no dual-horn=no affine=no "
            "componentwise-bijunctive=no or-free=no nand-free=no horn-free=yes "
            "dual-horn-free=yes\nPSPACE CLASS (not tight)\n"))

    def test_relation_read_by_content_not_name(self, capsys, monkeypatch, tmp_path):
        want = run(capsys, "classify", str(write(tmp_path / "or.rel", OR_REL)))
        assert want[0] == 0 and want[1].startswith("relation r1: ")
        assert run(capsys, "classify", str(write(tmp_path / "or.txt", OR_REL))) == want
        assert run(capsys, "classify", str(write(tmp_path / "or.cnfs", OR_REL))) == want
        commented = "# the OR relation\n\n" + OR_REL
        assert run(capsys, "classify", str(write(tmp_path / "c.cnfs", commented))) == want
        assert run_stdin(capsys, monkeypatch, OR_REL.encode(), "classify", "-") == want

    def test_formula_read_by_content_not_name(self, capsys, tmp_path):
        want = run(capsys, "classify", PATH_CNFS)
        path_text = pathlib.Path(PATH_CNFS).read_text()
        assert run(capsys, "classify", str(write(tmp_path / "p.rel", path_text))) == want
        # a malformed file named .rel whose first line is not `arity` gets
        # the .cnfs reader's message
        code, out, err = run(capsys, "classify", str(write(tmp_path / "bad.rel", "01\n")))
        assert (code, out, err) == (1, "", "satflip: error: line 1: unknown directive '01'\n")


class TestSolve:
    def test_path_instance_golden(self, capsys):
        code, out, _ = run(capsys, "solve", PATH_CNFS)
        assert (code, out) == (0, "PATH 4 x3+ x1+ x2+ x3-\n")

    def test_endpoint_flags_override(self, capsys):
        code, out, _ = run(capsys, "solve", PATH_CNFS, "--from", "110", "--to", "110")
        assert (code, out) == (0, "PATH 0\n")

    def test_not_connected(self, capsys):
        code, out, _ = run(capsys, "solve", EQ_CNFS)
        assert (code, out) == (0, "NOTCONNECTED\n")

    def test_unsatisfying_endpoint_names_clause(self, capsys):
        code, _, err = run(capsys, "solve", PATH_CNFS, "--from", "010", "--to", "110")
        assert code == 2
        assert "clause 1" in err

    def test_verify_keeps_output(self, capsys):
        code, out, err = run(capsys, "solve", PATH_CNFS, "--verify")
        assert (code, out, err) == (0, "PATH 4 x3+ x1+ x2+ x3-\n", "")

    def test_verify_above_cap_says_it_skipped(self, capsys):
        # n = 3 is above --cap 2: the answer stands unchecked, and stderr says so
        code, out, err = run(capsys, "solve", PATH_CNFS, "--verify", "--cap", "2")
        assert (code, out) == (0, "PATH 4 x3+ x1+ x2+ x3-\n")
        assert err == "verify: skipped, n = 3 is above --cap 2\n"
        code, _, err = run(capsys, "solve", PATH_CNFS, "--verify", "--cap", "3")
        assert (code, err) == (0, "")

    def test_verbose_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "solve", PATH_CNFS, "--verbose")
        assert code == 0
        assert out == "PATH 4 x3+ x1+ x2+ x3-\n"
        assert err == (
            "# level 1: s=000 t=110 S'={x1+ x2+ x3+} T'={} eta=4\n"
            "# level 2: s=111 t=110 S'={} T'={x3+} eta=1\n"
        )

    def test_verbose_on_the_complement_route(self, capsys, tmp_path):
        # PATH5's complement: solved on its complement image, reported in
        # its own states and lowering flips
        f = tmp_path / "p5c.cnfs"
        f.write_text(PATH5_COMPLEMENT_CNFS)
        code, out, err = run(capsys, "solve", str(f), "--verbose")
        assert (code, out) == (0, "PATH 4 x3- x1- x2- x3+\n")
        assert err == (
            "# level 1: s=111 t=001 S'={x1- x2- x3-} T'={} eta=4\n"
            "# level 2: s=000 t=001 S'={} T'={x3-} eta=1\n"
        )

    def test_verbose_is_silent_off_the_order_routes(self, capsys, tmp_path):
        # only the order-based solver has levels to print: a HARD
        # instance and componentwise bijunctive ones leave stderr empty
        _, text, _ = run(capsys, "gen", "vc", K3_GRAPH)
        (tmp_path / "k3.cnfs").write_text(text)
        (tmp_path / "or2.cnfs").write_text(
            "# s=01\n# t=10\nvars 2\nrelation or2 2\n01\n10\n11\nend\nclause or2 x1 x2\n")
        for path, line in ((tmp_path / "k3.cnfs", "HARD TIGHT_NOT_NAVIGABLE"),
                           (tmp_path / "or2.cnfs", "PATH 2 x1+ x2-"),
                           (EQ_CNFS, "NOTCONNECTED")):
            assert run(capsys, "solve", str(path), "--verbose") == (0, line + "\n", "")
        _, out, _ = run(capsys, "classify", str(tmp_path / "or2.cnfs"))
        assert out.endswith("NAVIGABLE (componentwise bijunctive)\n")

    def test_hard_with_oracle(self, capsys, tmp_path):
        _, text, _ = run(capsys, "gen", "vc", SINGLE_EDGE_GRAPH)
        instance = tmp_path / "vc.cnfs"
        instance.write_text(text)
        code, out, _ = run(capsys, "solve", str(instance), "--allow-oracle")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "HARD TIGHT_NOT_NAVIGABLE"
        assert lines[1].startswith("PATH 4 ")

    def test_hard_without_oracle(self, capsys, tmp_path):
        _, text, _ = run(capsys, "gen", "vc", SINGLE_EDGE_GRAPH)
        instance = tmp_path / "vc.cnfs"
        instance.write_text(text)
        code, out, _ = run(capsys, "solve", str(instance))
        assert (code, out) == (0, "HARD TIGHT_NOT_NAVIGABLE\n")

    def test_hard_with_oracle_within_and_above_cap(self, capsys, tmp_path):
        # K3's vertex-cover instance has n = 9: --cap 8 skips the exact
        # search, and --cap 9 prints the line that `oracle --cap 9` prints
        _, text, _ = run(capsys, "gen", "vc", K3_GRAPH)
        instance = tmp_path / "k3.cnfs"
        instance.write_text(text)
        assert text.splitlines()[2] == "vars 9"
        code, out, err = run(capsys, "solve", str(instance), "--allow-oracle", "--cap", "8")
        assert (code, out, err) == (0, "HARD TIGHT_NOT_NAVIGABLE\n", "")
        _, oracle_out, _ = run(capsys, "oracle", str(instance), "--cap", "9")
        assert oracle_out.startswith("PATH ")
        code, out, err = run(capsys, "solve", str(instance), "--allow-oracle", "--cap", "9")
        assert (code, out, err) == (0, "HARD TIGHT_NOT_NAVIGABLE\n" + oracle_out, "")

    def test_missing_endpoints(self, capsys):
        code, _, err = run(capsys, "solve", THREECNF)
        assert code == 1
        assert "--from" in err


class TestOracle:
    def test_path_instance(self, capsys):
        code, out, _ = run(capsys, "oracle", PATH_CNFS)
        assert (code, out) == (0, "PATH 4 x3+ x1+ x2+ x3-\n")

    def test_same_endpoints(self, capsys):
        code, out, _ = run(capsys, "oracle", PATH_CNFS, "--from", "000", "--to", "000")
        assert (code, out) == (0, "PATH 0\n")

    def test_not_connected(self, capsys):
        code, out, _ = run(capsys, "oracle", EQ_CNFS)
        assert (code, out) == (0, "NOTCONNECTED\n")

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "oracle", PATH_CNFS, "--cap", "2")
        assert code == 2
        assert "cap 2" in err

    @pytest.mark.parametrize("argv", [
        ("oracle",),
        ("solve",),
        ("solve", "--verify"),
        ("dot", "--what", "recon"),
        ("dot", "--what", "fliporder"),
    ], ids=["oracle", "solve", "solve-verify", "dot-recon", "dot-fliporder"])
    def test_cap_above_ceiling_exit_2(self, capsys, argv):
        # the 3-variable instance fits any cap; a 2^40-state cap is refused
        code, out, err = run(capsys, argv[0], PATH_CNFS, *argv[1:], "--cap", "40")
        assert (code, out) == (2, "")
        assert f"cap 40 is above the largest supported cap {MAX_STATE_CAP}" in err

    @pytest.mark.parametrize("argv", [
        ("oracle",),
        ("solve",),
        ("dot", "--what", "recon"),
    ], ids=["oracle", "solve", "dot-recon"])
    def test_negative_cap_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv[0], PATH_CNFS, *argv[1:], "--cap", "-5")
        assert (code, out) == (2, "")
        assert "state cap -5 is negative" in err


CAP_99 = (
    f"state cap 99 is above the largest supported cap {MAX_STATE_CAP}"
    " (2 bytes for each of 2^cap states)"
)


class TestCapBeforeFile:
    """A bad --cap is refused before the formula file is read."""

    @pytest.mark.parametrize("argv, message", [
        (("oracle", "--cap", "99"), CAP_99),
        (("solve", "--cap", "-1"), "state cap -1 is negative"),
        (("solve", "--verify", "--cap", "99"), CAP_99),
        (("dot", "--cap", "-1"), "state cap -1 is negative"),
        (("dot", "--what", "fliporder", "--cap", "99"), CAP_99),
    ], ids=["oracle", "solve", "solve-verify", "dot", "dot-fliporder"])
    def test_missing_file_gets_the_cap_message(self, capsys, tmp_path, argv, message):
        missing = str(tmp_path / "missing.cnfs")
        assert run(capsys, argv[0], missing, *argv[1:]) == (2, "", f"satflip: error: {message}\n")

    def test_malformed_file_gets_the_cap_message(self, capsys, tmp_path):
        bad = write(tmp_path / "bad.cnfs", "vars 3\nclause nope x1\n")
        assert run(capsys, "oracle", str(bad), "--cap", "-1") == (
            2, "", "satflip: error: state cap -1 is negative\n")
        code, _, err = run(capsys, "oracle", str(bad), "--cap", "3")
        assert (code, err) == (1, "satflip: error: line 2: undefined relation 'nope'\n")


class TestSearchGate:
    @pytest.mark.parametrize("argv, message", [
        (("oracle", "WIDE"), "formula has 21 variables, above the oracle cap 20"),
        (("oracle", PATH_CNFS, "--cap", "99"), CAP_99),
        (("dot", "WIDE"), "formula has 21 variables, above the explicit-graph cap 20"),
        (("dot", "--format", "text", "WIDE"),
         "formula has 21 variables, above the explicit-graph cap 20"),
        (("dot", PATH_CNFS, "--cap", "99"), CAP_99),
        (("dot", "--what", "fliporder", PATH_CNFS, "--cap", "99"), CAP_99),
    ], ids=["oracle", "oracle-cap-99", "dot", "dot-text", "dot-cap-99", "fliporder-cap-99"])
    def test_refused_before_compiling(self, capsys, monkeypatch, tmp_path, argv, message):
        wide = tmp_path / "wide.cnfs"
        wide.write_text(f"# s={'0' * 21}\n# t={'1' * 21}\nvars 21\n")

        def compile_nothing(phi):
            pytest.fail("the formula was compiled before the refusal")

        monkeypatch.setattr(formula, "_compile", compile_nothing)
        argv = [str(wide) if arg == "WIDE" else arg for arg in argv]
        assert run(capsys, *argv) == (2, "", f"satflip: error: {message}\n")

    # Far above the cap: a malformed third line, or no endpoints at all.
    # The gate reads the `vars` line and refuses before the parse.
    FAR = "vars 240001\nrelation r 1\nnot-a-tuple\nend\n"
    NO_ENDPOINTS = "# a comment\n\n  vars 240001\nrelation r 1\n1\nend\nclause r x1\n"

    @pytest.mark.parametrize("text", [FAR, "# s=0\n" + FAR, NO_ENDPOINTS],
                             ids=["malformed", "malformed-one-endpoint", "no-endpoints"])
    @pytest.mark.parametrize("argv, use", [
        (("oracle", "--cap", "2"), "oracle"),
        (("dot", "--cap", "2"), "explicit-graph"),
        (("dot", "--format", "text"), "explicit-graph"),
        (("oracle", "--from", "bad", "--cap", "2"), "oracle"),
    ], ids=["oracle", "dot", "dot-text-default-cap", "oracle-bad-from"])
    def test_refused_at_the_vars_line(self, capsys, monkeypatch, tmp_path, text, argv, use):
        def spy(*args):
            pytest.fail("the formula was parsed or compiled before the refusal")

        monkeypatch.setattr(cli, "parse_instance", spy)
        monkeypatch.setattr(formula, "_compile", spy)
        cap = argv[argv.index("--cap") + 1] if "--cap" in argv else "20"
        path = write(tmp_path / "far.cnfs", text)
        assert run(capsys, argv[0], str(path), *argv[1:]) == (
            2, "", f"satflip: error: formula has 240001 variables, above the {use} cap {cap}\n")

    @pytest.mark.parametrize("text, err", [
        # not a well-formed `vars N` first: parsed as before
        ("vars 240001 extra\n", "line 1: expected 'vars <n>'"),
        ("vars 2_40001\n", "line 1: bad variable count '2_40001'"),
        ("relation r 1\nvars 240001\n", "line 1: 'vars' must come before 'relation'"),
        # within the cap: the parse decides, as before
        ("vars 2\nrelation r 1\nnot-a-tuple\n", "line 3: expected a 1-bit tuple or 'end' in relation 'r'"),
        ("vars -3\n", "line 1: variable count must be >= 1"),
    ], ids=["extra-token", "non-decimal", "relation-first", "within-cap", "negative"])
    @pytest.mark.parametrize("command", ["oracle", "dot"])
    def test_other_files_are_parsed_as_before(self, capsys, tmp_path, command, text, err):
        path = write(tmp_path / "f.cnfs", text)
        assert run(capsys, command, str(path), "--cap", "2") == (1, "", f"satflip: error: {err}\n")

    def test_solve_and_fliporder_are_not_gated(self, capsys, tmp_path):
        path = write(tmp_path / "far.cnfs", self.FAR)
        for argv in (("solve",), ("dot", "--what", "fliporder")):
            code, _, err = run(capsys, *argv, str(path), "--cap", "2")
            assert (code, err) == (
                1, "satflip: error: line 3: expected a 1-bit tuple or 'end' in relation 'r'\n")


def content_lines_first(text):
    return next((line for _, line in content_lines(text, "#")), "")


class TestFirstLine:
    """`cli._first_line` reads lines only up to the first content line,
    and agrees with `errors.content_lines` on which line that is."""

    @pytest.mark.parametrize("text, first", [
        ("vars 3\nrelation r 1\n", "vars 3"),
        ("vars 3", "vars 3"),  # no line end at all
        ("# s=000\n# t=111\nvars 3", "vars 3"),  # the first content line has none
        ("# c\r\n\r\n  arity 2 \r\n01\r\n", "arity 2"),
        ("# c\rarity 2\r01\r", "arity 2"),
        ("\n\r\n\r  \t\n# only\n#comments\n", ""),
        ("", ""),
        ("\x0bvars 3\x0c\nnext", "vars 3"),  # whitespace inside a line is stripped
        ("# c\x0bvars 3\nnext", "next"),  # \x0b ends no line: the comment holds it
        ("#\n # indented\nx", "x"),
    ], ids=["lf", "no-line-end", "last-line-no-end", "crlf", "cr", "blank-and-comments",
            "empty", "inner-whitespace", "vertical-tab-in-comment", "indented-comment"])
    def test_same_line_as_content_lines(self, text, first):
        assert cli._first_line(text) == first == content_lines_first(text)

    @given(st.text(alphabet="ab# \t\r\n\x0b\x85", max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_content_lines_on_any_text(self, text):
        assert cli._first_line(text) == content_lines_first(text)

    def test_the_rest_of_the_text_is_not_split(self):
        text = f"# s={'0' * 1000}\n\nvars 3\n" + "clause r x1\n" * 200_000
        tracemalloc.start()
        try:
            first = cli._first_line(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == "vars 3"
        # splitting the 2.4 MB text would hold 200,000 line strings
        assert peak < 64 << 10


class TestGen:
    def test_vc_k3_golden(self, capsys):
        code, out, _ = run(capsys, "gen", "vc", K3_GRAPH)
        assert code == 0
        assert out == (
            "# s=000000000\n"
            "# t=000111111\n"
            "vars 9\n"
            "relation vc3 3\n"
            "000\n001\n011\n100\n101\n110\n111\n"
            "end\n"
            "clause vc3 x4 x5 x1\n"
            "clause vc3 x5 x4 x2\n"
            "clause vc3 x6 x7 x1\n"
            "clause vc3 x7 x6 x3\n"
            "clause vc3 x8 x9 x2\n"
            "clause vc3 x9 x8 x3\n"
        )

    def test_is_single_edge(self, capsys):
        code, out, _ = run(capsys, "gen", "is", SINGLE_EDGE_GRAPH)
        assert code == 0
        assert "vars 5" in out
        assert out.count("clause is3") == 2

    def test_random_round_trips_through_solve(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "random", "--vars", "6", "--clauses", "3", "--seed", "5"
        )
        assert code == 0
        instance = tmp_path / "r.cnfs"
        instance.write_text(out)
        code, out, _ = run(capsys, "solve", str(instance), "--verify")
        assert code == 0
        assert out.startswith(("PATH", "NOTCONNECTED"))

    def test_seeded_determinism(self, capsys):
        args = ("gen", "random", "--vars", "8", "--clauses", "4", "--seed", "123")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_negative_clause_count_exit_2(self, capsys):
        code, out, err = run(capsys, "gen", "random", "--clauses", "-1")
        assert (code, out) == (2, "")
        assert "num_clauses must be at least 0, got -1" in err

    @pytest.mark.parametrize("flag", ["--clauses", "--relations"])
    def test_count_above_ceiling_exit_2(self, capsys, flag):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "gen", "random", flag, "1000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert f"{flag} must be at most 1000, got 1000000000" in err
        assert peak < 1 << 20

    def test_huge_vertex_count_exit_1(self, capsys, tmp_path):
        huge = tmp_path / "huge.graph"
        huge.write_text("graph 99999999999999\nedge 1 2\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "gen", "vc", str(huge))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert "graph has 99999999999999 vertices, above the ceiling 1000000" in err
        assert peak < 1 << 20

    def test_malformed_graph_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("graph 2\nedge 1\n")
        code, _, err = run(capsys, "gen", "vc", str(bad))
        assert code == 1
        assert "line 2" in err


class TestDot:
    def test_recon_golden(self, capsys):
        code, out, _ = run(capsys, "dot", PATH_CNFS, "--what", "recon")
        assert code == 0
        assert out.startswith("graph recon {\n")
        assert out.count("--") == 4

    def test_fliporder_uses_embedded_endpoint(self, capsys):
        code, out, _ = run(capsys, "dot", PATH_CNFS, "--what", "fliporder")
        assert code == 0
        assert '"x3+" -> "x1+";' in out

    def test_free_cube(self, capsys, tmp_path):
        f = tmp_path / "free.cnfs"
        f.write_text("vars 1\n")
        code, out, _ = run(capsys, "dot", str(f))
        assert code == 0
        assert out == 'graph recon {\n  "0";\n  "1";\n  "0" -- "1";\n}\n'

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "dot", PATH_CNFS, "--format", "text")
        assert (code, out) == (0, "states 5\nedges 4\n")

    def test_graph_above_budget_is_refused(self, capsys, tmp_path):
        free = tmp_path / "free.cnfs"
        free.write_text("vars 18\n")
        code, out, err = run(capsys, "dot", str(free))
        assert (code, out) == (2, "")
        assert "262144 states and 2359296 edges" in err
        assert "512 MiB budget" in err
        # the counts alone need no graph
        code, out, _ = run(capsys, "dot", "--format", "text", str(free))
        assert (code, out) == (0, "states 262144\nedges 2359296\n")

    def test_fliporder_on_the_complement_route(self, capsys, tmp_path):
        f = tmp_path / "p5c.cnfs"
        f.write_text(PATH5_COMPLEMENT_CNFS)
        code, out, _ = run(capsys, "dot", str(f), "--what", "fliporder")
        assert (code, out) == (0, (
            "digraph fliporder {\n"
            '  "x1-";\n'
            '  "x2-";\n'
            '  "x3-";\n'
            '  "x1-" -> "x2-";\n'
            '  "x3-" -> "x1-";\n'
            "}\n"
        ))
        code, out, _ = run(capsys, "dot", str(f), "--what", "fliporder", "--format", "text")
        assert (code, out) == (0, "nodes 3\nedges 3\n")

    def test_fliporder_draws_the_routes_dag(self, capsys, tmp_path):
        # The declared set routes through the complement because of a
        # relation no clause uses; the implication clause alone would have
        # a raising DAG (the free x3+), but the route's lowering DAG is drawn.
        f = tmp_path / "unused.cnfs"
        f.write_text(
            "vars 3\n"
            "relation p5c 3\n111\n110\n010\n000\n001\nend\n"
            "relation imp 2\n00\n10\n11\nend\n"
            "clause imp x1 x2\n"
        )
        code, out, _ = run(capsys, "dot", str(f), "--what", "fliporder", "--from", "110")
        assert (code, out) == (0, (
            "digraph fliporder {\n"
            '  "x1-";\n'
            '  "x2-";\n'
            '  "x2-" -> "x1-";\n'
            "}\n"
        ))

    @pytest.mark.parametrize("form", [(), ("--format", "text")], ids=["dot", "text"])
    def test_fliporder_refuses_a_route_outside_the_order_class(self, capsys, tmp_path, form):
        # NAND is OR-free + Horn-free and also bijunctive: solve takes the
        # greedy walk, not the complement, so there is no flip order to draw
        f = tmp_path / "nand.cnfs"
        f.write_text(
            "vars 3\n"
            "relation nand 2\n00\n01\n10\nend\n"
            "clause nand x1 x2\n"
            "clause nand x2 x3\n"
            "# s=000\n"
        )
        code, out, _ = run(capsys, "classify", str(f))
        assert (code, out.splitlines()[-1]) == (0, "NAVIGABLE (componentwise bijunctive)")
        code, out, err = run(capsys, "dot", str(f), "--what", "fliporder", *form)
        assert (code, out) == (2, "")
        assert err == (
            "satflip: error: the relation of clause 1 is not NAND-free and dual-Horn-free\n"
        )

    @pytest.mark.parametrize("form", [(), ("--format", "text")], ids=["dot", "text"])
    def test_cap_checked_before_compiling(self, capsys, tmp_path, form):
        f = tmp_path / "huge.cnfs"
        f.write_text("vars 2000000\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "dot", *form, str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "formula has 2000000 variables, above the explicit-graph cap 20" in err
        assert peak < 16 << 20

    def test_fliporder_rejects_hard_formula(self, capsys, tmp_path):
        _, text, _ = run(capsys, "gen", "is", SINGLE_EDGE_GRAPH)
        instance = tmp_path / "is.cnfs"
        instance.write_text(text)
        code, _, err = run(capsys, "dot", str(instance), "--what", "fliporder")
        assert code == 2
        assert "NAND-free" in err


def run_stdin(capsys, monkeypatch, data, *argv, errors="strict"):
    """`run` with `data` as stdin's bytes. The interpreter picks stdin's
    text error handler from the locale; `errors` stands for that choice."""
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
    monkeypatch.setattr(sys, "stdin", stdin)
    return run(capsys, *argv)


class TestStdin:
    @pytest.mark.parametrize("name", ["equality.cnfs", "path.cnfs", "threecnf.cnfs"])
    def test_classify_matches_file(self, capsys, monkeypatch, name):
        path = DATA / name
        want = run(capsys, "classify", str(path))
        assert want[0] == 0
        assert run_stdin(capsys, monkeypatch, path.read_bytes(), "classify", "-") == want

    @pytest.mark.parametrize("path", [PATH_CNFS, EQ_CNFS])
    def test_solve_with_embedded_endpoints_matches_file(self, capsys, monkeypatch, path):
        want = run(capsys, "solve", path)
        assert want[0] == 0 and want[1].startswith(("PATH", "NOTCONNECTED"))
        data = pathlib.Path(path).read_bytes()
        assert run_stdin(capsys, monkeypatch, data, "solve", "-") == want

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape", "replace"])
    @pytest.mark.parametrize("command", ["classify", "solve"])
    def test_not_utf8_reports_like_a_file(self, capsys, monkeypatch, tmp_path, command, errors):
        data = b"vars 3\xff\n"
        bad = tmp_path / "bad.cnfs"
        bad.write_bytes(data)
        code, out, err = run(capsys, command, str(bad))
        assert (code, out) == (1, "")
        assert err == f"satflip: error: cannot read {bad}: not UTF-8 text at byte 6\n"
        got = run_stdin(capsys, monkeypatch, data, command, "-", errors=errors)
        assert got == (1, "", err.replace(str(bad), "-"))

    def test_module_entry_point_reads_stdin_bytes(self):
        # surrogateescape is the handler a C or POSIX locale gives stdin
        proc = subprocess.run(
            [sys.executable, "-m", "satflip", "classify", "-"],
            input=b"vars 3\xff\n",
            capture_output=True,
            env=dict(os.environ, PYTHONIOENCODING="utf-8:surrogateescape"),
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"satflip: error: cannot read -: not UTF-8 text at byte 6\n"


class TestUsage:
    def test_not_utf8_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.cnfs"
        bad.write_bytes(b"vars 3\xff\n")
        code, out, err = run(capsys, "classify", str(bad))
        assert (code, out) == (1, "")
        assert "not UTF-8 text at byte 6" in err

    def test_unknown_subcommand_exit_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    # at the parent commit argparse read these with int(): `--cap ٣` ran
    # with cap 3 and `gen random --vars ٣` wrote a 3-variable formula
    @pytest.mark.parametrize("token", NON_DECIMAL_TOKENS)
    @pytest.mark.parametrize("argv", [
        ("oracle", PATH_CNFS, "--cap"),
        ("solve", PATH_CNFS, "--cap"),
        ("dot", PATH_CNFS, "--cap"),
        ("gen", "random", "--vars"),
        ("gen", "random", "--clauses"),
        ("gen", "random", "--arity"),
        ("gen", "random", "--relations"),
        ("gen", "random", "--seed"),
    ], ids=lambda argv: " ".join(argv[::2]))
    def test_non_decimal_flag_exit_1(self, capsys, argv, token):
        with pytest.raises(SystemExit) as err:
            main([*argv, token])
        captured = capsys.readouterr()
        assert (err.value.code, captured.out) == (1, "")
        assert f"error: argument {argv[-1]}: invalid int value: {token!r}\n" in captured.err

    def test_flags_keep_leading_zeros(self, capsys):
        assert run(capsys, "oracle", PATH_CNFS, "--cap", "03") == (
            run(capsys, "oracle", PATH_CNFS, "--cap", "3"))
        padded = run(capsys, "gen", "random", "--vars", "06", "--clauses", "004",
                     "--arity", "02", "--relations", "01", "--seed", "007")
        plain = run(capsys, "gen", "random", "--vars", "6", "--clauses", "4",
                    "--arity", "2", "--relations", "1", "--seed", "7")
        assert padded == plain
        assert plain[0] == 0

    def test_import_loads_no_dataclasses(self):
        # dataclasses and the inspect module it imports cost a CLI process
        # about 10 ms; measured against the modules loaded before the
        # import, so that a site hook loading them does not count
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import satflip.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "satflip", "solve", PATH_CNFS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "PATH 4 x3+ x1+ x2+ x3-\n"

    def test_no_command_needs_numpy(self, capsys, tmp_path):
        # The same commands run twice in fresh interpreters: once with
        # numpy blocked (importing it raises), once without. Both runs
        # must agree, and the unblocked one must not have loaded numpy.
        _, is_text, _ = run(capsys, "gen", "is", K3_GRAPH)
        is_cnfs = tmp_path / "is.cnfs"
        is_cnfs.write_text(is_text)
        commands = [
            ["classify", PATH_CNFS],
            ["solve", "--verify", PATH_CNFS],
            ["solve", "--verify", EQ_CNFS],
            ["solve", "--allow-oracle", str(is_cnfs)],
            ["oracle", PATH_CNFS],
            ["oracle", EQ_CNFS],
            ["dot", PATH_CNFS],
            ["dot", "--format", "text", str(is_cnfs)],
            ["dot", "--what", "fliporder", PATH_CNFS],
            ["gen", "vc", K3_GRAPH],
            ["gen", "is", K3_GRAPH],
            ["gen", "random", "--seed", "3"],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "if sys.argv[1] == 'block':\n"
            "    sys.modules['numpy'] = None\n"
            "from satflip.cli import main\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[2]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        results.append([main(argv), out.getvalue()])\n"
            "print(json.dumps([results, sys.modules.get('numpy') is not None]))\n"
        )
        runs = {}
        for mode in ("block", "free"):
            proc = subprocess.run(
                [sys.executable, "-c", script, mode, json.dumps(commands)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            runs[mode] = json.loads(proc.stdout)
        results, loaded = runs["free"]
        assert not loaded
        assert runs["block"] == [results, False]
        assert [code for code, _ in results] == [0] * len(commands)
        assert results[1][1] == "PATH 4 x3+ x1+ x2+ x3-\n"
        assert results[2][1] == results[5][1] == "NOTCONNECTED\n"
        assert results[3][1].startswith("HARD ")
        assert results[7][1].startswith("states ")


class TestErrorPaths:
    def test_missing_file_exit_1(self, capsys, tmp_path):
        missing = tmp_path / "missing.cnfs"
        assert run(capsys, "solve", str(missing)) == (
            1, "", f"satflip: error: cannot read {missing}: {os.strerror(errno.ENOENT)}\n")

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_no_target_exit_1(self, capsys, tmp_path, command):
        source_only = tmp_path / "source_only.cnfs"
        source_only.write_text(pathlib.Path(PATH_CNFS).read_text().replace("# t=110\n", ""))
        assert run(capsys, command, str(source_only)) == (
            1, "", "satflip: error: no target assignment: pass --to or embed a '# t=' comment\n")

    def test_fliporder_without_source_exit_1(self, capsys, tmp_path):
        no_source = tmp_path / "no_source.cnfs"
        no_source.write_text(pathlib.Path(PATH_CNFS).read_text().replace("# s=000\n", ""))
        assert run(capsys, "dot", "--what", "fliporder", str(no_source)) == (
            1, "", "satflip: error: no assignment: pass --from or embed a '# s=' comment\n")

    def test_verify_disagreement_exit_3(self, capsys, monkeypatch):
        # an exact search that disagrees with the solver
        monkeypatch.setattr(cli.recon, "bfs_shortest",
                            lambda *args, **kwargs: SolveResult(Outcome.NOT_CONNECTED))
        assert run(capsys, "solve", PATH_CNFS, "--verify") == (
            3,
            "PATH 4 x3+ x1+ x2+ x3-\n",
            "verify: solver said 'PATH 4 x3+ x1+ x2+ x3-', exact search said 'NOTCONNECTED'\n",
        )

    def test_theory_error_exit_3(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise TheoryError("level made no progress on the zero count")

        monkeypatch.setattr(cli.navigate, "solve", broken)
        assert run(capsys, "solve", PATH_CNFS) == (
            3, "", "satflip: internal error: level made no progress on the zero count\n")


def run_module(*argv, prefix=("-m", "satflip")):
    """`python -m satflip ARGV` with PYTHONPATH=src, as README runs it:
    (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, *prefix, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestModuleEntryPoint:
    """src/satflip/__main__.py, which the README and the benchmark's cli
    workload run, prints what cli.main prints in-process."""

    @pytest.mark.parametrize("argv", [
        ("classify", PATH_CNFS),
        ("solve", PATH_CNFS),
        ("solve", PATH_CNFS, "--verify", "--verbose"),
        ("solve", PATH_CNFS, "--from", "111"),
    ], ids=["classify", "solve", "solve-verbose", "solve-bad-endpoint"])
    def test_matches_main_in_process(self, capsys, argv):
        assert run_module(*argv) == run(capsys, *argv)

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify"])
        captured = capsys.readouterr()
        assert err.value.code == 1
        assert run_module("classify") == (1, captured.out, captured.err)
        assert "the following arguments are required: formula" in captured.err

    def test_project_script_runs_cli_main(self, capsys):
        # `pip install .` writes a `satflip` script that imports the
        # [project.scripts] entry and exits with what it returns
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        entry = re.search(r'^\[project\.scripts\]\nsatflip = "([\w.]+):(\w+)"$', text, re.M)
        assert entry.groups() == ("satflip.cli", "main")
        script = "import sys; from satflip.cli import main; sys.exit(main())"
        for argv in (("classify", PATH_CNFS), ("solve", PATH_CNFS)):
            assert run_module(*argv, prefix=("-c", script)) == run_module(*argv)


def gen_random_digest(*extra):
    digest = hashlib.sha256()
    for seed in range(50):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["gen", "random", *extra, "--seed", str(seed)])
        digest.update(f"{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


class TestGenRandomPinned:
    # sha256 over seeds 0-49 of each run's exit code and stdout, as the
    # numpy solution mask produced them; the table search must draw the
    # same endpoints.
    @pytest.mark.parametrize("extra, expected", [
        ((), "39c2631803ccae9077be10c384a3bfae2aee733d649ec49044ac58ece76e8e83"),
        (("--vars", "16", "--clauses", "20"),
         "527160d0e54703ea34486c86dad7638fe19e67eec122529ae170b1516dc6f81d"),
        (("--vars", "12", "--clauses", "12", "--arity", "4", "--relations", "3"),
         "e190c812f9f8cf8c6c1b279fbb3bd7bfd06773f7c2cbb88610640c443f3ffc72"),
    ], ids=["defaults", "n16-m20", "n12-arity4"])
    def test_stdout_unchanged(self, extra, expected):
        assert gen_random_digest(*extra) == expected


# ------------------------------------------------------------------ fuzzing

REL_TEXT = "arity 3\n000\n001\n101\n111\n110\n"
FUZZ_BASES = [
    (".cnfs", (DATA / "path.cnfs").read_bytes()),
    (".cnfs", PATH5_COMPLEMENT_CNFS.encode()),
    (".cnfs", (DATA / "threecnf.cnfs").read_bytes()),
    (".cnfs", (DATA / "equality.cnfs").read_bytes()),
    (".rel", REL_TEXT.encode()),
    (".graph", (DATA / "k3.graph").read_bytes()),
    (".graph", (DATA / "single_edge.graph").read_bytes()),
]
FUZZ_TOKENS = [
    b"\n", b" ", b"\t", b"0", b"1", b"9", b"x", b"x0", b"x4", b"T", b"F", b"-",
    b"#", b"# s=", b"# t=", b"end", b"vars", b"relation", b"clause", b"graph",
    b"edge", b"arity", b"99999999999999999999", b"-7", b"\x00", b"\xff",
    "\u00e9".encode(), "\ufeff".encode(), b"+", b"_", "\u0663".encode(),
]
FUZZ_CAPS = ["-99999999999999999999", "-1", "0", "3", "12", "27", "99999999999999999999"]
ABSURD_COUNTS = ["-1", "0", "3", "1001", "1000000000", "99999999999999999999"]


def exit_code(argv):
    """`main`'s exit code with stdout and stderr swallowed; argparse's
    usage errors end in SystemExit, whose code is the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FUZZ_BASES), st.data())
    def test_mutated_files_exit_cleanly(self, base, data):
        suffix, text = base
        cap = data.draw(st.sampled_from(FUZZ_CAPS))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(pathlib.Path(tmp) / f"fuzz{suffix}")
            pathlib.Path(path).write_bytes(data.draw(mutated(text, FUZZ_TOKENS)))
            if suffix == ".rel":
                commands = [["classify", path]]
            elif suffix == ".graph":
                commands = [["gen", "vc", path], ["gen", "is", path]]
            else:
                commands = [
                    ["classify", path],
                    ["solve", path, "--cap", cap, "--verify", "--allow-oracle"],
                    ["solve", path, "--verbose"],
                    ["oracle", path, "--cap", cap],
                    ["dot", path, "--cap", cap],
                    ["dot", path, "--cap", cap, "--format", "text"],
                    ["dot", path, "--what", "fliporder"],
                ]
            for argv in commands:
                assert exit_code(argv) in (0, 1, 2), argv

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["--clauses", "--relations", "--vars", "--arity", "--seed"]),
        st.sampled_from(ABSURD_COUNTS),
        st.sampled_from(["--clauses", "--relations", "--vars", "--arity", "--seed"]),
        st.sampled_from(ABSURD_COUNTS),
    )
    def test_absurd_gen_random_flags_exit_cleanly(self, flag, value, flag2, value2):
        argv = ["gen", "random", flag, value, flag2, value2]
        assert exit_code(argv) in (0, 1, 2), argv
