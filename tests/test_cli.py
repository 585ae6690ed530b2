import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from satflip import MAX_STATE_CAP
from satflip.cli import main

DATA = pathlib.Path(__file__).parent / "data"

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
        code, out, _ = run(capsys, "solve", PATH_CNFS, "--verify")
        assert (code, out) == (0, "PATH 4 x3+ x1+ x2+ x3-\n")

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


class TestUsage:
    def test_unknown_subcommand_exit_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

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
