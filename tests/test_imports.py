"""What importing the package costs, and that no module of it imports a
name it never uses. Code that a change deletes tends to leave its
imports behind; the guard finds them, in `__init__.py` too.

`import satflip` loads no module of the package: each export is resolved
on first use. The import tests run in a fresh interpreter, because this
one has loaded every module already."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "satflip"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by an import in `source` that no expression reads,
    as `line <n>: <name>`. `from __future__ import ...` is exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from typing import NamedTuple, Iterable as It\n"
        "from .bits import hamming\n"
        "def f(xs: It) -> NamedTuple:\n"
        "    return os.path.join(*xs)\n"
    )
    assert unused_imports(source) == ["line 3: sys", "line 5: hamming"]


def test_modules_are_found():
    assert {"flip_order", "navigate", "recon", "records"} <= {p.stem for p in MODULES}


# ------------------------------------------------------------ lazy exports

def fresh(script):
    """The stdout of `script` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout


def loaded_after(*steps):
    """Run each statement in one fresh interpreter; after each, the
    names of the satflip modules it added to `sys.modules`, sorted."""
    return json.loads(fresh(f"""
        import json, sys
        seen = set(sys.modules)
        out = []
        for step in {list(steps)!r}:
            exec(step, {{}})
            new = set(sys.modules) - seen
            seen |= new
            out.append(sorted(m for m in new if m.partition(".")[0] == "satflip"))
        print(json.dumps(out))
    """))


def test_import_loads_no_module_and_classify_set_only_relation():
    assert loaded_after("import satflip", "import satflip; satflip.classify_set") == [
        ["satflip"],
        ["satflip.bits", "satflip.errors", "satflip.records", "satflip.relation"],
    ]


def test_parse_graph_loads_neither_the_search_nor_the_solvers():
    # gen imports recon inside random_formula, the one builder that needs
    # the exact search's table, so reading a .graph file stays cheap
    assert loaded_after("import satflip", "import satflip; satflip.parse_graph") == [
        ["satflip"],
        ["satflip.bits", "satflip.errors", "satflip.formula", "satflip.gen",
         "satflip.records", "satflip.relation"],
    ]


def test_cli_still_loads_every_traced_module():
    # perfbench/worker.py's tracer looks `satflip.formula`, `.flip_order`,
    # `.navigate`, `.recon` and `.relation` up in `sys.modules` right
    # after `import satflip.cli`, to wrap their functions by name. The CLI
    # registers the solver modules lazily: they are in `sys.modules` from
    # its import on, but run only when a command (or the tracer's lookup)
    # first reads one of their attributes.
    traced = {"satflip.relation", "satflip.formula", "satflip.flip_order",
              "satflip.navigate", "satflip.recon"}
    [loaded] = loaded_after("import satflip.cli")
    assert traced <= set(loaded)


WORKER = SRC.parent.parent / "perfbench" / "worker.py"
TRACER_TABLES = ("FREE", "CLOSURE", "TIMED", "COUNTED")


def tracer_tables():
    """`perfbench/worker.py`'s name tables, read with `ast`: each of
    `TRACER_TABLES` as a value, and the names of the relation predicates
    whose caches `install_tracer` reads. The tables are literals joined
    by `+`, so they are evaluated with no builtins."""
    tree = ast.parse(WORKER.read_text())
    assigns = [node for node in tree.body if isinstance(node, ast.Assign)
               and getattr(node.targets[0], "id", None) in TRACER_TABLES]
    allowed = (ast.Assign, ast.Name, ast.Load, ast.Store, ast.Constant, ast.Tuple,
               ast.Dict, ast.BinOp, ast.Add)
    assert all(isinstance(node, allowed) for a in assigns for node in ast.walk(a))
    tables = {"__builtins__": {}}
    exec(compile(ast.Module(body=assigns, type_ignores=[]), str(WORKER), "exec"), tables)
    [install] = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "install_tracer"]
    [caches] = [node.value for node in ast.walk(install) if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "caches"]
    assert ast.unparse(caches.elt) == "getattr(relation, name)"
    names = ast.Expression(caches.generators[0].iter)
    predicates = eval(compile(names, str(WORKER), "eval"), dict(tables))
    return {name: tables[name] for name in TRACER_TABLES}, predicates


def test_every_name_the_tracer_binds_exists():
    # the benchmark's tracer wraps these functions by name and reads the
    # predicates' lru_cache counters; a name a change renames or deletes
    # would break only the traced benchmark run
    tables, predicates = tracer_tables()
    assert set(tables["FREE"]) | set(tables["CLOSURE"]) <= set(tables["TIMED"]["satflip.relation"])
    for table in ("TIMED", "COUNTED"):
        for module, names in tables[table].items():
            mod = importlib.import_module(module)
            for name in names:
                assert callable(getattr(mod, name, None)), (table, module, name)
    from satflip import relation

    assert "is_componentwise_bijunctive" in predicates
    for name in predicates:
        assert callable(getattr(getattr(relation, name), "cache_info", None)), name


def test_answer_records_load_no_solver():
    assert loaded_after("import satflip", "import satflip; satflip.SolveResult") == [
        ["satflip"],
        ["satflip.answer", "satflip.bits", "satflip.errors", "satflip.records",
         "satflip.relation"],
    ]


def test_classify_formula_loads_no_solver():
    assert loaded_after("import satflip", "import satflip; satflip.classify_formula") == [
        ["satflip"],
        ["satflip.bits", "satflip.errors", "satflip.formula", "satflip.records",
         "satflip.relation"],
    ]


def test_solve_loads_no_exact_search():
    # recon, the reference the solvers are checked against, is no import of theirs
    assert loaded_after("import satflip", "import satflip; satflip.solve") == [
        ["satflip"],
        ["satflip.answer", "satflip.bits", "satflip.errors", "satflip.flip_order",
         "satflip.formula", "satflip.navigate", "satflip.records", "satflip.relation"],
    ]


# ------------------------------------------------------- per-command modules

DATA = pathlib.Path(__file__).parent / "data"
CLASSIFY = {"bits", "cli", "errors", "formula", "records", "relation"}
SEARCH = CLASSIFY | {"answer", "recon"}
SOLVERS = SEARCH | {"flip_order", "navigate"}


def ran_after(script):
    """In a fresh interpreter, run `script`, then return the satflip
    modules that ran: those whose type is a plain module, not the
    LazyLoader's stand-in for a module registered but not yet run."""
    return set(json.loads(fresh(textwrap.dedent(script) + textwrap.dedent("""
        import json, sys, types
        print(json.dumps([name.partition(".")[2] for name, module in sys.modules.items()
                          if name.startswith("satflip.")
                          and type(module) is types.ModuleType]))
    """))))


COMMAND_MODULES = [
    ("classify path.cnfs", CLASSIFY),
    ("classify path5.rel", CLASSIFY),
    ("gen vc k3.graph", CLASSIFY | {"gen"}),
    ("gen is k3.graph", CLASSIFY | {"gen"}),
    ("gen random", SEARCH | {"gen"}),
    ("oracle path.cnfs", SEARCH),
    ("dot --format text path.cnfs", SEARCH),
    ("dot --what fliporder path.cnfs", SOLVERS),
    ("solve path.cnfs", SOLVERS),
]


@pytest.mark.parametrize("command, modules", COMMAND_MODULES,
                         ids=[command for command, _ in COMMAND_MODULES])
def test_each_command_runs_only_its_modules(tmp_path, command, modules):
    (tmp_path / "path5.rel").write_text("arity 3\n000\n001\n101\n111\n110\n")
    argv = [str(tmp_path / a) if a.endswith(".rel") else
            str(DATA / a) if "." in a else a for a in command.split()]
    assert ran_after(f"""
        import contextlib, io
        import satflip.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert satflip.cli.main({argv!r}) == 0
    """) == modules


def test_parser_and_help_run_no_lazy_module():
    assert ran_after("""
        import contextlib, io
        import satflip.cli
        satflip.cli.build_parser()
        for argv in (["--help"], ["solve", "--help"], ["gen", "vc", "--help"],
                     ["dot", "--help"]):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    satflip.cli.main(argv)
                except SystemExit:
                    pass
    """) == CLASSIFY


def test_lazy_modules_import_as_usual():
    assert json.loads(fresh("""
        import json, sys, types
        import satflip.cli
        lazy = sys.modules["satflip.navigate"]
        registered = type(lazy) is not types.ModuleType
        import satflip.navigate
        solve = satflip.navigate.solve
        from satflip.recon import bfs_shortest
        print(json.dumps([
            registered,
            satflip.navigate is lazy and satflip.cli.navigate is lazy,
            type(lazy) is types.ModuleType,
            (solve.__module__, solve.__name__, type(solve) is types.FunctionType),
            bfs_shortest is sys.modules["satflip.recon"].bfs_shortest,
            (bfs_shortest.__module__, bfs_shortest.__name__),
        ]))
    """)) == [
        True, True, True, ["satflip.navigate", "solve", True], True,
        ["satflip.recon", "bfs_shortest"],
    ]


EXPORTS = [
    "CONST0", "CONST1", "Classification", "Clause", "CompiledFormula",
    "DEFAULT_STATE_CAP", "Flip", "FlipOrderDag", "FlipSequenceError", "Formula",
    "GenerationError", "MAX_ARITY", "MAX_STATE_CAP", "NavigableKind", "Outcome",
    "ParseError", "PreconditionError", "ReconGraph", "Relation", "RelationFlags",
    "RestrictionMap", "Route", "SatFlipError", "SimpleGraph", "SolveResult",
    "SolveStats", "TheoryError", "Verdict", "answer", "apply_sequence", "bfs_shortest",
    "bits", "build_graph", "classify_formula", "classify_set", "dualize",
    "effective_clause", "errors", "evaluate", "flip_order", "format_assignment",
    "formula", "formula_flip_dag", "gen", "gen_independent_set_instance",
    "gen_vertex_cover_instance", "graph_size", "induced",
    "is_affine", "is_bijunctive", "is_componentwise_bijunctive", "is_dual_horn",
    "is_dual_horn_free", "is_horn", "is_horn_free", "is_nand_free", "is_or_free",
    "lower_set_sequence", "navigate", "order_respecting_sequence",
    "parse_assignment", "parse_dimacs_2cnf", "parse_graph", "parse_instance",
    "parse_relation", "random_formula", "random_navigable_relation", "recon",
    "records", "relation", "relation_flags", "relation_partial_order",
    "restrict", "sat_mask", "serialize_formula", "shortest_path_cwb",
    "shortest_path_navigable", "smallest_lower_set", "solution_table", "solve",
]


def test_all_is_pinned():
    import satflip

    assert sorted(satflip.__all__) == EXPORTS


def test_every_export_is_its_home_modules_object():
    # Fresh, so that `from satflip import *` resolves every name itself,
    # with no module loaded before it. A module's name binds the module.
    assert fresh("""
        import importlib, sys
        import satflip
        from satflip import *
        bad = []
        for name in satflip.__all__:
            want = sys.modules.get("satflip." + name)
            if want is None:
                home = importlib.import_module("satflip." + satflip._HOME[name])
                want = getattr(home, name)
            if globals()[name] is not want or getattr(satflip, name) is not want:
                bad.append(name)
        print(len(satflip.__all__), bad)
    """) == f"{len(EXPORTS)} []\n"


def test_unknown_attribute_and_dir():
    import satflip

    with pytest.raises(AttributeError, match="no attribute 'canonicalize'"):
        satflip.canonicalize
    with pytest.raises(ImportError):
        from satflip import no_such_name  # noqa: F401
    assert set(satflip.__all__) <= set(dir(satflip))
