"""No module of the package imports a name it never uses. Code that a
change deletes tends to leave its imports behind; this finds them.
`__init__.py` is left out: it imports names to export them."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "satflip"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
