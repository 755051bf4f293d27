"""Every name that a module of the package imports is read in that module.

A deletion can leave an import behind, and no linter runs with the tests.
An import whose line carries '# noqa: F401' is a deliberate re-export (a
name that bench/tracer.py wraps, the package's submodules) and is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dwnls"


def unused_imports(text: str):
    """(line, name) of each name the module source imports and never reads,
    apart from __future__ features and imports marked '# noqa: F401' on the
    statement's first line or the name's own."""
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if any("# noqa: F401" in lines[i - 1]
                   for i in (node.lineno, alias.lineno)):
                continue
            imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from numpy import pi as PI, e  # noqa: F401\n"
              "from json import (\n"
              "    dumps,\n"
              "    loads,  # noqa: F401\n"
              ")\n"
              "x = math.tau\n")
    assert unused_imports(source) == [(3, "os"), (6, "dumps")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
