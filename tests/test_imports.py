"""Import hygiene: no module of the package, the tests or the scripts
imports a name it never uses.

Each module is parsed with ast.  An import binds names (the alias, or the
first component of a dotted ``import a.b``); a name counts as used when it
appears as a Name node anywhere in the module, which covers attribute
chains, decorators and annotations.  ``from __future__`` imports are
directives, not names, and are skipped.
"""
from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for d in ("src/spancat", "tests", "scripts")
    for p in (ROOT / d).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a.b import c as d\n"
        "sys.exit(0)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
