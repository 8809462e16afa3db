"""Import hygiene: no module of the package, the tests or the scripts
imports a name it never uses, no definition in the package lacks a
caller in the package unless it is pinned as library API, no default
of the Instance contract is one that every shipped instance overrides,
and the generic layers name no instance.

Each module is parsed with ast.  An import binds names (the alias, or the
first component of a dotted ``import a.b``); a name counts as used when it
appears as a Name node anywhere in the module, which covers attribute
chains, decorators and annotations.  ``from __future__`` imports are
directives, not names, and are skipped.
"""
from __future__ import annotations

import ast
import collections
import inspect
import pathlib

import pytest

from spancat.core import GroupoidInstance, Instance
from spancat.finab import FinAbInstance
from spancat.pinj import PInjInstance

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


# Library API with no caller in src/ yet: "function" or "Class.method".
# Growing this list needs a line in CHANGES.md.
UNCALLED_API = frozenset({
    "apply_hom", "diagonal_subgroup", "symmetric_group_table", "count_pinjs",
    "graph_relation", "relation_to_matching", "all_matchings",
    "matching_to_relation", "rel_identity",
})


def _named(tree: ast.AST) -> collections.Counter:
    """How often each identifier is named: a Name, an attribute, or a string
    (getattr dispatch tables name methods by string)."""
    out: collections.Counter = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def uncalled_definitions(sources: list[str]) -> set[str]:
    """Top-level functions and methods of top-level classes that no code
    names outside their own body; dunder methods are called by Python."""
    trees = [ast.parse(s) for s in sources]
    named = sum((_named(t) for t in trees), collections.Counter())
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not f.name.startswith("__")]
    return {label for label, node in defs
            if named[node.name] - _named(node)[node.name] <= 0}


def test_uncalled_definitions_are_found():
    source = (
        "def used(): return helper()\n"
        "def helper(): return helper()\n"
        "def dead(): return dead()\n"
        "class K:\n"
        "    def __init__(self): self.go()\n"
        "    def go(self): pass\n"
        "    def by_name(self): pass\n"
        "    def idle(self): pass\n"
        "DISPATCH = {'x': 'by_name'}\n"
    )
    assert uncalled_definitions([source]) == {"used", "dead", "K.idle"}


def test_every_src_definition_has_a_src_caller():
    sources = [p.read_text(encoding="utf-8") for p in MODULES if p.parent.name == "spancat"]
    assert uncalled_definitions(sources) == UNCALLED_API


def test_every_instance_default_serves_a_shipped_instance():
    shipped = (FinAbInstance, PInjInstance, GroupoidInstance)
    defaults = {name: fn for name, fn in vars(Instance).items()
                if inspect.isfunction(fn) and not getattr(fn, "__isabstractmethod__", False)}
    unused = {name for name, fn in defaults.items()
              if all(getattr(cls, name) is not fn for cls in shipped)}
    assert unused == set()


# Modules written against the Instance contract alone: a new instance must
# not need an edit here.  The instance modules, config (the instance table),
# cli and relations (finab's and pinj's own relation theory) may name them.
GENERIC = ("axioms", "dot", "fakepb", "gen", "jsonio", "spans")
INSTANCE_CLASSES = {"FinAbInstance", "PInjInstance", "GroupoidInstance"}
INSTANCE_NAMES = ("finab", "pinj", "groupoid")


def instance_mentions(source: str) -> list[str]:
    """Each place that names a shipped instance: its class (as a name or an
    attribute), an import from its module, or its CLI name as a string."""
    out = []
    for node in ast.walk(ast.parse(source)):
        ident = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and ident in INSTANCE_CLASSES:
            out.append(f"line {node.lineno}: {ident}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in (
            "finab", "pinj"
        ):
            out.append(f"line {node.lineno}: from {node.module}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and any(
            node.value == n or node.value.startswith(n + ":") for n in INSTANCE_NAMES
        ):
            out.append(f"line {node.lineno}: {node.value!r}")
    return out


def test_instance_mentions_are_found():
    source = (
        "from .finab import FinAbInstance\n"
        "from spancat.pinj import reverse_assign\n"
        "import spancat.core as c\n"
        "x = c.GroupoidInstance\n"
        "fam = ('finab', 'pinj:x', f'groupoid:{x}', 'finable', 'a pinj')\n"
    )
    assert instance_mentions(source) == [
        "line 1: from finab", "line 2: from spancat.pinj",
        "line 4: GroupoidInstance", "line 5: 'finab'", "line 5: 'pinj:x'",
        "line 5: 'groupoid:'",
    ]


@pytest.mark.parametrize("name", GENERIC)
def test_generic_layers_name_no_instance(name):
    path = ROOT / "src" / "spancat" / f"{name}.py"
    assert instance_mentions(path.read_text(encoding="utf-8")) == []
