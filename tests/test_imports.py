"""Import hygiene: no module of the package, the tests or the scripts
imports a name it never uses, no definition in the package lacks a
caller in the package unless it is pinned as library API, the public
methods of the Instance contract and the tables of the instances, the
sampler and the memo are pinned, no default of the contract
is one that every shipped instance overrides,
the generic layers name no instance, and no cache of the package
outlives the instance that fills it.

Each module is parsed with ast.  An import binds names (the alias, or the
first component of a dotted ``import a.b``); a name counts as used when it
appears as a Name node anywhere in the module, which covers attribute
chains, decorators and annotations.  ``from __future__`` imports are
directives, not names, and are skipped.
"""
from __future__ import annotations

import ast
import collections
import dataclasses
import inspect
import pathlib

import pytest

from spancat.core import GroupoidInstance, Instance, Memo
from spancat.finab import FinAbInstance
from spancat.gen import Sampler
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
    "diagonal_subgroup", "symmetric_group_table", "graph_relation", "relation_to_matching", "all_matchings",
    "matching_to_relation", "rel_identity",
})


# The Instance contract: its public methods, abstract or with a default.
# Adding or removing a hook needs an edit here and a line in CHANGES.md.
INSTANCE_CONTRACT = frozenset({
    "obj", "validate_obj", "describe_obj", "enumerate_objects_up_to",
    "decision_objects", "scan_objects",
    "validate_mor", "compose", "identity", "classify", "factorize",
    "is_iso", "inverse", "fill_diagonal", "solve_post_system",
    "pullback_along_M", "pushout_along_E",
    "enumerate_homs", "compose_all", "class_homs", "class_pool", "has_class_hom",
    "span_iso_key", "rel_pair_key",
    "obj_json", "mor_json", "parse_obj_json", "parse_mor_json",
    "check_payload", "compose_payloads", "factor_payloads",
    "pullback_payloads", "pushout_payloads", "solve_post_payloads",
})


def test_instance_contract_is_pinned():
    public = {name for name, fn in vars(Instance).items()
              if inspect.isfunction(fn) and not name.startswith("_")}
    assert public == INSTANCE_CONTRACT


# The tables kept per instance or per sampler: the dicts and functools
# caches that each __init__ sets, and the fields of core.Memo.  Adding a
# table needs an edit here and a line in CHANGES.md with its hit rate on
# the benchmark's units.
INSTANCE_TABLES = {
    "FinAbInstance": frozenset({
        "_constructions", "_hom_group", "_invariants", "_present", "_forms", "_classify",
        "_prime_tops", "subgroups",
    }),
    "PInjInstance": frozenset(),
    "Sampler": frozenset({"_reach", "_em_apexes", "_em_ends"}),
    "Memo": frozenset({
        "handles", "spans", "fake_pullbacks", "span_composites", "span_keys",
        "relations", "rel_composites", "span_reps", "properness", "pair_keys", "pools",
        "decisions", "walks", "composite_ids",
    }),
}


def _tables(obj: object) -> frozenset:
    return frozenset(name for name, value in vars(obj).items()
                     if isinstance(value, dict) or hasattr(value, "cache_info"))


def test_instance_tables_are_pinned():
    assert {
        "FinAbInstance": _tables(FinAbInstance()),
        "PInjInstance": _tables(PInjInstance()),
        "Sampler": _tables(Sampler(PInjInstance(), 0, 2)),
        "Memo": frozenset(f.name for f in dataclasses.fields(Memo)),
    } == INSTANCE_TABLES


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


# Instance checks the preconditions of these, calls one hook and wraps or
# checks its result; a shipped instance supplies the hooks alone.
# class_homs alone writes memo.pools, over the hook class_pool.
CHECKED_CONSTRUCTIONS = frozenset({
    "validate_mor", "compose", "factorize", "pullback_along_M", "pushout_along_E",
    "solve_post_system", "inverse", "class_homs", "fill_diagonal",
})


def test_no_shipped_instance_defines_a_checked_construction():
    for cls in (FinAbInstance, PInjInstance, GroupoidInstance):
        assert CHECKED_CONSTRUCTIONS.isdisjoint(vars(cls)), cls.__name__
        assert all(getattr(cls, name) is vars(Instance)[name] for name in CHECKED_CONSTRUCTIONS)


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


# functools caches: one built at module level, or on a function or method
# defined there, lives as long as the module and is shared by every
# instance, so caches are per-instance objects built in __init__.
CACHE_BUILDERS = {"cache", "lru_cache"}


def _builds_cache(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (getattr(node, "id", None) or getattr(node, "attr", None)) in CACHE_BUILDERS


def module_level_caches(source: str) -> list[str]:
    """Each functools cache that lives as long as its module: a decorator
    of a top-level function or of a method of a top-level class, or an
    assignment at top level or in a top-level class body that builds one."""
    tree = ast.parse(source)
    nodes = [(None, n) for n in tree.body]
    nodes += [(c.name, n) for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    out = []
    for owner, node in nodes:
        prefix = f"{owner}." if owner else ""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [f"line {d.lineno}: {prefix}{node.name}"
                    for d in node.decorator_list if _builds_cache(d)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and any(
            isinstance(n, ast.Call) and _builds_cache(n.func) for n in ast.walk(node.value)
        ):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            out.append(f"line {node.lineno}: {prefix}{ast.unparse(target)}")
    return out


def test_module_level_caches_are_found():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def a(): pass\n"
        "@cache\n"
        "def b(): pass\n"
        "table = functools.lru_cache(None)(len)\n"
        "class K:\n"
        "    @lru_cache\n"
        "    def m(self): pass\n"
        "    @functools.cached_property\n"
        "    def p(self): pass\n"
        "    shared = cache(len)\n"
        "    def __init__(self):\n"
        "        self.t = functools.lru_cache(maxsize=4)(len)\n"
        "def outer():\n"
        "    @functools.cache\n"
        "    def inner(): pass\n"
    )
    assert module_level_caches(source) == [
        "line 3: a", "line 5: b", "line 7: table", "line 9: K.m", "line 13: K.shared",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent.name == "spancat"],
                         ids=lambda p: p.name)
def test_src_builds_no_module_level_cache(path):
    assert module_level_caches(path.read_text(encoding="utf-8")) == []
