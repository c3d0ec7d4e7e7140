"""Static guards over the package source.

Every name a module of the package loads must be bound somewhere in that
module (a def, a class, an import, an assignment or loop target, an
argument, an ``except ... as`` name) or be a builtin.

A name that is used but never imported only fails when its line runs;
this scan fails at once, without running anything.  Scoping is ignored
(a name bound anywhere in the module counts), so the scan needs no model
of Python's scope rules, at the cost of missing a name that is bound in
one function and loaded in another.

No module may reach a ``_``-prefixed name of another package module, by
import or through an imported module's attribute: private helpers stay
private to the module that owns them.

No ``assert`` may test ``is_gf2``: ``python -O`` strips asserts, and a
GF(2)-only routine fed another field must raise ``AlgebraError`` (a usage
error) instead of running on and answering wrongly.

Every function or method the package defines, dunders aside, must be named
somewhere besides its own definition: in the package, its tests or the
benchmark.  The search is by word, so a mention in a comment or a string
counts as a use.

Only an allowlisted set of package functions may build a
``random.Random``, under whatever name the module imports ``random`` or
``Random``: a verdict drawn from a seeded sample is not exact, so a new
sampler must be seen and named here.
"""

import ast
import builtins
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gf2lie"
MODULE_NAMES = set(dir(builtins)) | {"__file__", "__path__", "__spec__", "__loader__"}


def _bound_names(tree: ast.AST) -> set:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.MatchAs, ast.MatchStar)) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            bound.add(node.rest)
    return bound


def undefined_names(source: str, filename: str = "<src>") -> list:
    """(line, name) for every loaded name that the module never binds."""
    tree = ast.parse(source, filename)
    bound = _bound_names(tree) | MODULE_NAMES
    return sorted((node.lineno, node.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                  and node.id not in bound)


MODULES = sorted(SRC.glob("*.py"))


def test_modules_found():
    assert len(MODULES) > 1, SRC


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_undefined_names(path):
    missing = undefined_names(path.read_text(), str(path))
    assert not missing, "%s: %s" % (path.name, ", ".join(
        "line %d: %s" % (line, name) for line, name in missing))


def test_scan_flags_a_missing_import():
    src = ("from math import sqrt\n"
           "def f(x, *rest, k=1, **kw):\n"
           "    for i, j in rest:\n"
           "        try:\n"
           "            y = [z for z in kw if z] or sqrt(x)\n"
           "        except ValueError as err:\n"
           "            raise RuntimeError(err)\n"
           "    return floor(y) + len(rest) + k + i + j\n")
    assert undefined_names(src) == [(8, "floor")]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _from_package(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "gf2lie"


def private_imports(source: str, filename: str = "<src>") -> list:
    """(line, name) for every private name taken from another package module."""
    tree = ast.parse(source, filename)
    modules = set()  # local names of package modules, from `from . import gf2`
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            for alias in node.names:
                if _is_private(alias.name):
                    out.append((node.lineno, alias.name))
                elif node.module is None or node.module == "gf2lie":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            out.append((node.lineno, "%s.%s" % (node.value.id, node.attr)))
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    found = private_imports(path.read_text(), str(path))
    assert not found, "%s: %s" % (path.name, ", ".join(
        "line %d: %s" % (line, name) for line, name in found))


def test_scan_flags_a_private_import():
    src = ("from __future__ import annotations\n"
           "from itertools import product as _cartesian\n"
           "from . import gf2\n"
           "from .cohomology import Cochain2, _pairs\n"
           "from gf2lie.deform import _helper as helper\n"
           "def f(n):\n"
           "    return _pairs(n), gf2._mask(n), gf2.bits(n), gf2.__name__\n")
    assert private_imports(src) == [(4, "_pairs"), (5, "_helper"), (7, "gf2._mask")]


def field_asserts(source: str, filename: str = "<src>") -> list:
    """Lines of the asserts whose test reads an ``is_gf2`` name or attribute."""
    tree = ast.parse(source, filename)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
                  and any(getattr(sub, "attr", getattr(sub, "id", None)) == "is_gf2"
                          for sub in ast.walk(node.test)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_field_asserts(path):
    found = field_asserts(path.read_text(), str(path))
    assert not found, "%s: assert on is_gf2 at line(s) %s" % (path.name, ", ".join(map(str, found)))


def test_scan_flags_a_field_assert():
    src = ("def f(g, h):\n"
           "    assert g.is_gf2\n"
           "    assert g.dim and not h.is_gf2, 'GF(2)'\n"
           "    assert g.dim\n"
           "    is_gf2 = g.is_gf2\n"
           "    assert is_gf2\n"
           "    if not g.is_gf2:\n"
           "        raise ValueError\n")
    assert field_asserts(src) == [2, 3, 6]


def dead_definitions(package: dict, searched: list) -> list:
    """(file, line, name) for every non-dunder def in the package sources
    ({file: text}) whose name the searched texts hold only at its definitions."""
    words = Counter(w for text in searched for w in re.findall(r"\w+", text))
    defs = [(fname, node.lineno, node.name) for fname, text in package.items()
            for node in ast.walk(ast.parse(text, fname))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    ndefs = Counter(name for _, _, name in defs)
    return sorted(d for d in defs if words[d[2]] <= ndefs[d[2]])


def test_no_dead_definitions():
    package = {p.name: p.read_text() for p in MODULES}
    searched = [p.read_text() for top in ("src", "tests", "bench")
                for p in sorted((ROOT / top).rglob("*.py"))]
    dead = dead_definitions(package, searched)
    assert not dead, ", ".join("%s:%d %s" % d for d in dead)


def test_scan_flags_a_dead_definition():
    lib = ("def used(x):\n"
           "    return x\n"
           "class A:\n"
           "    def __init__(self):\n"
           "        self.v = used(1)\n"
           "    def unused(self):\n"
           "        return self.v\n")
    assert dead_definitions({"lib.py": lib}, [lib, "from lib import A\n"]) == [("lib.py", 6, "unused")]


def random_generators(source: str, module: str) -> list:
    """module.qualname of each function (or ``module`` at top level) that
    calls random.Random, by any import alias; scoping is ignored."""
    tree = ast.parse(source, module)
    modules, classes = set(), set()  # local names of `random` and of `random.Random`
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "random"}
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            classes |= {a.asname or a.name for a in node.names if a.name == "Random"}
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            f = node.func
            if ((isinstance(f, ast.Attribute) and f.attr == "Random"
                 and isinstance(f.value, ast.Name) and f.value.id in modules)
                    or (isinstance(f, ast.Name) and f.id in classes)):
                found.add(".".join([module] + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return sorted(found)


RANDOM_ALLOWLIST = ["deform.zero_defect_representative", "experiments.criterion_13_property_suites",
                    "liealg.simplicity_check", "superize._isometries"]


def test_random_generators_are_allowlisted():
    found = [name for p in MODULES for name in random_generators(p.read_text(), p.stem)]
    assert sorted(found) == RANDOM_ALLOWLIST


def test_scan_flags_a_random_generator():
    src = ("import random\n"
           "from random import Random as R, choice\n"
           "SEEDED = random.Random(0)\n"
           "class C:\n"
           "    def check(self):\n"
           "        import random as _random\n"
           "        return _random.Random(1).random()\n"
           "def f():\n"
           "    return R(2), choice([1]), random.random()\n"
           "def g(rng):\n"
           "    return rng.Random\n")
    assert random_generators(src, "m") == ["m", "m.C.check", "m.f"]
