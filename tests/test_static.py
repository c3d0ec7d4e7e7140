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
benchmark.  The search reads code tokens: a name counts, and so does a
string literal that is exactly the name (a target handed over as data,
as the bench tracer does), but a mention in a comment or in prose does not.

Every such function must also be named in the package or the benchmark,
not only in the tests: a function only tests call is a second copy of a
path the product runs, or a path nobody runs.  An explicit allowlist keeps
the public API whose callers are the paper-claim tests.

Every parameter of a package function must be read somewhere in its body
(nested functions included): a parameter the body never reads is an option
callers can set to no effect.  ``self`` and ``cls`` are exempt, and so are
the allowlisted interface methods, whose signature is fixed by the siblings
they stand in for.

Every option, a parameter with a default of a module-level function or
class, must be set by some call in the package, its tests or the benchmark:
an option no caller sets is one more path nobody runs.  It must also be set
by some call in the package or the benchmark, not only in the tests (the
allowlisted test-only functions aside): an option only tests set is a fork
the product never takes, and a test reaches a module constant with
``monkeypatch`` instead.

Every name that a package module (``__init__.py`` aside, which may
re-export) or a test module imports must be loaded somewhere in that
module: an unused import hides what the module really depends on.  As in
the first scan, scoping is ignored.

Only an allowlisted set of package functions may build a
``random.Random``, under whatever name the module imports ``random`` or
``Random``: a verdict drawn from a seeded sample is not exact, so a new
sampler must be seen and named here.

No package or test module may define a module-level function or class
twice: the later definition silently replaces the earlier one, and the
callers of the first run the second.

No package function may hold an ``assert`` unless it is allowlisted:
``python -O`` strips asserts, so a check that certifies a verdict must
raise instead.  The allowlist keeps the internal invariants, each with what
it guards.

Only ``cohomology.weight_block`` may build a ``Block``: it keeps each
weight block of an algebra, with the spans its solvers build, for as long
as the algebra lives, and a block built elsewhere solves its spans again.
Likewise only ``superize.restricted_closure`` may build a
``ClosureAlgebra``: it keeps one closure per base algebra.

No package module but ``fields`` may call ``.add(...)`` on a field (a name
``f`` or ``field``, or a ``.field`` attribute): the sparse ``{index: value}``
update lives in ``fields.add_scaled``, and a scalar sum elsewhere is ``^``.

No package function may call ``Algebra(GF2, ...)`` (``GF2`` as the first
argument or as ``field=``, by name or as an attribute): a GF(2) algebra the
package builds hands its pair masks to ``Algebra.from_gf2_rows``, and the
``{k: 1}`` dicts of ``Algebra(...)`` are for foreign input.
"""

import ast
import builtins
import io
import pathlib
import tokenize
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


def code_words(text: str) -> list:
    """The NAME tokens of a source, plus each string literal that is exactly
    an identifier (a name handed over as data, like a traced target):
    comments and prose in docstrings name nothing."""
    words = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        word = tok.string.strip("'\"") if tok.type == tokenize.STRING else tok.string
        if tok.type in (tokenize.NAME, tokenize.STRING) and word.isidentifier():
            words.append(word)
    return words


def dead_definitions(package: dict, searched: list) -> list:
    """(file, line, name) for every non-dunder def in the package sources
    ({file: text}) whose name the searched texts hold only at its definitions."""
    words = Counter(w for text in searched for w in code_words(text))
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
    # prose and comments name nothing; a literal that is exactly the name does
    prose = '"""A.unused: see unused"""\nx = "call unused"  # unused\n'
    assert dead_definitions({"lib.py": lib}, [lib, prose]) == [("lib.py", 6, "unused")]
    assert dead_definitions({"lib.py": lib}, [lib, 'TARGETS = [("lib", "unused")]\n']) == []


# package functions only tests call, each with the claim or check it serves
TEST_ONLY_ALLOWLIST = {
    "h2_weight_table": "the whole H^2 of an algebra split by weight: the printed tables at once",
    "d1": "the differential of one 1-cochain, read off the block's d1 columns; the benchmark traces it",
    "derivations": "a basis of Der(g), read off the block's d1 span; the benchmark traces it",
}


def test_no_test_only_definitions():
    # the tracer names its targets as data, which is no call: it is not product use
    package = {p.name: p.read_text() for p in MODULES}
    product = [p.read_text() for top in ("src", "bench") for p in sorted((ROOT / top).rglob("*.py"))
               if p != ROOT / "bench" / "tracer.py"]
    test_only = dead_definitions(package, product)
    assert sorted(name for _, _, name in test_only) == sorted(TEST_ONLY_ALLOWLIST), \
        ", ".join("%s:%d %s" % d for d in test_only if d[2] not in TEST_ONLY_ALLOWLIST)


def test_scan_flags_a_test_only_definition():
    lib = ("def run(x):\n"
           "    return x\n"
           "def run_slowly(x):\n"
           "    return x\n")
    tests = "from lib import run, run_slowly\nassert run(1) == run_slowly(1)\n"
    product = "from lib import run\nrun(2)\n"
    assert dead_definitions({"lib.py": lib}, [lib, product, tests]) == []
    # searched without the tests, run_slowly is named only at its definition
    assert dead_definitions({"lib.py": lib}, [lib, product]) == [("lib.py", 3, "run_slowly")]


def unused_parameters(source: str, module: str) -> list:
    """module.qualname(param) for each parameter, ``self`` and ``cls`` aside,
    that its function's body never loads; scoping is ignored, so a read in a
    nested function counts."""
    tree = ast.parse(source, module)
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found.extend("%s(%s)" % (".".join([module] + scope), p.arg) for p in params
                         if p.arg not in loaded and p.arg not in ("self", "cls"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return sorted(found)


# the Field interface: GF(2)[h] has no square roots, but keeps the signature
UNUSED_PARAMETER_ALLOWLIST = ["fields.PolyRing.sqrt(a)"]


def test_no_unused_parameters():
    found = [name for p in MODULES for name in unused_parameters(p.read_text(), p.stem)]
    assert sorted(found) == UNUSED_PARAMETER_ALLOWLIST


def test_scan_flags_an_unused_parameter():
    src = ("def f(x, y, *args, z=0, **kw):\n"
           "    return x + len(kw)\n"
           "class C:\n"
           "    def m(self, a, b):\n"
           "        def inner(c):\n"
           "            return a\n"
           "        return inner\n"
           "    @classmethod\n"
           "    def k(cls):\n"
           "        return 1\n")
    assert unused_parameters(src, "m") == ["m.C.m(b)", "m.C.m.inner(c)", "m.f(args)", "m.f(y)", "m.f(z)"]


def never_set_options(package: dict, searched: list, exempt=()) -> list:
    """module.name(param) for each parameter with a default of a
    module-level function of the package sources ({file: text}), or of a
    module-level class's __init__, that no call in the searched texts sets,
    by keyword or by position; the definitions named in `exempt` are not
    scanned.  Calls match by name alone, and a call with *args or **kwargs
    sets every option."""
    options = {}  # function name -> [(label, param, position or None)]
    for fname, text in package.items():
        for node in ast.parse(text, fname).body:
            if getattr(node, "name", None) in exempt:
                continue
            fn, skip = node, 0
            if isinstance(node, ast.ClassDef):
                fn = next((s for s in node.body if getattr(s, "name", None) == "__init__"), None)
                skip = 1  # self
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            options.setdefault(node.name, []).extend(
                ("%s.%s(%s)" % (fname[:-3], node.name, p), p,
                 positional.index(p) - skip if p in positional else None) for p in defaulted)
    set_ = set()
    for text in searched:
        for call in ast.walk(ast.parse(text)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keys = {k.arg for k in call.keywords}
            star = None in keys or any(isinstance(x, ast.Starred) for x in call.args)
            set_.update(label for label, p, pos in options.get(name, ())
                        if star or p in keys or (pos is not None and pos < len(call.args)))
    return sorted(label for opts in options.values() for label, _, _ in opts if label not in set_)


def test_every_option_is_set_by_some_call():
    package = {p.name: p.read_text() for p in MODULES}
    searched = [p.read_text() for top in ("src", "tests", "bench")
                for p in sorted((ROOT / top).rglob("*.py"))]
    assert never_set_options(package, searched) == []


def test_scan_flags_a_never_set_option():
    lib = ("def f(a, b=1, *, c=2, d=3):\n"
           "    return a + b + c + d\n"
           "def g(x, y=0, z=0):\n"
           "    return x + y + z\n"
           "class R:\n"
           "    def __init__(self, m, extra=None, more=None):\n"
           "        self.m = m\n"
           "    def method(self, w=1):\n"
           "        return w\n"
           "def h(*args, k=0, **kw):\n"
           "    return args, k, kw\n")
    uses = ("import lib\n"
            "lib.f(1, 2, c=5)\n"       # b by position, c by keyword
            "g(*(1, 2))\n"             # a starred call sets every option
            "R(1, 2)\n"                # self does not count as a position
            "h(1, 2, 3, 4)\n"          # *args never reaches k
            "R(0).method()\n")
    assert never_set_options({"lib.py": lib}, [lib, uses]) == [
        "lib.R(more)", "lib.f(d)", "lib.h(k)"]


# options that only tests set, each with the product call it waits for
TEST_ONLY_OPTION_ALLOWLIST = []


def test_every_option_is_set_by_some_product_call():
    package = {p.name: p.read_text() for p in MODULES}
    product = [p.read_text() for top in ("src", "bench") for p in sorted((ROOT / top).rglob("*.py"))]
    assert never_set_options(package, product, TEST_ONLY_ALLOWLIST) == TEST_ONLY_OPTION_ALLOWLIST


def test_scan_flags_a_test_only_option():
    lib = ("def run(x, fast=False):\n"
           "    return x, fast\n"
           "def check(x, strict=False):\n"
           "    return x, strict\n"
           "class Form:\n"
           "    def __init__(self, kind, rows=None):\n"
           "        self.rows = rows\n")
    product = "from lib import run, Form\nrun(1, True)\nForm('I')\n"
    tests = "from lib import check, Form\ncheck(1, strict=True)\nForm('x', rows=[1])\n"
    assert never_set_options({"lib.py": lib}, [lib, product, tests]) == []
    # searched without the tests, only the test-only function's option is exempt
    assert never_set_options({"lib.py": lib}, [lib, product], ["check"]) == ["lib.Form(rows)"]
    assert never_set_options({"lib.py": lib}, [lib, product]) == ["lib.Form(rows)", "lib.check(strict)"]


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


RANDOM_ALLOWLIST = ["liealg.simplicity_check"]


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


def unused_imports(source: str, filename: str = "<src>") -> list:
    """(line, name) for every imported name the module never loads;
    ``__future__`` imports are exempt."""
    tree = ast.parse(source, filename)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    out.append((node.lineno, name))
    return sorted(out)


IMPORTING = [p for p in MODULES if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", IMPORTING, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    found = unused_imports(path.read_text(), str(path))
    assert not found, "%s: %s" % (path.name, ", ".join("line %d: %s" % f for f in found))


def test_scan_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os.path\n"
           "import json as js, re\n"
           "from typing import List, Optional\n"
           "def f(x: Optional[int]) -> int:\n"
           "    from math import floor, ceil\n"
           "    return floor(x) + len(os.sep) + js.loads('1')\n")
    assert unused_imports(src) == [(3, "re"), (4, "List"), (6, "ceil")]


def duplicate_definitions(source: str, filename: str = "<src>") -> list:
    """(line, name) for every module-level def or class whose name an
    earlier module-level def or class of the same source already took."""
    seen, out = set(), []
    for node in ast.parse(source, filename).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                out.append((node.lineno, node.name))
            seen.add(node.name)
    return out


@pytest.mark.parametrize("path", MODULES + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_duplicate_definitions(path):
    found = duplicate_definitions(path.read_text(), str(path))
    assert not found, "%s: %s" % (path.name, ", ".join("line %d: %s" % f for f in found))


def test_scan_flags_a_duplicate_definition():
    src = ("def _perturbed(m, i):\n"
           "    return m\n"
           "class C:\n"
           "    def _perturbed(self):\n"
           "        return self\n"
           "def test_a():\n"
           "    assert _perturbed(1, 2)\n"
           "def _perturbed(m):\n"
           "    return m\n"
           "class C:\n"
           "    pass\n")
    assert duplicate_definitions(src) == [(8, "_perturbed"), (10, "C")]


def field_adds(source: str, filename: str = "<src>") -> list:
    """Lines of the ``.add(...)`` calls whose receiver is a name ``f`` or
    ``field`` or an attribute ``.field``."""
    tree = ast.parse(source, filename)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add"
                  and (getattr(node.func.value, "id", None) in ("f", "field")
                       or getattr(node.func.value, "attr", None) == "field"))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fields.py"], ids=lambda p: p.name)
def test_no_field_adds_outside_fields(path):
    found = field_adds(path.read_text(), str(path))
    assert not found, "%s: field.add at line(s) %s" % (path.name, ", ".join(map(str, found)))


def test_scan_flags_a_field_add():
    src = ("def f(g, field, span, acc):\n"
           "    s = field.add(acc.get(0, 0), 1)\n"
           "    f = g.field\n"
           "    t = f.add(s, f.mul(s, s))\n"
           "    u = g.field.add(t, 1)\n"
           "    span.add(t)\n"
           "    seen = set()\n"
           "    seen.add(u)\n"
           "    return acc.get(1, 0) ^ u\n")
    assert field_adds(src) == [2, 4, 5]


def nodes_by_function(source: str, module: str, hit) -> list:
    """module.qualname of the function (or ``module`` at top level) holding
    each node that ``hit`` accepts, once per node."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if hit(node):
            found.append(".".join([module] + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source, module), [])
    return sorted(found)


def asserts_by_function(source: str, module: str) -> list:
    return nodes_by_function(source, module, lambda node: isinstance(node, ast.Assert))


# the asserts that guard an internal invariant, not a verdict, each with what it guards
ASSERT_ALLOWLIST = {
    "experiments.criterion_09_quantization": "the printed (-2,-2) leading terms pick a class representative",
    "grading.associated_graded": "the graded pieces fill the algebra",
    "superize.kap_s_4A": "the standard vector has the Q value asked for",
}


def test_asserts_are_allowlisted():
    found = [name for p in MODULES for name in asserts_by_function(p.read_text(), p.stem)]
    assert found == sorted(ASSERT_ALLOWLIST), ", ".join(
        name for name in found if name not in ASSERT_ALLOWLIST) or "allowlisted asserts are gone"


def test_scan_flags_an_assert():
    src = ("assert True\n"
           "class C:\n"
           "    def check(self, x):\n"
           "        assert x, 'x'\n"
           "        def inner():\n"
           "            assert not x\n"
           "        return inner\n"
           "def f(x):\n"
           "    assert x\n"
           "    assert x > 0\n"
           "    if not x:\n"
           "        raise ValueError\n")
    assert asserts_by_function(src, "m") == ["m", "m.C.check", "m.C.check.inner", "m.f", "m.f"]


def builds(source: str, module: str, cls: str) -> list:
    """module.qualname of the function holding each ``cls(...)`` or
    ``<module>.cls(...)`` call, once per call."""
    return nodes_by_function(source, module, lambda node: isinstance(node, ast.Call) and cls in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_blocks_are_built_by_weight_block_only():
    found = [name for p in MODULES for name in builds(p.read_text(), p.stem, "Block")]
    assert found == ["cohomology.weight_block"], ", ".join(found)


def test_closures_are_built_by_restricted_closure_only():
    found = [name for p in MODULES for name in builds(p.read_text(), p.stem, "ClosureAlgebra")]
    assert found == ["superize.restricted_closure"], ", ".join(found)


def test_scan_flags_a_block_build():
    src = ("from . import cohomology\n"
           "from .cohomology import Block, weight_block\n"
           "def solve(g, cons):\n"
           "    blk = Block(g, cons)\n"
           "    return blk, weight_block(g, cons), BlockError\n"
           "class Tower:\n"
           "    def step(self, g):\n"
           "        return cohomology.Block(g, []).coords, Blocks(g)\n")
    assert builds(src, "m", "Block") == ["m.Tower.step", "m.solve"]


def _names(node, name: str) -> bool:
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def gf2_dict_intakes(source: str, module: str) -> list:
    """module.qualname of the function holding each ``Algebra(GF2, ...)`` call."""
    def hit(node):
        if not (isinstance(node, ast.Call) and _names(node.func, "Algebra")):
            return False
        field = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "field"), None)
        return field is not None and _names(field, "GF2")
    return nodes_by_function(source, module, hit)


def test_gf2_algebras_take_the_mask_intake():
    found = [name for p in MODULES for name in gf2_dict_intakes(p.read_text(), p.stem)]
    assert not found, ", ".join(found)


def test_scan_flags_a_gf2_dict_intake():
    src = ("from . import fields\n"
           "from .fields import GF2\n"
           "from .liealg import Algebra\n"
           "TRIV = Algebra(GF2, ['c'], {})\n"
           "def build(n, field):\n"
           "    a = liealg.Algebra(fields.GF2, [], {})\n"
           "    b = Algebra(field=GF2, labels=[], sc={})\n"
           "    c = Algebra(field, [], {}, name='GF2')\n"
           "    return a, b, c, Algebra.from_gf2_rows([], {}), GF2.one\n")
    assert gf2_dict_intakes(src, "m") == ["m", "m.build", "m.build"]
