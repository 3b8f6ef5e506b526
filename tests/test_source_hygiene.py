"""Source checks by AST scan: no unused imports, raw scalars stay inside
linalg, the engine's tables stay inside the engine, regular expressions stay
inside cyclotomic, only cyclotomic indexes a scalar's coefficients, no
module touches another module's private attributes, and every public
function is used by the program itself."""

import ast
from pathlib import Path

import pytest

from nichols.cli import TASKS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nichols").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# linalg's raw-scalar machinery, and names for conversions to and from raws
LINALG_INTERNALS = {"FieldOps", "IncrementalSpan"}
RAW_CONVERSIONS = {"lift", "lower"}
# GradedNicholsState's tables; other modules use its operations instead
ENGINE_TABLES = {"products", "derivs", "tails"}
# the names a module's own objects go by where it sets their attributes
OWNERS = {"self", "cls", "inst"}
# public functions and methods that nothing in src/nichols refers to (names
# that begin with an underscore, dunders among them, are not public)
UNREFERENCED_ALLOWED = {
    # waits on ROADMAP item 1: perfbench/tracer.py spans it by name
    "derivative",
    # cli.run_scenario looks each runner up by name when it runs, so that a
    # caller can replace it (perfbench/child.py's setup mode does)
    *(f"run_{task}" for task in TASKS),
}


def _rel(path):
    return str(path.relative_to(ROOT))


def _exported(tree):
    """The names listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    """(line, name) for every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    skip = used | _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in skip)


def raw_scalar_uses(source):
    """(line, name) for every reference to linalg's raw-scalar layer."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in LINALG_INTERNALS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in LINALG_INTERNALS)
        elif isinstance(node, ast.Attribute) and \
                node.attr in LINALG_INTERNALS | RAW_CONVERSIONS:
            found.append((node.lineno, "." + node.attr))
    return sorted(found)


def engine_table_reads(source):
    """(line, name) for every use of an attribute named like an engine
    table."""
    return sorted((node.lineno, "." + node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ENGINE_TABLES)


def regex_imports(source):
    """(line, module) for every import of re."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name == "re")
        elif isinstance(node, ast.ImportFrom) and node.module == "re":
            found.append((node.lineno, "re"))
    return sorted(found)


def coefficient_subscripts(source):
    """Line numbers of every subscript of a .coeffs attribute, such as
    x.coeffs[0]: over Q a scalar is a bare rational, which has no
    coefficients to index."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "coeffs")


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def foreign_private_uses(source):
    """(line, name) for every underscore attribute the module reads or
    writes without assigning it on self, cls or inst, or defining it in a
    class body."""
    tree = ast.parse(source)
    owned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.value, ast.Name) and node.value.id in OWNERS:
            owned.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    owned.add(item.name)
                targets = item.targets if isinstance(item, ast.Assign) else \
                    [getattr(item, "target", None)]
                owned.update(t.id for t in targets if isinstance(t, ast.Name))
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and node.attr not in owned)


def unreferenced_functions(sources):
    """(file, line, name) for every public function or method defined in
    sources, a dict file -> source text, whose name no code in sources reads
    outside the function's own body."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                used = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(used, []).append((name, node.lineno))
    return sorted(
        (name, node.lineno, node.name)
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and all(where == name and node.lineno <= line <= node.end_lineno
                for where, line in uses.get(node.name, ())))


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=_rel)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"],
                         ids=_rel)
def test_raw_scalars_stay_inside_linalg(path):
    assert raw_scalar_uses(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "engine.py"],
                         ids=_rel)
def test_engine_tables_stay_inside_engine(path):
    assert engine_table_reads(path.read_text()) == []


# the scalar-literal grammar has one owner, cyclotomic; a second module that
# scans literal text (say, for conductors) is a second copy of that grammar
@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "cyclotomic.py"], ids=_rel)
def test_only_cyclotomic_uses_regular_expressions(path):
    assert regex_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "cyclotomic.py"], ids=_rel)
def test_only_cyclotomic_indexes_coefficients(path):
    assert coefficient_subscripts(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=_rel)
def test_private_attributes_stay_with_their_module(path):
    assert foreign_private_uses(path.read_text()) == []


# code that only its own unit tests call belongs in tests/
def test_public_functions_are_used_by_the_program():
    found = unreferenced_functions({_rel(p): p.read_text() for p in SOURCES})
    assert [f for f in found if f[2] not in UNREFERENCED_ALLOWED] == []


def test_scans_catch_what_they_look_for():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from sys import argv, exit\n"
        "from .x import kept\n"
        "__all__ = ['kept']\n"
        "exit(argv)\n") == [(2, "os"), (3, "osp")]
    assert raw_scalar_uses(
        "from .linalg import FieldOps, eliminate_block\n"
        "ops = FieldOps(field)\n"
        "x = ops.lift(v)\n"
        "y = linalg.IncrementalSpan\n"
        "z = ops.lower(x)\n") == [(1, "FieldOps"), (2, "FieldOps"),
                                  (3, ".lift"), (4, ".IncrementalSpan"),
                                  (5, ".lower")]
    assert engine_table_reads(
        "prods = state.products[m]\n"
        "products = state.multiply(a, b)\n"
        "d = s.derivs[n][m], s.tails[n][m]\n") == [
            (1, ".products"), (3, ".derivs"), (3, ".tails")]
    assert regex_imports(
        "import os, re\n"
        "from re import findall\n"
        "import regex\n") == [(1, "re"), (2, "re")]
    assert coefficient_subscripts(
        "a = x.coeffs[0]\n"
        "b = list(series.coeffs)\n"
        "c = x.coeffs\n"
        "d = y.coeffs[1:], coeffs[0]\n") == [1, 4]
    assert foreign_private_uses(
        "class A:\n"
        "    _shared = {}\n"
        "    def __init__(self):\n"
        "        self._memo = {}\n"
        "        super().__init__()\n"
        "    def _helper(self):\n"
        "        return A._shared, self._memo\n"
        "def copy(a, b):\n"
        "    b._memo = a._memo\n"
        "    b._cache = a._helper()\n"
        "    return b._cache, a._state\n") == [(10, "_cache"), (11, "_cache"),
                                              (11, "_state")]
    assert unreferenced_functions({
        "a.py": "def used(n):\n"
                "    return n\n"
                "def recursive(n):\n"
                "    return recursive(n - 1)\n"
                "class C:\n"
                "    def method(self):\n"
                "        return used(1)\n"
                "    def __len__(self):\n"
                "        return 0\n"
                "    def _private(self):\n"
                "        return 1\n",
        "b.py": "from a import C\n"
                "C().method()\n"}) == [("a.py", 3, "recursive")]
