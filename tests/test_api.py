"""Guard against dead code: every public top-level function or class of the
library, and every public method or property of its classes, is used by the
library, the scripts or the benchmark's worker (``perfbench/worker.py``), or
exported by the package and named in the README.
Also guard against caches that grow without bound (every lru_cache of the
library has a maxsize), against rational arithmetic (no file of the library
names ``Fraction`` or ``fractions``), and against theorem-violation messages
that no test names."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kisin"
TESTS = ROOT / "tests"

# Public names whose only callers are tests, each with the reason it stays;
# methods are keyed as Class.method.
TEST_ONLY = {
    "clear_caches": "the autouse fixture of tests/conftest.py empties every cache of the library with it",
}

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)


def _public_defs():
    """(module, key, name): public top-level definitions keyed by name, and
    public methods and properties of top-level classes keyed as Class.name."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, DEFS):
                continue
            if not node.name.startswith("_"):
                yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCS) and not item.name.startswith("_"):
                        yield path.name, f"{node.name}.{item.name}", item.name


def _scopes(tree):
    """(node, own names): each top-level statement, with each statement of a
    class body as a scope of its own that also owns the class name."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                yield item, {top.name, getattr(item, "name", None)}
            for node in top.bases + top.keywords + top.decorator_list:
                yield node, {top.name}
        else:
            yield top, {top.name} if isinstance(top, DEFS) else set()


def _references():
    """Every name read or attribute accessed in src/, scripts/ and the
    benchmark's worker, except a definition's references to itself."""
    refs = set()
    callers = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    for path in callers + [ROOT / "perfbench" / "worker.py"]:
        for scope, own in _scopes(ast.parse(path.read_text())):
            for node in ast.walk(scope):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    refs.add(name)
    return refs


def _exports():
    """The package's exports that the README names; an export no document
    names has no user."""
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    } & readme


def test_every_public_name_has_a_use():
    used = _references() | _exports()
    dead = [
        f"{module}:{key}"
        for module, key, name in _public_defs()
        if name not in used and key not in TEST_ONLY
    ]
    assert dead == [], f"public names with no reference in src/, scripts/ or the worker and no README export: {dead}"


def test_allowlist_is_current():
    # an allowlisted name that gained a caller, or was deleted, leaves the list
    defined = {key: name for _, key, name in _public_defs()}
    used = _references() | _exports()
    assert {key for key in TEST_ONLY if key not in defined or defined[key] in used} == set()


def _cached_defs():
    """(module, name) of every function of the library decorated with
    functools.lru_cache or functools.cache, at any depth."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, FUNCS):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    yield path.stem, node.name


def test_every_cache_is_bounded():
    cached = list(_cached_defs())
    assert len(cached) >= 10
    # the graph's move rows and move table, the chains' coroot and step
    # tables and contexts, the join's candidate tables and the datum
    # states are among them
    assert {
        ("connectivity", "_graph_moves"),
        ("connectivity", "_move_table"),
        ("connectivity", "_chain_table"),
        ("connectivity", "_step_table"),
        ("connectivity", "_chain_context"),
        ("strata", "_candidate_table"),
        ("strata", "_state"),
    } <= set(cached)
    unbounded = [
        f"{module}.{name}"
        for module, name in cached
        if getattr(importlib.import_module(f"kisin.{module}"), name).cache_info().maxsize is None
    ]
    assert unbounded == [], f"caches with no maxsize: {unbounded}"


def test_no_fractions_in_the_library():
    # fixed points are solved, checked and written as integers over one
    # denominator, so no file of the library names Fraction or fractions
    named = [path.name for path in sorted(PACKAGE.glob("*.py")) if re.search(r"\b[Ff]ractions?\b", path.read_text())]
    assert named == []


# a literal fragment of a message, and a string constant of a test, count
# only from this length on; the fragment is named when one of them holds the
# other
MIN_NAMED = 10


def _violation_messages():
    """(module, line, literal fragments) of every raise of
    TheoremViolationError in the library; an f-string gives its literal
    parts, stripped of the spaces and commas around its fields."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "TheoremViolationError":
                fragments = [
                    c.value.strip(" ,")
                    for c in ast.walk(exc.args[0])
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                ]
                yield path.name, node.lineno, [f for f in fragments if len(f) >= MIN_NAMED]


def _test_strings():
    return {
        node.value
        for path in sorted(TESTS.glob("test_*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and len(node.value) >= MIN_NAMED
    }


def test_every_theorem_violation_is_named_by_a_test():
    messages = list(_violation_messages())
    assert len(messages) >= 20
    named = _test_strings()
    unnamed = [
        f"{module}:{line} {fragments}"
        for module, line, fragments in messages
        if not any(t in f or f in t for f in fragments for t in named)
    ]
    assert unnamed == [], f"theorem-violation messages that no test names: {unnamed}"
