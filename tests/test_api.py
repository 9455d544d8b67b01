"""Guard against dead code: every public top-level function or class of the
library is used by the library or the scripts, or exported by the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kisin"

# Public names whose only callers are tests, each with the reason it stays.
TEST_ONLY = {
    "mat_det": "reference determinant that test_adjugate_identity checks mat_adjugate against",
    "mat_diag_u": "builds the diagonal test matrices u^lam for the divisor and label tests",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_defs():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                yield path.name, node.name


def _references():
    """Every name read or attribute accessed in src/ and scripts/, except a
    definition's references to itself."""
    refs = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, DEFS) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    refs.add(name)
    return refs


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_public_name_has_a_use():
    used = _references() | _exports() | set(TEST_ONLY)
    dead = [f"{module}:{name}" for module, name in _public_defs() if name not in used]
    assert dead == [], f"public names with no reference in src/ or scripts/: {dead}"


def test_allowlist_is_current():
    # an allowlisted name that gained a caller, or was deleted, leaves the list
    defined = {name for _, name in _public_defs()}
    used = _references() | _exports()
    assert {name for name in TEST_ONLY if name not in defined or name in used} == set()
