"""The package and its tests parse with the grammar of the oldest Python
that pyproject.toml supports, whatever interpreter runs the suite, and the
package defines nothing that it never names."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iwacalc"

# definitions nothing in src names, kept on purpose: name -> reason
UNUSED_IN_SRC: dict = {}


def test_sources_parse_as_python_3_10():
    files = sorted(f for d in ("src", "tests") for f in (ROOT / d).rglob("*.py"))
    assert files
    for f in files:
        ast.parse(f.read_text(encoding="utf-8"), filename=str(f), feature_version=(3, 10))


def test_every_definition_in_src_is_named_in_src():
    """A function, class or non-dunder method that no name or attribute in
    src refers to is reached only from the tests, if at all: move it to
    `tests/oracles.py` or delete it.  Names imported by `iwacalc/__init__.py`
    are the public API and exempt, and so is `UNUSED_IN_SRC`."""
    defined, named, exported = [], Counter(), set()
    for f in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(f.read_text(encoding="utf-8"), filename=str(f))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{f.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.ImportFrom) and f.name == "__init__.py":
                exported.update(alias.name for alias in node.names)
    assert defined and exported
    dead = [f"{where} {name}" for where, name in defined
            if not named[name] and name not in exported | set(UNUSED_IN_SRC)
            and not (name.startswith("__") and name.endswith("__"))]
    assert not dead, "defined in src but never named there: " + ", ".join(dead)
    stale = [name for name in UNUSED_IN_SRC if named[name] or name in exported]
    assert not stale, f"allowed as unused but named in src: {stale}"
