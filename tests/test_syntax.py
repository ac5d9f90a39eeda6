"""The package and its tests parse with the grammar of the oldest Python
that pyproject.toml supports, whatever interpreter runs the suite, the
package defines and assigns nothing that it never names, and it imports
nothing that it never names."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iwacalc"
README_WORDS = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))

# definitions nothing in src names, kept on purpose: name -> reason
UNUSED_IN_SRC: dict = {}


def _sources():
    for f in sorted(PACKAGE.rglob("*.py")):
        yield f, ast.parse(f.read_text(encoding="utf-8"), filename=str(f))


def _names(tree) -> Counter:
    """Every name and attribute a module refers to; a name that is only
    assigned to is not referred to."""
    named = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
    return named


def test_sources_parse_as_python_3_10():
    files = sorted(f for d in ("src", "tests") for f in (ROOT / d).rglob("*.py"))
    assert files
    for f in files:
        ast.parse(f.read_text(encoding="utf-8"), filename=str(f), feature_version=(3, 10))


def test_every_definition_in_src_is_named_in_src():
    """A function, class or non-dunder method that no name or attribute in
    src refers to is reached only from the tests, if at all: move it to
    `tests/oracles.py` or delete it.  The re-exports of `iwacalc/__init__.py`
    do not count as naming; a definition named only there is public API
    only if the README names it too.  `UNUSED_IN_SRC` is exempt."""
    defined, named, exported = [], Counter(), set()
    for f, tree in _sources():
        if f.name == "__init__.py":
            exported.update(alias.name for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) for alias in node.names)
            continue
        named += _names(tree)
        defined += [(f"{f.name}:{node.lineno}", node.name) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))]
    assert defined and exported
    public = exported & README_WORDS
    dead = [f"{where} {name}" for where, name in defined
            if not named[name] and name not in public | set(UNUSED_IN_SRC)
            and not (name.startswith("__") and name.endswith("__"))]
    assert not dead, "defined in src but never named there: " + ", ".join(dead)
    unreached = sorted(name for name in exported if not named[name] and name not in public)
    assert not unreached, f"exported but named neither in src nor in the README: {unreached}"
    stale = [name for name in UNUSED_IN_SRC if named[name] or name in public]
    assert not stale, f"allowed as unused but named in src: {stale}"


def test_every_module_level_name_in_src_is_named_in_src():
    """A non-dunder name that a src module assigns at module level, such as
    a constant or a budget, is read somewhere in src: one that only the
    tests read, or that nothing reads once its last user is gone, is dead."""
    assigned, named = [], Counter()
    for f, tree in _sources():
        named += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [(f"{f.name}:{node.lineno}", n.id) for target in targets
                             for n in ast.walk(target) if isinstance(n, ast.Name)]
    assert assigned
    dead = [f"{where} {name}" for where, name in assigned
            if not named[name] and not (name.startswith("__") and name.endswith("__"))]
    assert not dead, "assigned in src but never named there: " + ", ".join(dead)


def test_every_import_in_src_is_named_in_its_module():
    """A src module names every name it imports, apart from the re-exports
    of `iwacalc/__init__.py`, and no src module imports from the tests."""
    unused, from_tests = [], []
    for f, tree in _sources():
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                       else [alias.name for alias in node.names])
            from_tests += [f"{f.name}:{node.lineno} {m}" for m in modules
                           if m.split(".")[0] in ("tests", "oracles", "conftest")]
        if f.name == "__init__.py":
            continue
        named = _names(tree)
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if not named[name]:
                    unused.append(f"{f.name}:{node.lineno} {name}")
    assert not unused, "imported but never named: " + ", ".join(unused)
    assert not from_tests, "src imports from the tests: " + ", ".join(from_tests)
