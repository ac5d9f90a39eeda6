"""The package and its tests parse with the grammar of the oldest Python
that pyproject.toml supports, whatever interpreter runs the suite."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    files = sorted(f for d in ("src", "tests") for f in (ROOT / d).rglob("*.py"))
    assert files
    for f in files:
        ast.parse(f.read_text(encoding="utf-8"), filename=str(f), feature_version=(3, 10))
