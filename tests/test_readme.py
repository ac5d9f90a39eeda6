"""The README's example config and library tour run as written."""

import ast
import json
import re
from pathlib import Path

from iwacalc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(lang: str) -> str:
    return re.search(rf"```{lang}\n(.*?)```", README, re.S).group(1)


def test_readme_config_runs(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(code_block("json"), encoding="utf-8")
    assert main(["run", str(path)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["status"] for r in records] == ["pass"] * 3
    control = next(r for r in records if r["task"] == "control-check")
    assert control["metrics"]["dim"] == 28


def test_readme_library_tour():
    # statements run in order; the value of each bare call is kept under
    # the name of the function called
    ns: dict = {}
    values = {}
    for stmt in ast.parse(code_block("python")).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.unparse(stmt.value.func)] = eval(code, ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert values["is_controlled_by"] is True
    assert len(values["reconstruct_aut"]) == 10
