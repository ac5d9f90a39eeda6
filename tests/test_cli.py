"""Config parsing, the task runner, and the command line entry point."""

import json

import numpy as np
import pytest

from iwacalc.cli import (
    ConfigError, _task_verify_operators, build_context, load_config_file, main,
    parse_config, render_jsonl, render_table, run_config,
)
from iwacalc.series import SparseMap


def abelian_doc(tasks):
    return {
        "p": 3,
        "model": {"kind": "abelian", "rank": 2, "centre": [0, 4]},
        "omega": ["1", "1"],
        "truncation": {"W": 8, "M": 4},
        "seed": 11,
        "tasks": tasks,
    }


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_config_shape():
    doc = abelian_doc([{"name": "moore-det"},
                       {"name": "verify-valuation", "samples": 7}])
    doc["budgets"] = {"dagger": 128}
    cfg = parse_config(doc)
    assert cfg["p"] == 3 and cfg["W"] == 8
    assert cfg["seed"] == 11
    assert cfg["budgets"] == {"dagger": 128}
    assert cfg["model"]["precision"] == 4 and cfg["model"]["e"] == 1
    assert cfg["tasks"] == [("moore-det", {}),
                            ("verify-valuation", {"samples": 7})]


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.pop("p"), "missing required field 'p'"),
    (lambda d: d["truncation"].pop("W"), "missing required field 'truncation.W'"),
    (lambda d: d["model"].pop("kind"), "missing required field 'model.kind'"),
    (lambda d: d.update(p=1), "p: must be >= 2, got 1"),
    (lambda d: d.update(tasks=[]), "tasks: must not be empty"),
    (lambda d: d.update(tasks=[42]), "tasks[0]: expected an object"),
    (lambda d: d.update(omega="1"), "omega: expected a list"),
])
def test_parse_config_rejects(mutate, message):
    doc = abelian_doc([{"name": "moore-det"}])
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert message in str(err.value)


def test_parse_config_unknown_task():
    doc = abelian_doc([{"name": "frobnicate"}])
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    msg = str(err.value)
    assert "tasks[0].name: unknown task 'frobnicate'" in msg
    assert "zeta" in msg and "control-check" in msg  # lists the known names


def test_load_config_file_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config_file(str(path))
    assert "invalid JSON" in str(err.value)


def test_run_config_deterministic():
    cfg = parse_config(abelian_doc([
        {"name": "verify-operators", "samples": 6},
        {"name": "verify-valuation", "samples": 40},
        {"name": "moore-det", "cases": [[2, 2, 0], [3, 2, 0]]},
    ]))
    first = run_config(cfg)
    assert [r["status"] for r in first] == ["pass"] * 3
    assert render_jsonl(run_config(cfg)) == render_jsonl(first)


def test_jobs_option_is_gone(tmp_path, capsys):
    path = write_doc(tmp_path, "c.json", abelian_doc([{"name": "moore-det"}]))
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_stale_jobs_field_is_ignored(tmp_path):
    tasks = [{"name": "verify-valuation", "samples": 30},
             {"name": "moore-det", "cases": [[2, 2, 0]]}]
    stale = abelian_doc(tasks)
    stale["jobs"] = 4
    outs = []
    for name, doc in (("plain", abelian_doc(tasks)), ("stale", stale)):
        out = tmp_path / f"{name}.jsonl"
        assert main(["run", write_doc(tmp_path, f"{name}.json", doc),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_operators_reports_broken_product_rule(monkeypatch):
    from iwacalc import cli
    from iwacalc.padic import comb_mod
    # a wrong coefficient on the right-hand side of the product rule
    monkeypatch.setattr(cli, "comb_mod",
                        lambda n, k, p: (comb_mod(n, k, p) + 1) % p)
    ctx = build_context(parse_config(abelian_doc([{"name": "verify-operators"}])))
    status, metrics, witnesses = _task_verify_operators(ctx, {"samples": 6}, 0)
    rule = [w for w in witnesses if w["kind"] == "product-rule"]
    assert status == "fail" and rule
    for w in rule:
        assert set(w) == {"kind", "alpha", "beta"}
        assert tuple(w["alpha"]) in ctx.trunc.index
        assert tuple(w["beta"]) in ctx.trunc.index


def test_idempotents_reports_broken_idempotents(monkeypatch):
    from iwacalc import cli
    real = cli.coset_idempotent

    def doubled(t, H, nu):
        # 2*e_nu: neither idempotent nor summing to the identity mod 3,
        # and still zero on the other cosets
        e = real(t, H, nu)
        return SparseMap(e.p, e.size, np.repeat(e.targets, np.diff(
            np.append(e.starts, e.src.size))), e.src, 2 * e.coef % e.p)

    monkeypatch.setattr(cli, "coset_idempotent", doubled)
    ctx = build_context(parse_config(abelian_doc([{"name": "idempotents"}])))
    status, metrics, witnesses = cli._task_idempotents(
        ctx, {"directions": [1, 0], "samples": 2}, 0)
    kinds = [w["kind"] for w in witnesses]
    assert status == "fail" and metrics["cosets"] == 3
    assert kinds[:4] == ["idempotent"] * 3 + ["partition-of-unity"]
    assert [w["nu"] for w in witnesses[:3]] == [[0], [1], [2]]


def test_verify_operators_leaves_no_dense_matrix_cached():
    doc = abelian_doc([{"name": "verify-operators", "samples": 4}])
    doc["model"] = {"kind": "abelian", "rank": 3}
    doc["omega"] = ["1", "1", "1"]
    cfg = parse_config(doc)
    ctx = build_context(cfg)
    status, metrics, _ = _task_verify_operators(ctx, {"samples": 4}, 0)
    t = ctx.trunc
    assert status == "pass" and metrics["degrees"] == t.size - 1
    assert t._op_cache
    for op in t._op_cache.values():
        assert isinstance(op, SparseMap)
        assert max(a.size for a in (op.src, op.coef, op.targets)) < t.size ** 2


def test_run_config_task_filter_keeps_streams():
    cfg = parse_config(abelian_doc([
        {"name": "verify-valuation", "samples": 30},
        {"name": "verify-valuation", "samples": 30},
        {"name": "moore-det", "cases": [[2, 2, 0]]},
    ]))
    full = run_config(cfg)
    # filtering keeps each task's position as its RNG stream, so the
    # records match the full run byte for byte
    only = run_config(cfg, only=["verify-valuation"])
    assert only == full[:2]
    with pytest.raises(ConfigError):
        run_config(cfg, only=["nope"])


def test_run_config_turns_task_errors_into_fail_records():
    cfg = parse_config(abelian_doc([
        {"name": "zeta",
         "automorphism": {"kind": "linear", "matrix": [[10, 0], [0, 10]]}},
        {"name": "moore-det", "cases": [[2, 2, 0]]},
    ]))
    records = run_config(cfg)
    assert records[0]["status"] == "fail"
    w = records[0]["witnesses"][0]
    assert w["kind"] == "error" and w["error"] == "ModelError"
    assert "trivial at this precision" in w["message"]
    assert records[1]["status"] == "pass"  # later tasks still run


RANK3_PRIME = {"kind": "zero", "central_block": 2}


@pytest.mark.parametrize("bad", [2.5, True, -3, "x"],
                         ids=["float", "bool", "negative", "string"])
@pytest.mark.parametrize("field,tasks", [
    ("samples", [{"name": "verify-operators"}, {"name": "verify-valuation"},
                 {"name": "idempotents", "directions": [1, 0, 0]},
                 {"name": "completely-prime-probe", "prime": RANK3_PRIME}]),
    ("depth", [{"name": "dagger", "ideal": {"generators": ["b1"]}},
               {"name": "zalesskii", "ideal": {"generators": ["b3"]}}]),
    ("budgets.dagger", [{"name": "dagger", "ideal": {"generators": ["b1"]}},
                        {"name": "zalesskii", "ideal": {"generators": ["b3"]}}]),
    ("budgets.samples", [{"name": "completely-prime-probe", "prime": RANK3_PRIME}]),
])
def test_task_integers_are_typed(field, tasks, bad):
    doc = abelian_doc([dict(task) for task in tasks])
    doc["model"] = {"kind": "abelian", "rank": 3, "centre": [0, 0, 4]}
    doc["omega"] = ["1", "1", "1"]
    if field.startswith("budgets."):
        doc["budgets"] = {field.split(".")[1]: bad}
    else:
        for task in doc["tasks"]:
            task[field] = bad
    records = run_config(parse_config(doc))
    assert len(records) == len(tasks)
    for rec in records:
        assert rec["status"] == "fail"
        [w] = rec["witnesses"]
        assert w["kind"] == "error" and w["error"] == "ConfigError"
        assert w["message"].startswith(f"{field}: ")


def test_run_config_zeta_report():
    cfg = parse_config({
        "p": 3,
        "model": {"kind": "abelian", "rank": 1},
        "omega": ["1"],
        "truncation": {"W": 60, "M": 6},
        "tasks": [{"name": "zeta",
                   "automorphism": {"kind": "linear", "matrix": [[10]]}}],
    })
    rec = run_config(cfg)[0]
    assert rec["status"] == "pass"
    m = rec["metrics"]
    assert m["lambda"] == "9" and m["m"] == 1 and m["monotone_ok"] is True
    assert m["D"] == [{"i": 1, "r": 0, "D": "7"}, {"i": 1, "r": 1, "D": "25"}]


def test_run_config_prime_tasks():
    cfg = parse_config({
        "p": 3,
        "model": {"kind": "abelian", "rank": 3, "centre": [0, 0, 4]},
        "omega": ["1", "1", "1"],
        "truncation": {"W": 8, "M": 4},
        "seed": 7,
        "tasks": [
            {"name": "induced-filtration",
             "prime": {"kind": "graph", "central_block": 2, "target": 1,
                       "u": "b2^2"},
             "elements": ["b1", "b2", "b3", "b1 + 2*b2^2"],
             "expect": ["2", "1", "1", ">=8"]},
            {"name": "completely-prime-probe",
             "prime": {"kind": "zero", "central_block": 2}, "samples": 40},
            {"name": "completely-prime-probe",
             "prime": {"kind": "graph", "central_block": 2, "target": 1,
                       "u": "b2^2"}, "samples": 40},
        ],
    })
    records = run_config(cfg)
    assert [r["status"] for r in records] == ["pass"] * 3
    assert records[0]["metrics"]["values"] == ["2", "1", "1", ">=8"]
    assert records[1]["metrics"]["kernel_checked"] == 0
    assert records[2]["metrics"]["kernel_checked"] > 0


def test_main_exit_zero(tmp_path, capsys):
    path = write_doc(tmp_path, "ok.json", abelian_doc([
        {"name": "mahler-reconstruct",
         "automorphism": {"kind": "linear", "matrix": [[10, 0], [0, 1]]},
         "degree_budget": 3},
        {"name": "idempotents", "directions": [1, 0], "samples": 8},
        {"name": "control-check", "ideal": {"generators": ["b1"]},
         "subgroup": [0, 1], "expect": "controlled"},
        {"name": "dagger", "ideal": {"generators": ["b1^3"]}, "depth": 2,
         "expect_cosets": [[0, 0], [3, 0], [6, 0]]},
    ]))
    assert main(["run", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["status"] for r in records] == ["pass"] * 4
    assert set(records[0]) == {"task", "status", "metrics", "witnesses"}


def test_main_exit_zero_with_skips(tmp_path, capsys):
    doc = {
        "p": 5,
        "model": {"kind": "unitriangular", "size": 3,
                  "generators": [[[1, 5, 0], [0, 1, 0], [0, 0, 1]],
                                 [[1, 0, 0], [0, 1, 5], [0, 0, 1]],
                                 [[1, 0, 5], [0, 1, 0], [0, 0, 1]]],
                  "centre": [3, 3, 0]},
        "omega": ["1", "1", "2"],
        "truncation": {"W": 6, "M": 3},
        "budgets": {"dagger": 200},
        "tasks": [
            {"name": "zalesskii", "ideal": {"generators": ["b3^2"]},
             "expect": "controlled"},
            {"name": "zalesskii", "ideal": {"generators": ["b3"]}},
        ],
    }
    path = write_doc(tmp_path, "heis.json", doc)
    assert main(["run", path]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["status"] for r in records] == ["pass", "skipped"]
    assert records[1]["witnesses"][0]["kind"] == "dagger-coset"


def test_main_exit_one_on_failure(tmp_path, capsys):
    path = write_doc(tmp_path, "fail.json", abelian_doc([
        {"name": "control-check", "ideal": {"generators": ["b1"]},
         "subgroup": [0, 1], "expect": "not-controlled"},
    ]))
    assert main(["run", path]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "fail"
    assert rec["metrics"]["observed"] == "controlled"


def test_main_exit_two_on_config_errors(tmp_path, capsys):
    bad = abelian_doc([{"name": "moore-det"}])
    del bad["p"]
    path = write_doc(tmp_path, "bad.json", bad)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing required field 'p'" in err

    good = write_doc(tmp_path, "good.json",
                     abelian_doc([{"name": "moore-det"}]))
    assert main(["run", good, "--task", "nope"]) == 2
    assert "unknown task 'nope'" in capsys.readouterr().err


def test_main_exit_two_when_coordinates_exceed_int64(tmp_path, capsys):
    doc = {"p": 3, "model": {"kind": "abelian", "rank": 1}, "omega": ["1"],
           "truncation": {"W": 4, "M": 40},
           "tasks": [{"name": "verify-valuation"}]}
    assert main(["run", write_doc(tmp_path, "wide.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2^63" in err


def test_main_table_format(tmp_path, capsys):
    path = write_doc(tmp_path, "table.json",
                     abelian_doc([{"name": "moore-det",
                                   "cases": [[2, 2, 0]]}]))
    assert main(["run", path, "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["TASK", "STATUS", "METRICS", "WITNESSES"]
    assert lines[1].startswith("moore-det") and "pass" in lines[1]


def test_main_out_file_and_seed(tmp_path, capsys):
    doc = abelian_doc([{"name": "verify-valuation", "samples": 25}])
    path = write_doc(tmp_path, "seeded.json", doc)
    out = tmp_path / "report.jsonl"
    assert main(["run", path, "--out", str(out), "--seed", "5"]) == 0
    assert capsys.readouterr().out == ""
    expected = render_jsonl(run_config(parse_config(doc), seed=5))
    assert out.read_text(encoding="utf-8") == expected


def test_render_table_alignment():
    records = [
        {"task": "moore-det", "status": "pass",
         "metrics": {"cases": 1, "scalars": [1]}, "witnesses": []},
        {"task": "zeta", "status": "fail", "metrics": {},
         "witnesses": [{"kind": "error"}]},
    ]
    text = render_table(records)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[2].split() == ["zeta", "fail", "1"]
