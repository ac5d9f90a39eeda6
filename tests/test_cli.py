"""Config parsing, the task runner, and the command line entry point."""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from iwacalc import CentralPrimeSpec, cli, operators, parse_series
from iwacalc.cli import (
    ConfigError, _task_verify_operators, build_context, load_config_file, main,
    parse_config, render_jsonl, render_table, run_config,
)
from iwacalc.rng import Pcg32
from iwacalc.operators import divided_power_maps
from iwacalc.series import SparseMap, TruncationSpec

from conftest import heisenberg_generators
from oracles import (
    completely_prime_probe_reference, idempotents_reference, verify_operators_reference,
    verify_valuation_reference,
)


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
    for name in ([], {}, 3):
        with pytest.raises(ConfigError, match=r"tasks\[0\]\.name: expected a string"):
            parse_config(abelian_doc([{"name": name}]))


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


def test_removed_fields_are_rejected(tmp_path, capsys):
    # `jobs` and `budgets.samples` were config fields once; unknown now
    for field, message in [("jobs", "jobs: unknown field"),
                           ("budgets", "budgets.samples: unknown field (known: dagger)")]:
        doc = abelian_doc([{"name": "completely-prime-probe",
                            "prime": {"kind": "zero", "central_block": 2}}])
        doc[field] = {"samples": 5} if field == "budgets" else 4
        assert main(["run", write_doc(tmp_path, "c.json", doc)]) == 2
        assert message in capsys.readouterr().err


def test_verify_operators_reports_broken_product_rule(monkeypatch):
    from iwacalc.padic import comb_mod
    # a wrong coefficient on the right-hand side of the product rule
    monkeypatch.setattr(operators, "comb_mod",
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
    real = cli.coset_idempotents

    def doubled(t, H):
        # 2*e_nu: neither idempotent nor summing to the identity mod 3,
        # and still zero on the other cosets
        return [(nu, SparseMap(e.p, e.size, e.tgt, e.src, 2 * e.coef % e.p))
                for nu, e in real(t, H)]

    monkeypatch.setattr(cli, "coset_idempotents", doubled)
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
        assert max(a.size for a in (op.src, op.coef, op.tgt)) < t.size ** 2


# models for the operator checks: abelian at p = 3, at p = 2 and at e = 2,
# and Heisenberg at p = 5
OPERATOR_MODELS = {
    "abelian2": {"p": 3, "model": {"kind": "abelian", "rank": 2},
                 "omega": ["1", "1"], "truncation": {"W": 8, "M": 4}},
    "p2": {"p": 2, "model": {"kind": "abelian", "rank": 2},
           "omega": ["2", "3"], "truncation": {"W": 14, "M": 5}},
    "e2": {"p": 3, "model": {"kind": "abelian", "rank": 3},
           "omega": ["1", "1", "3/2"], "truncation": {"W": 10, "M": 4, "e": 2}},
    "heisenberg": {"p": 5, "model": {"kind": "unitriangular", "size": 3,
                                     "generators": heisenberg_generators(5)},
                   "omega": ["1", "1", "2"], "truncation": {"W": 8, "M": 3}},
}


def poisoned(m: SparseMap, how: str) -> SparseMap:
    """A wrong version of a map: its first source's entries dropped, its
    coefficients negated, or an extra entry from the heaviest source to the
    constant, which lowers the degree of every divided power but the
    heaviest."""
    keep = m.src != m.src[0] if how == "dropped" and m.src.size else \
        np.ones(m.coef.size, dtype=bool)
    coef = -m.coef % m.p if how == "negated" else m.coef
    extra = int(how == "extra")
    return SparseMap(m.p, m.size, np.append(m.tgt[keep], [0] * extra),
                     np.append(m.src[keep], [m.size - 1] * extra),
                     np.append(coef[keep], [1] * extra))


def operator_contexts(name: str, seed: int, poison: str, alphas) -> list:
    """Two contexts of one model, each with every divided power of the basis
    cached and the maps of `alphas(trunc)` poisoned the same way."""
    cfg = parse_config(dict(OPERATOR_MODELS[name], seed=seed,
                            tasks=[{"name": "moore-det"}]))
    out = []
    for _ in range(2):
        ctx = build_context(cfg)
        t = ctx.trunc
        divided_power_maps(t, t.basis)
        for a in alphas(t) if poison != "none" else ():
            t._op_cache[("dp", a)] = poisoned(t._op_cache[("dp", a)], poison)
        out.append(ctx)
    return out


@pytest.mark.parametrize("name", sorted(OPERATOR_MODELS))
@pytest.mark.parametrize("poison, which", [("none", "all")] + [
    (poison, which) for poison in ("dropped", "negated", "extra")
    for which in ("pair", "eigen", "thirds")])
def test_verify_operators_matches_the_oracle_loop(name, poison, which):
    """With cached maps poisoned (those of the first sampled pair, of the
    first sampled eigen index, or of every third basis index), the block
    task reports the witnesses of the per-sample loop: the same kinds,
    order and fields."""
    seed, samples, stream = 7, 6, 2

    def alphas(t):
        if which == "thirds":
            return t.basis[1::3]
        rng = Pcg32(seed, stream=stream)
        draws = [rng.below(t.size) for _ in range(2 * samples)]
        rank, pm = t.model.rank, t.model.p ** t.model.precision
        draws += [rng.below(pm) for _ in range(rank)] + [rng.below(t.size)]
        return [t.basis[k] for k in (draws[:2] if which == "pair" else draws[-1:])]

    block, loop = operator_contexts(name, seed, poison, alphas)
    got = _task_verify_operators(block, {"samples": samples}, stream)
    assert got == verify_operators_reference(loop, {"samples": samples}, stream)
    # negation is the identity at p = 2
    if which == "thirds" and (name, poison) != ("p2", "negated"):
        assert got[0] == "fail"


@pytest.mark.parametrize("name", sorted(OPERATOR_MODELS))
@pytest.mark.parametrize("poison", ["none", "dropped", "negated", "extra"])
def test_idempotents_match_the_oracle_loop(name, poison):
    """With del_1 poisoned, which every coset idempotent of a mask holding
    the first direction is built from, the block task reports the
    witnesses of the per-coset, per-sample loop."""
    rank = len(OPERATOR_MODELS[name]["omega"])
    params = {"directions": [1, 1] + [0] * (rank - 2), "samples": 5}
    unit = tuple(int(j == 0) for j in range(rank))
    block, loop = operator_contexts(name, 3, poison, lambda t: [unit])
    got = cli._task_idempotents(block, params, 1)
    assert got == idempotents_reference(loop, params, 1)
    assert (got[0] == "pass") == (poison == "none" or (name, poison) == ("p2", "negated"))


@pytest.mark.parametrize("name", sorted(OPERATOR_MODELS))
def test_operator_tasks_without_samples_match_the_oracle_loops(name):
    """With no sample drawn, only the map checks run: the degrees, and the
    idempotents and their sum."""
    rank = len(OPERATOR_MODELS[name]["omega"])
    params = {"directions": [1] + [0] * (rank - 1), "samples": 0}
    block, loop = operator_contexts(name, 5, "none", list)
    assert _task_verify_operators(block, {"samples": 0}, 0) == \
        verify_operators_reference(loop, {"samples": 0}, 0)
    assert cli._task_idempotents(block, params, 0) == idempotents_reference(loop, params, 0)


@pytest.mark.parametrize("name, seed", [("abelian2", 7), ("heisenberg", 1)])
def test_operator_checks_in_blocks_of_one_sample_match_the_oracle_loops(monkeypatch, name, seed):
    """Checks split into blocks of one sample report what the per-sample
    loops do, with every third map and del_1 poisoned; the seeds are ones
    whose samples break each kind of check."""
    monkeypatch.setattr(operators, "_CHECK_TERMS", 1)
    rank = len(OPERATOR_MODELS[name]["omega"])
    params = {"directions": [1] + [0] * (rank - 1), "samples": 7}
    unit = tuple(params["directions"])
    block, loop = operator_contexts(name, seed, "extra", lambda t: set(t.basis[1::3]) | {unit})
    got = _task_verify_operators(block, {"samples": 7}, 1)
    assert got == verify_operators_reference(loop, {"samples": 7}, 1)
    assert {w["kind"] for w in got[2]} >= {"product-rule", "eigen", "degree"}
    got = cli._task_idempotents(block, params, 1)
    assert got == idempotents_reference(loop, params, 1)
    assert got[0] == "fail"


def test_operator_checks_memory_follows_the_blocks():
    """600 samples, checked in blocks of about `_CHECK_TERMS` entries: the
    peak stays below what one block of all the idempotent applications
    would hold (about 75 MB here)."""
    doc = dict(OPERATOR_MODELS["e2"], tasks=[{"name": "moore-det"}])
    doc["omega"], doc["truncation"] = ["1", "1", "1"], {"W": 8, "M": 4}
    ctx = build_context(parse_config(doc))
    tracemalloc.start()
    try:
        status, metrics, _ = cli._task_idempotents(
            ctx, {"directions": [1, 1, 1], "samples": 600}, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == "pass" and metrics["actions"] == 600 * 27
    assert peak < 6_000_000


def test_verify_operators_builds_every_divided_power_in_one_call(monkeypatch):
    """A cold verify-operators task builds all its maps, one per basis
    index, in one `_divided_powers` call: no sample builds a map."""
    calls = []
    build = operators._divided_powers
    monkeypatch.setattr(operators, "_divided_powers",
                        lambda t, alphas: calls.append(len(alphas)) or build(t, alphas))
    ctx = build_context(parse_config(dict(OPERATOR_MODELS["heisenberg"], tasks=[
        {"name": "verify-operators"}])))
    status, metrics, _ = _task_verify_operators(ctx, {"samples": 8}, 0)
    assert status == "pass" and metrics["pairs"] == 8
    assert calls == [ctx.trunc.size]


@pytest.mark.parametrize("directions", [[1, 0, 0], [1, 1, 0], [1, 1, 1]])
def test_idempotents_build_each_factor_once(monkeypatch, directions):
    """The idempotents task builds |mask| * p factors, one per direction
    and residue, not one per coset and direction, and all the divided
    powers they combine in one `_divided_powers` call."""
    factors, builds = [], []
    factor, build = operators._coset_factor, operators._divided_powers
    monkeypatch.setattr(operators, "_coset_factor",
                        lambda t, i, v: factors.append((i, v)) or factor(t, i, v))
    monkeypatch.setattr(operators, "_divided_powers",
                        lambda t, alphas: builds.append(len(alphas)) or build(t, alphas))
    doc = abelian_doc([{"name": "idempotents"}])
    doc["model"] = {"kind": "abelian", "rank": 3}
    doc["omega"] = ["1", "1", "1"]
    ctx = build_context(parse_config(doc))
    status, metrics, _ = cli._task_idempotents(
        ctx, {"directions": directions, "samples": 3}, 0)
    mask = [i for i, n in enumerate(directions) if n]
    assert status == "pass" and metrics["cosets"] == 3 ** len(mask)
    assert factors == [(i, v) for i in mask for v in range(3)]
    assert len(builds) == 1


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


def test_probe_draws_from_the_stream_of_its_position(monkeypatch):
    """Like every other task, a probe draws from Pcg32(seed, stream =
    position), so a probe at position 1 under one seed shares no draws with
    one at position 0 under the next seed."""
    class Recording(Pcg32):
        def __init__(self, seed, stream=0):
            self.args = (seed, stream)
            super().__init__(seed, stream)

    seen = []
    probe = cli.completely_prime_probe
    monkeypatch.setattr(cli, "Pcg32", Recording)
    monkeypatch.setattr(cli, "completely_prime_probe",
                        lambda P, rng, samples: seen.append(rng.args) or probe(P, rng, samples))
    task = {"name": "completely-prime-probe", "prime": RANK3_PRIME, "samples": 2}
    doc = abelian_doc([{"name": "moore-det", "cases": [[2, 2, 0]]}, task, task])
    doc["model"] = {"kind": "abelian", "rank": 3, "centre": [0, 0, 4]}
    doc["omega"] = ["1", "1", "1"]
    doc["seed"] = 2 ** 64 - 1
    records = run_config(parse_config(doc))
    assert [r["status"] for r in records] == ["pass"] * 3
    assert seen == [(2 ** 64 - 1, 1), (2 ** 64 - 1, 2)]


# models for the sampled checks: abelian with a central prime block at
# e = 1 and e = 2, at p = 2 (where no coefficient is drawn), and Heisenberg
SAMPLED = {
    "abelian3": ({"p": 3, "model": {"kind": "abelian", "rank": 3, "centre": [0, 0, 4]},
                  "omega": ["1", "1", "1"], "truncation": {"W": 8, "M": 4}},
                 [RANK3_PRIME, {"kind": "graph", "central_block": 2, "target": 1,
                                "u": "b2^2"}]),
    "e2": ({"p": 3, "model": {"kind": "abelian", "rank": 3, "centre": [0, 0, 4]},
            "omega": ["1", "1", "3/2"], "truncation": {"W": 12, "M": 4, "e": 2}},
           [RANK3_PRIME, {"kind": "graph", "central_block": 2, "target": 2,
                          "u": "b1^2 + b1^3"}]),
    "p2": ({"p": 2, "model": {"kind": "abelian", "rank": 3, "centre": [0, 0, 6]},
            "omega": ["2", "2", "2"], "truncation": {"W": 12, "M": 6}},
           [RANK3_PRIME, {"kind": "graph", "central_block": 2, "target": 2,
                          "u": "b1^2"}]),
    "heisenberg": ({"p": 5, "model": {"kind": "unitriangular", "size": 3,
                                      "generators": heisenberg_generators(5)},
                    "omega": ["1", "1", "2"], "truncation": {"W": 8, "M": 3}}, []),
}


def sampled_records(name: str, seed: int, samples: int) -> tuple[list, list]:
    """The records of verify-valuation and one probe per prime of a model,
    and what the oracle loops give for the same streams."""
    base, primes = SAMPLED[name]
    doc = dict(base, seed=seed, tasks=[{"name": "verify-valuation", "samples": samples}] + [
        {"name": "completely-prime-probe", "prime": P, "samples": samples}
        for P in primes])
    cfg = parse_config(doc)
    t = build_context(cfg).trunc
    want = [dict(zip(("status", "metrics", "witnesses"), verify_valuation_reference(
        t, Pcg32(seed, stream=0), samples)), task="verify-valuation")]
    for k, spec in enumerate(primes, 1):
        u = parse_series(t, spec["u"]) if "u" in spec else None
        target = spec["target"] - 1 if "target" in spec else None
        P = CentralPrimeSpec(t, spec["kind"], spec["central_block"], target, u)
        report = completely_prime_probe_reference(P, Pcg32(seed, stream=k), samples)
        want.append({"task": "completely-prime-probe", "status": report["status"],
                     "metrics": {f: report[f] for f in ("samples", "checked", "skipped",
                                                        "kernel_checked", "violations")},
                     "witnesses": report["witnesses"]})
    return run_config(cfg), want


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_sampled_checks_match_the_oracle_loops(name):
    """Both sampled tasks draw every sample first and then work on blocks;
    their records equal those of the one-sample-at-a-time loops."""
    for seed in range(1, 21):
        got, want = sampled_records(name, seed, 12)
        assert got == want
    got, want = sampled_records(name, 5, 0)
    assert got == want
    assert all(r["status"] == "pass" for r in got)


def drop_leading(rows, cols, coefs):
    keep = np.diff(rows, prepend=-1) == 0
    return rows[keep], cols[keep], coefs[keep]


def lower_leading(rows, cols, coefs):
    cols = cols.copy()
    cols[np.diff(rows, prepend=-1) != 0] = 0
    return rows, cols, coefs


@pytest.mark.parametrize("fault", [drop_leading, lower_leading])
@pytest.mark.parametrize("name", ["abelian3", "e2", "heisenberg"])
def test_sampled_check_witnesses_match_the_oracle_loops(monkeypatch, name, fault):
    """No golden config reaches a witness.  Here every product has the
    leading term of each row dropped, or moved to the constant; both the
    block route and the oracle loops multiply through `mul_block`, and the
    witnesses come in the oracle's order and with its text."""
    mul = TruncationSpec.mul_block
    monkeypatch.setattr(TruncationSpec, "mul_block",
                        lambda self, x, y: fault(*mul(self, x, y)))
    kinds = set()
    for seed in (1, 2, 3):
        got, want = sampled_records(name, seed, 40)
        assert got == want
        assert all(r["status"] == "fail" for r in got)
        kinds |= {w["kind"] for r in got for w in r["witnesses"]}
    assert "multiplicativity" in kinds
    if name != "heisenberg":
        assert "kernel" in kinds
        assert fault is drop_leading or "superadditivity" in kinds


def test_verify_valuation_memory_follows_the_samples(u4):
    """5,000 samples on U_4 at W=16, its generator maps built cold, peak
    below one dense 5,000 x 720 int64 block."""
    t = TruncationSpec(u4, 16)
    assert t.size == 720
    ctx = cli.RunContext(u4, t, 5)
    tracemalloc.start()
    try:
        status, metrics, _ = cli._task_verify_valuation(ctx, {"samples": 5000}, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == "pass" and metrics["checked"] + metrics["skipped"] == 5000
    assert metrics["checked"] > 500
    assert peak < 5000 * 720 * 8


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


def test_main_runs_an_abelian_model_at_low_precision(tmp_path, capsys):
    # at M = 2 the commutator of g_1 and g_2 reads only as >= 3 = omega_1 +
    # omega_2, which an abelian model does not need to decide
    doc = {"p": 3, "model": {"kind": "abelian", "rank": 2}, "omega": ["1", "2"],
           "truncation": {"W": 3, "M": 2}, "seed": 5, "tasks": [
               {"name": "verify-operators", "samples": 4},
               {"name": "control-check", "ideal": {"generators": ["b1"]},
                "subgroup": [0, 1], "expect": "controlled"},
               {"name": "dagger", "ideal": {"generators": ["b1"]}, "depth": 1,
                "expect_cosets": [[0, 0], [1, 0], [2, 0]]}]}
    assert main(["run", write_doc(tmp_path, "low.json", doc)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["status"] for r in records] == ["pass"] * 3


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

    for field, value, message in [
            ("omega", [True, "1"], "omega[0]: expected an integer, got True"),
            ("centre", [2.5, 4], "model.centre[0]: expected an integer, got 2.5"),
            ("centre", "x", "model.centre: expected a list, got str")]:
        doc = abelian_doc([{"name": "moore-det"}])
        (doc["model"] if field == "centre" else doc)[field] = value
        assert main(["run", write_doc(tmp_path, "typed.json", doc)]) == 2
        assert message in capsys.readouterr().err


def test_main_exit_two_when_coordinates_exceed_int64(tmp_path, capsys):
    for field, value, message in [
            ("M", 40, "2^63"),
            # e * omega past int64, from e or from omega
            ("e", 2 ** 63, "e * omega = 9223372036854775808 does not fit in int64"),
            ("omega", [[10 ** 30, 1], "1"], "must be below 2^63"),
            # exponents up to W - 1, refused before the basis is grown
            ("W", 2 ** 62, "M=4 is too small (need M >= 40)"),
            ("W", 2 ** 63, "uses exponents up to 9223372036854775807")]:
        doc = {"p": 3, "model": {"kind": "abelian", "rank": 2}, "omega": ["1", "1"],
               "truncation": {"W": 4, "M": 4},
               "tasks": [{"name": "verify-valuation"}]}
        (doc if field == "omega" else doc["truncation"])[field] = value
        assert main(["run", write_doc(tmp_path, "wide.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, (field, err)


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


def test_seeds_outside_64_bits_exit_two(tmp_path, capsys):
    # Pcg32 keeps the low 64 bits: 2^64 + 1 wrote the bytes of seed 1
    for seed, message in [(2 ** 64 + 1, f"seed: must be <= {2 ** 64 - 1}"),
                          (-5, "seed: must be >= 0")]:
        doc = abelian_doc([{"name": "verify-valuation", "samples": 5}])
        doc["seed"] = seed
        path = write_doc(tmp_path, "seed.json", doc)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(doc)
        assert main(["run", path]) == 2
        assert message in capsys.readouterr().err
    path = write_doc(tmp_path, "ok.json", abelian_doc([{"name": "moore-det"}]))
    for seed, message in [(2 ** 64, f"--seed: must be <= {2 ** 64 - 1}"),
                          (-5, "--seed: must be >= 0")]:
        assert main(["run", path, "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_config(parse_config(abelian_doc([{"name": "moore-det"}])), seed=seed)
    # the largest seed still runs
    assert main(["run", path, "--seed", str(2 ** 64 - 1)]) == 0


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


@pytest.mark.parametrize("case,message", [
    ([2.5, 2, 0], "cases[0].p: expected an integer, got 2.5"),
    ([True, 2, 0], "cases[0].p: expected an integer, got True"),
    (["x", 2, 0], "cases[0].p: expected an integer, got 'x'"),
    ([4, 2, 0], "cases[0].p: must be prime, got 4"),
    ([1, 2, 0], "cases[0].p: must be >= 2, got 1"),
    ([2, 0, 0], "cases[0].m: must be >= 1, got 0"),
    ([2, 2.0, 0], "cases[0].m: expected an integer, got 2.0"),
    ([2, 2, -1], "cases[0].r: must be >= 0, got -1"),
    ([2, 2, None], "cases[0].r: expected an integer, got None"),
])
def test_moore_det_cases_are_typed(case, message):
    cfg = parse_config(abelian_doc([{"name": "moore-det", "cases": [case]}]))
    [rec] = run_config(cfg)
    assert rec["status"] == "fail"
    [w] = rec["witnesses"]
    assert w["kind"] == "error" and w["error"] == "ConfigError"
    assert w["message"] == message


@pytest.mark.parametrize("case,message", [
    ([2, 7, 0], "the cofactor expansion has 7! = 5040 terms, past the budget 4096"),
    ([2, 12, 0], "the cofactor expansion has 12! = 479001600 terms"),
    ([2, 6, 0], "the product of the forms passes the budget of 4096 terms"),
])
def test_moore_det_cases_past_the_budget_fail_fast(case, message):
    # p^m is within the budget of 4096 in each case, but the work is not
    cfg = parse_config(abelian_doc([{"name": "moore-det", "cases": [[2, 2, 0], case]}]))
    start = time.perf_counter()
    [rec] = run_config(cfg)
    assert time.perf_counter() - start < 1
    assert rec["status"] == "fail"
    [w] = rec["witnesses"]
    assert w["kind"] == "error" and w["error"] == "ValueError"
    assert w["message"].startswith(f"moore-det case {case}: {message}")
    # the passing case keeps its scalar
    assert rec["metrics"] == {"cases": 2, "scalars": [1, None]}


@pytest.mark.parametrize("budget,message", [
    (True, "degree_budget: expected an integer, got True"),
    (2.5, "degree_budget: expected an integer, got 2.5"),
    (None, "degree_budget: expected an integer, got None"),
    ([2.5, 1], "degree_budget[0]: expected an integer, got 2.5"),
    ([5, True], "degree_budget[1]: expected an integer, got True"),
    ([1, 2, 3], "degree_budget: cannot read [1, 2, 3] as a rational number"),
    ([1, 0], "degree_budget: "),
    ("x", "degree_budget: "),
    (-1, "degree_budget: must be >= 0, got -1"),
])
def test_degree_budget_is_typed(budget, message):
    cfg = parse_config(abelian_doc([
        {"name": "mahler-reconstruct", "degree_budget": budget,
         "automorphism": {"kind": "linear", "matrix": [[10, 0], [0, 1]]}}]))
    [rec] = run_config(cfg)
    assert rec["status"] == "fail"
    [w] = rec["witnesses"]
    assert w["kind"] == "error" and w["error"] == "ConfigError"
    assert w["message"].startswith(message)


@pytest.mark.parametrize("budget,columns", [(3, 10), ("5/2", 6), ([5, 2], 6)])
def test_degree_budget_forms(budget, columns):
    cfg = parse_config(abelian_doc([
        {"name": "mahler-reconstruct", "degree_budget": budget,
         "automorphism": {"kind": "linear", "matrix": [[10, 0], [0, 1]]}}]))
    [rec] = run_config(cfg)
    assert rec["status"] == "pass" and rec["metrics"]["columns"] == columns


@pytest.mark.parametrize("task,message", [
    ({"name": "control-check", "ideal": {"generators": [5]}, "subgroup": [0, 1]},
     "ideal.generators[0]: expected a string, got 5"),
    ({"name": "dagger", "ideal": {"generators": ["b1", None]}},
     "ideal.generators[1]: expected a string, got None"),
    ({"name": "zalesskii", "ideal": {"generators": [5]}},
     "ideal.generators[0]: expected a string, got 5"),
    ({"name": "induced-filtration", "elements": [5],
      "prime": {"kind": "zero", "central_block": 1}},
     "elements[0]: expected a string, got 5"),
    ({"name": "induced-filtration", "elements": ["b1"],
      "prime": {"kind": "graph", "central_block": 1, "target": 1, "u": 2}},
     "prime.u: expected a string, got 2"),
    ({"name": "mahler-reconstruct",
      "automorphism": {"kind": "linear", "matrix": [[1.5, 0], [0, 1]]}},
     "automorphism.matrix[0][0]: expected an integer, got 1.5"),
    ({"name": "mahler-reconstruct",
      "automorphism": {"kind": "linear", "matrix": [[10, 0], 1]}},
     "automorphism.matrix[1]: expected a list, got int"),
    ({"name": "mahler-reconstruct",
      "automorphism": {"kind": "inner", "element": [1, "2"]}},
     "automorphism.element[1]: expected an integer, got '2'"),
    ({"name": "idempotents", "directions": [True, 0]},
     "directions[0]: expected an integer, got True"),
    ({"name": "control-check", "ideal": {"generators": ["b1"]},
      "subgroup": [0, 1.0]},
     "subgroup[1]: expected an integer, got 1.0"),
    ({"name": "dagger", "ideal": {"generators": ["b1"]},
      "expect_cosets": [[0, 0.5]]},
     "expect_cosets[0][1]: expected an integer, got 0.5"),
])
def test_config_texts_and_entries_are_typed(task, message):
    [rec] = run_config(parse_config(abelian_doc([task])))
    assert rec["status"] == "fail"
    [w] = rec["witnesses"]
    assert w["kind"] == "error" and w["error"] == "ConfigError"
    assert w["message"] == message


def test_zeta_texts_and_entries_are_typed():
    doc = {"p": 3, "model": {"kind": "abelian", "rank": 1}, "omega": ["1"],
           "truncation": {"W": 30, "M": 6}, "tasks": [
               {"name": "zeta", "monomials": [3],
                "automorphism": {"kind": "linear", "matrix": [[10]]}},
               {"name": "zeta", "r_range": [0, "1"],
                "automorphism": {"kind": "linear", "matrix": [[10]]}}]}
    records = run_config(parse_config(doc))
    assert [r["witnesses"][0]["message"] for r in records] == [
        "monomials[0]: expected a string, got 3",
        "r_range[1]: expected an integer, got '1'"]


def test_zeta_with_an_empty_r_range_fails(tmp_path, capsys):
    # no r means no approximant and no measurement, which must not pass
    doc = {"p": 3, "model": {"kind": "abelian", "rank": 1}, "omega": ["1"],
           "truncation": {"W": 30, "M": 6}, "tasks": [
               {"name": "zeta", "r_range": [],
                "automorphism": {"kind": "linear", "matrix": [[10]]}}]}
    [rec] = run_config(parse_config(doc))
    assert rec["status"] == "fail" and rec["metrics"] == {}
    assert rec["witnesses"] == [{"kind": "error", "error": "ValueError",
                                 "message": "r_range is empty"}]
    assert main(["run", write_doc(tmp_path, "zeta.json", doc)]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


# Every field each task reads, with a task that passes as given, and one
# misspelled field per object, which no value makes valid.  A path names a
# field of the task, or one of the config itself (`CONFIG_FIELDS`).
RANK3 = {"p": 3, "model": {"kind": "abelian", "rank": 3, "centre": [0, 0, 4]},
         "omega": ["1", "1", "1"], "truncation": {"W": 5, "M": 4}, "seed": 3}
RANK1 = {"p": 3, "model": {"kind": "abelian", "rank": 1}, "omega": ["1"],
         "truncation": {"W": 30, "M": 6}, "seed": 3}
HEIS = {"p": 5, "model": {"kind": "unitriangular", "size": 3,
                          "generators": [[[1, 5, 0], [0, 1, 0], [0, 0, 1]],
                                         [[1, 0, 0], [0, 1, 5], [0, 0, 1]],
                                         [[1, 0, 5], [0, 1, 0], [0, 0, 1]]],
                          "centre": [3, 3, 0]},
        "omega": ["1", "1", "2"], "truncation": {"W": 4, "M": 3}, "seed": 3}
PRIME = {"kind": "graph", "central_block": 2, "target": 1, "u": "b2^2"}
SWEEP = [
    (RANK3, {"name": "verify-operators", "samples": 2}, ["samples", "sampels"]),
    (RANK3, {"name": "verify-valuation", "samples": 5},
     ["samples", "model.kind", "model.rank", "model.centre",
      "model.centre[0]", "omega", "omega[0]", "sample", "seeed", "model.rnak",
      "truncation.w"]),
    (HEIS, {"name": "verify-valuation", "samples": 2},
     ["model.size", "model.generators", "model.generators[0]",
      "model.generators[0][0]", "model.generators[0][0][0]", "omega[2]"]),
    (RANK3, {"name": "mahler-reconstruct", "degree_budget": 2,
             "automorphism": {"kind": "linear",
                              "matrix": [[10, 0, 0], [0, 1, 0], [0, 0, 1]]}},
     ["automorphism", "automorphism.kind", "automorphism.matrix",
      "automorphism.matrix[0]", "automorphism.matrix[0][0]", "degree_budget",
      "degree_bugdet"]),
    (RANK3, {"name": "mahler-reconstruct",
             "automorphism": {"kind": "inner", "element": [1, 0, 0]}},
     ["automorphism.element", "automorphism.element[0]"]),
    (RANK3, {"name": "idempotents", "directions": [1, 0, 0], "samples": 2},
     ["directions", "directions[0]", "samples", "direction"]),
    (RANK3, {"name": "control-check", "subgroup": [0, 1, 1],
             "ideal": {"generators": ["b1"], "sided": "right"},
             "expect": "controlled"},
     ["ideal", "ideal.generators", "ideal.generators[0]", "ideal.sided",
      "subgroup", "subgroup[0]", "expect", "subgrup", "ideal.sidde"]),
    (RANK3, {"name": "dagger", "ideal": {"generators": ["b1"]}, "depth": 1,
             "expect_cosets": [[0, 0, 0], [1, 0, 0], [2, 0, 0]]},
     ["ideal", "ideal.generators", "ideal.generators[0]", "depth",
      "expect_cosets", "expect_cosets[0]", "expect_cosets[0][0]",
      "budgets.dagger", "deph", "ideal.generator", "budgets.dager"]),
    (RANK3, {"name": "induced-filtration", "prime": dict(PRIME),
             "elements": ["b1", "b3"], "expect": ["2", "1"]},
     ["prime", "prime.kind", "prime.central_block", "prime.target", "prime.u",
      "elements", "elements[0]", "expect", "expect[0]", "expected",
      "prime.taget"]),
    (RANK3, {"name": "completely-prime-probe", "prime": dict(PRIME),
             "samples": 5},
     ["prime", "prime.kind", "prime.central_block", "samples", "sample"]),
    # a budget that set the probe's samples once, now unknown
    (RANK3, {"name": "completely-prime-probe", "prime": dict(PRIME)},
     ["budgets.samples"]),
    (RANK3, {"name": "zalesskii", "ideal": {"generators": ["b3"]}, "depth": 1,
             "expect": "skipped"},
     ["ideal", "ideal.generators", "ideal.generators[0]", "depth", "expect",
      "budgets.dagger", "dept", "ideal.sided"]),
    (RANK3, {"name": "moore-det", "cases": [[2, 2, 0]]},
     ["cases", "cases[0]", "cases[0][0]", "cases[0][1]", "cases[0][2]", "case"]),
    (RANK1, {"name": "zeta", "r_range": [0, 1], "monomials": ["b1"],
             "automorphism": {"kind": "linear", "matrix": [[10]]}},
     ["automorphism", "automorphism.kind", "automorphism.matrix",
      "automorphism.matrix[0]", "automorphism.matrix[0][0]", "r_range",
      "r_range[0]", "monomials", "monomials[0]", "r_rang", "automorphism.matirx",
      "automorphism.element"]),
    (RANK3, {"name": "completely-prime-probe",
             "prime": {"kind": "zero", "central_block": 2}},
     ["prime.u"]),
]
WRONG = {"bool": True, "float": 2.5, "str": "x", "list": [], "null": None}
# values that are right for a field: a string where a series text or a
# filtration value is read, a list where a list is read and may be empty
# (a model list of the wrong length is a model error, also exit 2), and
# null where null means the field is absent
ALLOWED = {
    "ideal.generators": {"list"}, "elements": {"list"}, "cases": {"list"},
    "expect_cosets": {"list", "null"}, "expect_cosets[0]": {"list"},
    "r_range": {"list"}, "monomials": {"null"}, "expect": {"null"},
    "expect[0]": {"str"}, "model.centre": {"list", "null"},
    "model.generators[0]": {"list"},
    "model.generators[0][0]": {"list"}, "omega": {"list"},
}
# fields whose wrong values the task would reject on its own, or take for a
# mismatch; the config check must name them instead
NAMED = {"ideal.sided", "expect[0]"}
# (task, field) for the fields of a task entry that its object does not
# have: the task would ignore them, so it must name them as unknown
UNKNOWN = {
    ("verify-operators", "sampels"), ("verify-valuation", "sample"),
    ("mahler-reconstruct", "degree_bugdet"), ("idempotents", "direction"),
    ("control-check", "subgrup"), ("control-check", "ideal.sidde"),
    ("dagger", "deph"), ("dagger", "ideal.generator"),
    ("induced-filtration", "expected"), ("induced-filtration", "prime.taget"),
    ("completely-prime-probe", "sample"), ("completely-prime-probe", "prime.u"),
    ("zalesskii", "dept"), ("zalesskii", "ideal.sided"), ("moore-det", "case"),
    ("zeta", "r_rang"), ("zeta", "automorphism.matirx"),
    ("zeta", "automorphism.element"),
}
# fields of the config itself, not of its task
CONFIG_FIELDS = ("budgets", "model", "omega", "truncation", "seeed")


def _sweep_cases():
    for base, task, fields in SWEEP:
        for field in fields:
            for kind in WRONG:
                if kind in ALLOWED.get(field, ()):
                    continue
                yield pytest.param(base, task, field, kind,
                                   id=f"{task['name']}-{field}-{kind}")


def _set(doc, field, value):
    """Set a field of the task, or of the config itself."""
    keys = [int(k) if k.isdigit() else k
            for k in field.replace("[", ".").replace("]", "").split(".")]
    target = doc if keys[0] in CONFIG_FIELDS else doc["tasks"][0]
    if keys[0] == "budgets":
        target = target.setdefault("budgets", {})
        keys = keys[1:]
    for k in keys[:-1]:
        target = target[k]
    target[keys[-1]] = value


@pytest.mark.parametrize("base,task", [(b, t) for b, t, _ in SWEEP],
                         ids=[t["name"] if b["model"]["kind"] == "abelian"
                              else f"{t['name']}-{b['model']['kind']}"
                              for b, t, _ in SWEEP])
def test_sweep_bases_pass(base, task):
    doc = json.loads(json.dumps(dict(base, tasks=[task])))
    [rec] = run_config(parse_config(doc))
    assert rec["status"] == "pass", rec


@pytest.mark.parametrize("base,task,field,kind", list(_sweep_cases()))
def test_malformed_field_is_rejected(base, task, field, kind):
    doc = json.loads(json.dumps(dict(base, tasks=[task])))
    _set(doc, field, WRONG[kind])
    try:
        records = run_config(parse_config(doc))
    except ConfigError as exc:
        assert field in str(exc)
        return
    [rec] = records
    assert rec["status"] == "fail", rec
    [w] = rec["witnesses"]
    assert w["kind"] == "error", rec
    if field in NAMED:
        assert w["error"] == "ConfigError" and w["message"].startswith(field), rec
    if (task["name"], field) in UNKNOWN:
        assert w["message"].startswith(f"{field}: unknown field"), rec


GOLDEN = Path(__file__).parent / "cli_golden"
GOLDEN_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", ["jsonl", "table"])
@pytest.mark.parametrize("name", sorted(GOLDEN_CODES))
def test_main_reproduces_golden_output(tmp_path, name, fmt):
    """`iwacalc run` on each config in tests/cli_golden (the five benchmark
    configs at seed 1, a class-3 U_4 config, and zeta tasks with a zero test
    series and a repeated r beside a passing one) writes the saved bytes and
    exit code in both formats.  A change that alters the output
    on purpose rewrites the files with `iwacalc run NAME.json --out
    NAME.FMT --format FMT` from tests/cli_golden."""
    out = tmp_path / f"{name}.{fmt}"
    rc = main(["run", str(GOLDEN / f"{name}.json"), "--out", str(out),
               "--format", fmt])
    assert rc == GOLDEN_CODES[name][fmt]
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_python_m_iwacalc_runs_a_golden_config():
    """`python -m iwacalc run` in a fresh interpreter, with the package on
    PYTHONPATH, prints the saved bytes of a golden config and exits with its
    code."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "iwacalc", "run", "tests/cli_golden/zeta_errors.json"],
        cwd=root, env=env, capture_output=True, timeout=120)
    assert done.returncode == GOLDEN_CODES["zeta_errors"]["jsonl"] == 1
    assert done.stdout == (GOLDEN / "zeta_errors.jsonl").read_bytes()
