"""Command line runner: a JSON config in, one JSON record per task out.

Tasks run one after another and records are emitted in config order.
Each task draws randomness from a stream fixed by its position in the
config, so filtered runs reproduce the same bytes for the tasks they
include.  Record shape: {"task", "status", "metrics", "witnesses"} with
status one of pass / fail / skipped; the exit code is 0 iff nothing
failed."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .control import (
    CentralPrimeSpec, _random_series, completely_prime_probe, control_witnesses,
    dagger_approx, ideal_span, induced_filtration, is_controlled_by,
    zalesskii_check,
)
from .groups import (
    Automorphism, GroupModel, ModelError, load_model, parse_fraction,
    subgroup_from_exponents,
)
from .moore import ZetaExperiment, moore_det_check, zeta_convergence
from .operators import (
    coset_idempotent, divided_power, divided_power_map, operator_degree,
    reconstruct_aut,
)
from .padic import (
    AtLeast, PrecisionError, comb_mod, ge_provable, mi_range, multi_binom_mod_p,
)
from .rng import Pcg32
from .series import (
    TruncatedSeries, TruncationSpec, aut_extend, format_series, group_embed,
    parse_series,
)

TASK_NAMES = (
    "verify-operators",
    "verify-valuation",
    "mahler-reconstruct",
    "idempotents",
    "control-check",
    "dagger",
    "induced-filtration",
    "completely-prime-probe",
    "zalesskii",
    "moore-det",
    "zeta",
)


class ConfigError(ValueError):
    """Config rejection with the offending field path in the message."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _expect_dict(v, path):
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected an object, got {type(v).__name__}")
    return v


def _expect_list(v, path):
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list, got {type(v).__name__}")
    return v


def _expect_int(v, path, minimum=None):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {v}")
    return v


def _require(doc, key, path=""):
    if key not in doc:
        full = f"{path}.{key}" if path else key
        raise ConfigError(f"missing required field '{full}'")
    return doc[key]


def parse_config(doc) -> dict:
    """Validate a raw config mapping; errors name the offending field."""
    _expect_dict(doc, "top level")
    p = _expect_int(_require(doc, "p"), "p", 2)
    model_cfg = dict(_expect_dict(_require(doc, "model"), "model"))
    if "kind" not in model_cfg:
        raise ConfigError("missing required field 'model.kind'")
    omega = _expect_list(_require(doc, "omega"), "omega")
    trunc_cfg = _expect_dict(_require(doc, "truncation"), "truncation")
    W = _expect_int(_require(trunc_cfg, "W", "truncation"), "truncation.W", 1)
    M = _expect_int(_require(trunc_cfg, "M", "truncation"), "truncation.M", 1)
    e = _expect_int(trunc_cfg.get("e", 1), "truncation.e", 1)
    tasks_raw = _expect_list(_require(doc, "tasks"), "tasks")
    if not tasks_raw:
        raise ConfigError("tasks: must not be empty")
    tasks = []
    for i, item in enumerate(tasks_raw):
        _expect_dict(item, f"tasks[{i}]")
        if "name" not in item:
            raise ConfigError(f"missing required field 'tasks[{i}].name'")
        name = item["name"]
        if name not in TASK_NAMES:
            known = ", ".join(TASK_NAMES)
            raise ConfigError(f"tasks[{i}].name: unknown task {name!r} "
                              f"(known: {known})")
        params = {k: v for k, v in item.items() if k != "name"}
        tasks.append((name, params))
    seed = _expect_int(doc.get("seed", 0), "seed", 0)
    budgets = _expect_dict(doc.get("budgets", {}), "budgets")
    model_cfg.update({"p": p, "precision": M, "omega": omega, "e": e})
    return {"p": p, "model": model_cfg, "W": W, "seed": seed,
            "budgets": dict(budgets), "tasks": tasks}


def load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(doc)


@dataclass
class RunContext:
    model: GroupModel
    trunc: TruncationSpec
    seed: int
    budgets: dict = field(default_factory=dict)


def build_context(cfg: dict, seed: Optional[int] = None) -> RunContext:
    model = load_model(cfg["model"])
    trunc = TruncationSpec(model, cfg["W"])
    return RunContext(model, trunc,
                      cfg["seed"] if seed is None else seed, cfg["budgets"])


# ---------------------------------------------------------------------------
# Shared handler helpers
# ---------------------------------------------------------------------------

def _build_automorphism(model: GroupModel, spec, path: str) -> Automorphism:
    _expect_dict(spec, path)
    kind = spec.get("kind")
    if kind == "identity":
        return Automorphism.identity(model)
    if kind == "inner":
        coords = _expect_list(_require(spec, "element", path), f"{path}.element")
        return Automorphism.inner(model, model.element(coords))
    if kind == "linear":
        rows = _expect_list(_require(spec, "matrix", path), f"{path}.matrix")
        return Automorphism.linear_on_log(model, rows)
    raise ConfigError(f"{path}.kind: expected identity, inner or linear, "
                      f"got {kind!r}")


def _build_prime(ctx: RunContext, spec, path: str) -> CentralPrimeSpec:
    _expect_dict(spec, path)
    kind = _require(spec, "kind", path)
    block = _expect_int(_require(spec, "central_block", path),
                        f"{path}.central_block", 1)
    if kind == "zero":
        return CentralPrimeSpec(ctx.trunc, "zero", block)
    if kind == "graph":
        target = _expect_int(_require(spec, "target", path), f"{path}.target", 1)
        u_text = spec.get("u", "0")
        u = parse_series(ctx.trunc, u_text)
        return CentralPrimeSpec(ctx.trunc, "graph", block, target - 1, u)
    raise ConfigError(f"{path}.kind: expected zero or graph, got {kind!r}")


def _build_ideal(ctx: RunContext, spec, path: str):
    _expect_dict(spec, path)
    texts = _expect_list(_require(spec, "generators", path),
                         f"{path}.generators")
    gens = [parse_series(ctx.trunc, t) for t in texts]
    sided = spec.get("sided", "right")
    return ideal_span(ctx.trunc, gens, sided)


def _val_str(v) -> str:
    return repr(v) if isinstance(v, AtLeast) else str(v)


def _depth_and_budget(ctx: RunContext, params: dict) -> tuple[int, int]:
    return (_expect_int(params.get("depth", 1), "depth", 1),
            _expect_int(ctx.budgets.get("dagger", 4096), "budgets.dagger", 1))


def _random_basis_key(trunc: TruncationSpec, rng: Pcg32):
    return trunc.basis[rng.below(trunc.size)]


# ---------------------------------------------------------------------------
# Task handlers
# ---------------------------------------------------------------------------

def _task_verify_operators(ctx: RunContext, params: dict, stream: int):
    t, model = ctx.trunc, ctx.model
    p = model.p
    samples = _expect_int(params.get("samples", 20), "samples", 0)
    rng = Pcg32(ctx.seed, stream=stream)
    witnesses = []
    pairs = eigen = degrees = 0
    # operators are compared by their images of every basis monomial
    eye = np.eye(t.size, dtype=np.int64)
    for _ in range(samples):
        a = _random_basis_key(t, rng)
        b = _random_basis_key(t, rng)
        lhs = divided_power_map(t, a).apply(divided_power_map(t, b).apply(eye))
        rhs = np.zeros_like(eye)
        for c in mi_range(tuple(x + y for x, y in zip(a, b))):
            if any(v < max(x, y) for v, x, y in zip(c, a, b)):
                continue
            if c not in t.index:
                continue
            coeff = 1
            for v, x, y in zip(c, a, b):
                coeff = coeff * comb_mod(v, x, p) * comb_mod(x, x + y - v, p) % p
            if coeff:
                rhs = (rhs + coeff * divided_power_map(t, c).apply(eye)) % p
        pairs += 1
        if not np.array_equal(lhs, rhs):
            witnesses.append({"kind": "product-rule", "alpha": list(a),
                              "beta": list(b)})
    for _ in range(samples):
        g = model.sample_element(rng)
        emb = group_embed(t, g)
        alpha = _random_basis_key(t, rng)
        lam = multi_binom_mod_p(g.coords, alpha)
        eigen += 1
        diff = divided_power(t, alpha, emb) - emb.scale(lam)
        # the dropped tail of embed(g) re-enters below the cutoff under
        # del^(alpha); equality holds mod F at the alpha-shifted cutoff
        if not ge_provable(diff.valuation(), t.cutoff - t.weight(alpha)):
            witnesses.append({"kind": "eigen", "alpha": list(alpha),
                              "element": [c.value() for c in g.coords]})
    for a in t.basis:
        if not any(a):
            continue
        degrees += 1
        report = operator_degree(t, divided_power_map(t, a))
        if not ge_provable(report.value(), -t.weight(a)):
            witnesses.append({"kind": "degree", "alpha": list(a),
                              "value": _val_str(report.value())})
    status = "pass" if not witnesses else "fail"
    return status, {"pairs": pairs, "eigen": eigen, "degrees": degrees}, witnesses


def _task_verify_valuation(ctx: RunContext, params: dict, stream: int):
    t = ctx.trunc
    samples = _expect_int(params.get("samples", 100), "samples", 0)
    rng = Pcg32(ctx.seed, stream=stream)
    witnesses = []
    checked = skipped = 0
    for _ in range(samples):
        x = _random_series(t, rng)
        y = _random_series(t, rng)
        wx, wy = x.valuation(), y.valuation()
        if isinstance(wx, AtLeast) or isinstance(wy, AtLeast):
            skipped += 1
            continue
        if Fraction(wx) + Fraction(wy) >= t.cutoff:
            skipped += 1
            continue
        checked += 1
        wxy = (x * y).valuation()
        if isinstance(wxy, AtLeast) or Fraction(wxy) != Fraction(wx) + Fraction(wy):
            witnesses.append({"kind": "multiplicativity",
                              "x": format_series(x), "y": format_series(y),
                              "got": _val_str(wxy),
                              "expected": str(Fraction(wx) + Fraction(wy))})
        ws = (x + y).valuation()
        floor = min(Fraction(wx), Fraction(wy))
        if not isinstance(ws, AtLeast) and Fraction(ws) < floor:
            witnesses.append({"kind": "ultrametric",
                              "x": format_series(x), "y": format_series(y),
                              "got": _val_str(ws), "floor": str(floor)})
    status = "pass" if not witnesses else "fail"
    return status, {"checked": checked, "skipped": skipped}, witnesses


def _task_mahler_reconstruct(ctx: RunContext, params: dict, stream: int):
    t = ctx.trunc
    phi = _build_automorphism(ctx.model, _require(params, "automorphism"),
                              "automorphism")
    budget = parse_fraction(params.get("degree_budget", 2))
    images = reconstruct_aut(t, phi, budget)
    witnesses = []
    for a, got in images.items():
        want = aut_extend(t, phi, t.monomial(a))
        if want != got:
            witnesses.append({"kind": "column", "monomial": list(a),
                              "want": format_series(want),
                              "got": format_series(got)})
    status = "pass" if not witnesses else "fail"
    return status, {"columns": len(images), "degree_budget": str(budget)}, witnesses


def _task_idempotents(ctx: RunContext, params: dict, stream: int):
    t, model = ctx.trunc, ctx.model
    p = model.p
    directions = _expect_list(_require(params, "directions"), "directions")
    H = subgroup_from_exponents(model, directions)
    mask = [i for i, n in enumerate(directions) if n == 1]
    if not mask:
        raise ConfigError("directions: at least one direction must be 1")
    samples = _expect_int(params.get("samples", 20), "samples", 0)
    witnesses = []
    idems = [(nu, coset_idempotent(t, H, nu))
             for nu in mi_range((p - 1,) * len(mask))]
    # operators are compared by their images of every basis monomial
    eye = np.eye(t.size, dtype=np.int64)
    total = np.zeros_like(eye)
    for nu, e in idems:
        image = e.apply(eye)
        if not np.array_equal(e.apply(image), image):
            witnesses.append({"kind": "idempotent", "nu": list(nu)})
        total = (total + image) % p
    if not np.array_equal(total, eye):
        witnesses.append({"kind": "partition-of-unity"})
    rng = Pcg32(ctx.seed, stream=stream)
    actions = 0
    # the coset projection has degree -(p-1)*omega_i per masked direction,
    # so on truncated embeds the indicator action holds below a shifted cutoff
    bound = t.cutoff - (p - 1) * sum(t.omega[i] for i in mask)
    for _ in range(samples):
        g = model.sample_element(rng)
        emb = group_embed(t, g)
        resid = tuple(c.value() % p for i, c in enumerate(g.coords) if i in mask)
        for nu, e in idems:
            expect = emb if nu == resid else t.zero()
            actions += 1
            diff = t.from_vector(e.apply(emb.vector())) - expect
            if not ge_provable(diff.valuation(), bound):
                witnesses.append({"kind": "indicator", "nu": list(nu),
                                  "element": [c.value() for c in g.coords]})
    status = "pass" if not witnesses else "fail"
    return status, {"cosets": len(idems), "actions": actions}, witnesses


def _task_control_check(ctx: RunContext, params: dict, stream: int):
    I = _build_ideal(ctx, _require(params, "ideal"), "ideal")
    exps = _expect_list(_require(params, "subgroup"), "subgroup")
    H = subgroup_from_exponents(ctx.model, exps)
    found = control_witnesses(I, H)
    observed = "controlled" if not found else "not-controlled"
    expect = params.get("expect", "controlled")
    if expect not in ("controlled", "not-controlled"):
        raise ConfigError(f"expect: unknown value {expect!r}")
    status = "pass" if observed == expect else "fail"
    witnesses = [] if status == "pass" else found[:5]
    return status, {"dim": I.dim, "observed": observed, "expect": expect}, witnesses


def _task_dagger(ctx: RunContext, params: dict, stream: int):
    I = _build_ideal(ctx, _require(params, "ideal"), "ideal")
    depth, budget = _depth_and_budget(ctx, params)
    cosets = dagger_approx(I, depth, budget)
    metrics = {"count": len(cosets), "depth": depth, "dim": I.dim}
    witnesses = [{"kind": "coset", "lam": list(lam)} for lam in cosets]
    expect = params.get("expect_cosets")
    if expect is None:
        return "pass", metrics, witnesses
    want = sorted(tuple(int(v) for v in row) for row in
                  _expect_list(expect, "expect_cosets"))
    status = "pass" if want == cosets else "fail"
    return status, metrics, witnesses


def _task_induced_filtration(ctx: RunContext, params: dict, stream: int):
    P = _build_prime(ctx, _require(params, "prime"), "prime")
    texts = _expect_list(_require(params, "elements"), "elements")
    expect = params.get("expect")
    if expect is not None:
        expect = _expect_list(expect, "expect")
        if len(expect) != len(texts):
            raise ConfigError("expect: length must match elements")
    values = []
    witnesses = []
    for k, text in enumerate(texts):
        f = induced_filtration(parse_series(ctx.trunc, text), P)
        values.append(_val_str(f))
        if expect is not None and _val_str(f) != str(expect[k]):
            witnesses.append({"kind": "filtration", "element": text,
                              "got": _val_str(f), "expected": str(expect[k])})
    status = "pass" if not witnesses else "fail"
    return status, {"values": values, "kind": P.kind}, witnesses


def _task_completely_prime_probe(ctx: RunContext, params: dict, stream: int):
    P = _build_prime(ctx, _require(params, "prime"), "prime")
    if "samples" in params:
        samples = _expect_int(params["samples"], "samples", 0)
    else:
        samples = _expect_int(ctx.budgets.get("samples", 100), "budgets.samples", 1)
    report = completely_prime_probe(P, samples, seed=ctx.seed + stream)
    metrics = {k: report[k] for k in
               ("samples", "checked", "skipped", "kernel_checked", "violations")}
    return report["status"], metrics, report["witnesses"]


def _task_zalesskii(ctx: RunContext, params: dict, stream: int):
    spec = _expect_dict(_require(params, "ideal"), "ideal")
    texts = _expect_list(_require(spec, "generators", "ideal"),
                         "ideal.generators")
    gens = [parse_series(ctx.trunc, t) for t in texts]
    depth, budget = _depth_and_budget(ctx, params)
    report = zalesskii_check(ctx.trunc, gens, depth=depth, budget=budget)
    observed = report["status"]
    metrics = {"observed": observed, "dim": report["dim"],
               "faithful": report["faithful"]}
    expect = params.get("expect")
    if expect is not None:
        if expect not in ("controlled", "not-controlled", "skipped"):
            raise ConfigError(f"expect: unknown value {expect!r}")
        status = "pass" if observed == expect else "fail"
    else:
        status = {"controlled": "pass", "not-controlled": "fail",
                  "skipped": "skipped"}[observed]
    witnesses = report.get("witnesses", [])
    if observed == "skipped":
        witnesses = [{"kind": "dagger-coset", "lam": list(lam)}
                     for lam in report["dagger"]]
    return status, metrics, witnesses


def _task_moore_det(ctx: RunContext, params: dict, stream: int):
    cases = params.get("cases", [[2, 2, 0], [2, 2, 1], [3, 2, 0], [2, 3, 0]])
    cases = _expect_list(cases, "cases")
    witnesses = []
    scalars = []
    for k, case in enumerate(cases):
        row = _expect_list(case, f"cases[{k}]")
        if len(row) != 3:
            raise ConfigError(f"cases[{k}]: expected [p, m, r]")
        report = moore_det_check(int(row[0]), int(row[1]), int(row[2]))
        scalars.append(report["scalar"])
        if report["status"] != "pass":
            witnesses.append({k: report[k] for k in
                              ("p", "m", "r", "factorization_ok", "degree_ok")})
    status = "pass" if not witnesses else "fail"
    return status, {"cases": len(cases), "scalars": scalars}, witnesses


def _task_zeta(ctx: RunContext, params: dict, stream: int):
    phi = _build_automorphism(ctx.model, _require(params, "automorphism"),
                              "automorphism")
    r_range = params.get("r_range", [0, 1])
    monomials = params.get("monomials")
    tests = None
    if monomials is not None:
        tests = [parse_series(ctx.trunc, t)
                 for t in _expect_list(monomials, "monomials")]
    exp = ZetaExperiment(ctx.trunc, phi, r_range, tests)
    report = zeta_convergence(exp)
    metrics = {
        "lambda": report["lambda"], "m": report["m"],
        "monotone_ok": report["monotone_ok"],
        "vdet_checked": report["vdet_checked"],
        "cramer_checked": report["cramer_checked"],
        "asymptotics_verified": report["asymptotics_verified"],
        "asymptotics_skipped": report["asymptotics_skipped"],
        "D": [{"i": r["i"], "r": r["r"], "D": r["D"]}
              for r in report["records"]],
    }
    return report["status"], metrics, report["violations"]


HANDLERS = {
    "verify-operators": _task_verify_operators,
    "verify-valuation": _task_verify_valuation,
    "mahler-reconstruct": _task_mahler_reconstruct,
    "idempotents": _task_idempotents,
    "control-check": _task_control_check,
    "dagger": _task_dagger,
    "induced-filtration": _task_induced_filtration,
    "completely-prime-probe": _task_completely_prime_probe,
    "zalesskii": _task_zalesskii,
    "moore-det": _task_moore_det,
    "zeta": _task_zeta,
}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_config(cfg: dict, only: Optional[Sequence[str]] = None,
               seed: Optional[int] = None) -> list[dict]:
    """Run the config's tasks and return their records in config order.

    `only` filters by task name but keeps each task's original position as
    its RNG stream.  Task-level errors become fail records; config-level
    errors raise."""
    ctx = build_context(cfg, seed)
    if only:
        unknown = set(only) - set(TASK_NAMES)
        if unknown:
            raise ConfigError(f"--task: unknown task {sorted(unknown)[0]!r}")
    records = []
    for pos, (name, params) in enumerate(cfg["tasks"]):
        if only and name not in only:
            continue
        try:
            status, metrics, witnesses = HANDLERS[name](ctx, params, pos)
        except (ConfigError, ModelError, PrecisionError, ValueError,
                ZeroDivisionError) as exc:
            status = "fail"
            metrics = {}
            witnesses = [{"kind": "error", "error": type(exc).__name__,
                          "message": str(exc)}]
        records.append({"task": name, "status": status,
                        "metrics": metrics, "witnesses": witnesses})
    return records


def render_jsonl(records: Sequence[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def render_table(records: Sequence[dict]) -> str:
    rows = []
    for r in records:
        metrics = ",".join(f"{k}={r['metrics'][k]}" for k in sorted(r["metrics"]))
        rows.append((r["task"], r["status"], metrics,
                     str(len(r["witnesses"]))))
    headers = ("TASK", "STATUS", "METRICS", "WITNESSES")
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="iwacalc",
        description="exact computations in truncated Iwasawa algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the tasks in a JSON config")
    run.add_argument("config", help="path to the JSON config")
    run.add_argument("--task", action="append", default=None,
                     help="run only tasks with this name (repeatable)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--out", default=None, help="write output here instead "
                     "of stdout")
    run.add_argument("--format", choices=("jsonl", "table"), default="jsonl")
    args = parser.parse_args(argv)

    try:
        cfg = load_config_file(args.config)
        records = run_config(cfg, only=args.task, seed=args.seed)
    except (ConfigError, ModelError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = (render_jsonl if args.format == "jsonl" else render_table)(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r["status"] != "fail" for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
