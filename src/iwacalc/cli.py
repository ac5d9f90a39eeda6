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
from typing import Optional, Sequence

import numpy as np

from .control import (
    _SIDES, CentralPrimeSpec, completely_prime_probe, control_witnesses,
    dagger_approx, ideal_span, induced_filtration, random_pairs, zalesskii_check,
)
from .groups import (
    Automorphism, GroupModel, ModelError, load_model, parse_fraction,
    subgroup_from_exponents,
)
from .linalg import sum_entries
from .moore import ZetaExperiment, moore_det_check, zeta_convergence
from .operators import (
    DegreeReport, _embed_valuations, _product_rule_failures, _rows_hit, _sample_blocks,
    coset_idempotents, degree_arrays, divided_power_maps, reconstruct_aut,
)
from .padic import PrecisionError, format_val, is_prime, multi_binom_mod_p
from .rng import MASK64, Pcg32
from .series import (
    SparseMap, TruncatedSeries, TruncationSpec, aut_extend, format_row,
    format_series, parse_series,
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


def _expect_int(v, path, minimum=None, maximum=None):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {v}")
    return v


def _expect_str(v, path):
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {v!r}")
    return v


def _expect_int_list(v, path):
    return [_expect_int(x, f"{path}[{i}]")
            for i, x in enumerate(_expect_list(v, path))]


def _expect_fraction(v, path):
    """An integer, a "num/den" text or an integer pair [num, den]."""
    if isinstance(v, list):
        v = _expect_int_list(v, path)
    elif not isinstance(v, str):
        v = _expect_int(v, path)
    try:
        return parse_fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _expect_keys(doc: dict, known: Sequence[str], path: str = "") -> dict:
    """doc, all of whose keys are known: a misspelled field is an error,
    not a field that silently keeps its default."""
    for key in doc:
        if key not in known:
            full = f"{path}.{key}" if path else key
            raise ConfigError(f"{full}: unknown field (known: {', '.join(known)})")
    return doc


def _require(doc, key, path=""):
    if key not in doc:
        full = f"{path}.{key}" if path else key
        raise ConfigError(f"missing required field '{full}'")
    return doc[key]


def _parse_model(doc: dict) -> dict:
    """The model block, with the fields its kind reads type-checked."""
    out = dict(doc)
    kind = _expect_str(_require(doc, "kind", "model"), "model.kind")
    if kind == "abelian":
        _expect_keys(doc, ("kind", "rank", "centre"), "model")
        out["rank"] = _expect_int(_require(doc, "rank", "model"), "model.rank", 1)
    elif kind == "unitriangular":
        _expect_keys(doc, ("kind", "size", "generators", "centre"), "model")
        out["size"] = _expect_int(_require(doc, "size", "model"), "model.size", 1)
        gens = _expect_list(_require(doc, "generators", "model"), "model.generators")
        if not gens:
            raise ConfigError("model.generators: must not be empty")
        out["generators"] = [
            [_expect_int_list(row, f"model.generators[{i}][{r}]")
             for r, row in enumerate(_expect_list(g, f"model.generators[{i}]"))]
            for i, g in enumerate(gens)]
    else:
        raise ConfigError(f"model.kind: expected abelian or unitriangular, "
                          f"got {kind!r}")
    if doc.get("centre") is not None:
        out["centre"] = _expect_int_list(doc["centre"], "model.centre")
    return out


def parse_config(doc) -> dict:
    """Validate a raw config mapping; errors name the offending field."""
    _expect_keys(_expect_dict(doc, "top level"),
                 ("p", "model", "omega", "truncation", "seed", "budgets", "tasks"))
    p = _expect_int(_require(doc, "p"), "p", 2)
    model_cfg = _parse_model(_expect_dict(_require(doc, "model"), "model"))
    omega = [_expect_fraction(w, f"omega[{i}]") for i, w in
             enumerate(_expect_list(_require(doc, "omega"), "omega"))]
    trunc_cfg = _expect_keys(_expect_dict(_require(doc, "truncation"), "truncation"),
                             ("W", "M", "e"), "truncation")
    W = _expect_int(_require(trunc_cfg, "W", "truncation"), "truncation.W", 1)
    M = _expect_int(_require(trunc_cfg, "M", "truncation"), "truncation.M", 1)
    e = _expect_int(trunc_cfg.get("e", 1), "truncation.e", 1)
    tasks_raw = _expect_list(_require(doc, "tasks"), "tasks")
    if not tasks_raw:
        raise ConfigError("tasks: must not be empty")
    tasks = []
    for i, item in enumerate(tasks_raw):
        name = _expect_str(_require(_expect_dict(item, f"tasks[{i}]"), "name",
                                    f"tasks[{i}]"), f"tasks[{i}].name")
        if name not in HANDLERS:
            known = ", ".join(HANDLERS)
            raise ConfigError(f"tasks[{i}].name: unknown task {name!r} "
                              f"(known: {known})")
        params = {k: v for k, v in item.items() if k != "name"}
        tasks.append((name, params))
    # Pcg32 keeps the low 64 bits: a larger seed would repeat a smaller one
    seed = _expect_int(doc.get("seed", 0), "seed", 0, MASK64)
    budgets = _expect_keys(_expect_dict(doc.get("budgets", {}), "budgets"),
                           ("dagger",), "budgets")
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
    seed = cfg["seed"] if seed is None else _expect_int(seed, "--seed", 0, MASK64)
    model = load_model(cfg["model"])
    return RunContext(model, TruncationSpec(model, cfg["W"]), seed, cfg["budgets"])


# ---------------------------------------------------------------------------
# Shared handler helpers
# ---------------------------------------------------------------------------

def _build_automorphism(model: GroupModel, spec, path: str) -> Automorphism:
    _expect_dict(spec, path)
    kind = spec.get("kind")
    if kind == "identity":
        _expect_keys(spec, ("kind",), path)
        return Automorphism.identity(model)
    if kind == "inner":
        _expect_keys(spec, ("kind", "element"), path)
        coords = _expect_int_list(_require(spec, "element", path), f"{path}.element")
        return Automorphism.inner(model, model.element(coords))
    if kind == "linear":
        _expect_keys(spec, ("kind", "matrix"), path)
        rows = _expect_list(_require(spec, "matrix", path), f"{path}.matrix")
        return Automorphism.linear_on_log(model, [
            _expect_int_list(r, f"{path}.matrix[{i}]") for i, r in enumerate(rows)])
    raise ConfigError(f"{path}.kind: expected identity, inner or linear, "
                      f"got {kind!r}")


def _build_prime(ctx: RunContext, spec, path: str) -> CentralPrimeSpec:
    _expect_dict(spec, path)
    kind = _require(spec, "kind", path)
    block = _expect_int(_require(spec, "central_block", path),
                        f"{path}.central_block", 1)
    if kind == "zero":
        _expect_keys(spec, ("kind", "central_block"), path)
        return CentralPrimeSpec(ctx.trunc, "zero", block)
    if kind == "graph":
        _expect_keys(spec, ("kind", "central_block", "target", "u"), path)
        target = _expect_int(_require(spec, "target", path), f"{path}.target", 1)
        u = parse_series(ctx.trunc, _expect_str(spec.get("u", "0"), f"{path}.u"))
        return CentralPrimeSpec(ctx.trunc, "graph", block, target - 1, u)
    raise ConfigError(f"{path}.kind: expected zero or graph, got {kind!r}")


def _parse_texts(ctx: RunContext, texts, path: str) -> list[TruncatedSeries]:
    return [parse_series(ctx.trunc, _expect_str(t, f"{path}[{i}]"))
            for i, t in enumerate(_expect_list(texts, path))]


def _build_ideal(ctx: RunContext, spec, path: str):
    _expect_keys(_expect_dict(spec, path), ("generators", "sided"), path)
    gens = _parse_texts(ctx, _require(spec, "generators", path),
                        f"{path}.generators")
    sided = _expect_str(spec.get("sided", "right"), f"{path}.sided")
    if sided not in _SIDES:
        raise ConfigError(f"{path}.sided: expected one of {', '.join(_SIDES)}, "
                          f"got {sided!r}")
    return ideal_span(ctx.trunc, gens, sided)


def _depth_and_budget(ctx: RunContext, params: dict) -> tuple[int, int]:
    return (_expect_int(params.get("depth", 1), "depth", 1),
            _expect_int(ctx.budgets.get("dagger", 4096), "budgets.dagger", 1))


# ---------------------------------------------------------------------------
# Task handlers
# ---------------------------------------------------------------------------

def _task_verify_operators(ctx: RunContext, params: dict, stream: int):
    """Every del^(alpha) of the basis comes from one build; every sample is
    drawn first, in the order of the per-sample checks, and each kind of
    check then runs on blocks of samples (`_sample_blocks`)."""
    t, model = ctx.trunc, ctx.model
    p, size, rank, w = model.p, t.size, model.rank, t._int_weights
    samples = _expect_int(params.get("samples", 20), "samples", 0)
    maps = divided_power_maps(t, t.basis)
    draws = Pcg32(ctx.seed, stream=stream).below_many(
        [size] * (2 * samples) + ([p ** model.precision] * rank + [size]) * samples)
    pairs = draws[:2 * samples].reshape(-1, 2).tolist()
    eigen = draws[2 * samples:].reshape(-1, rank + 1)
    witnesses = []
    for run in _sample_blocks(samples, size):
        block = pairs[run]
        witnesses += [{"kind": "product-rule", "alpha": list(t.basis[block[k][0]]),
                       "beta": list(t.basis[block[k][1]])}
                      for k in _product_rule_failures(t, maps, block)]
    # del^(alpha) g - C(m, alpha) g for embedded samples g = g^m: the
    # dropped tail of embed(g) re-enters below the cutoff under del^(alpha),
    # so equality holds mod F at the alpha-shifted cutoff
    for run in _sample_blocks(samples, size):
        coords, alphas = eigen[run, :rank], eigen[run, rank]
        lam = [multi_binom_mod_p(m, t.basis[a], p, model.precision)
               for m, a in zip(coords.tolist(), alphas.tolist())]
        vals = _embed_valuations(t, SparseMap.stack([maps[a] for a in alphas.tolist()]),
                                 t._embed_entries(coords), len(coords),
                                 np.arange(len(coords)), np.array(lam, dtype=np.int64))
        witnesses += [{"kind": "eigen", "alpha": list(t.basis[alphas[k]]),
                       "element": coords[k].tolist()}
                      for k in np.flatnonzero(vals < t.W - w[alphas]).tolist()]
    # degree exactly -<alpha, omega>; index 0 is the constant, del^(0) = 1
    least, missed = degree_arrays(t, maps[1:])
    bad = np.flatnonzero(np.minimum(least, t.W - missed) < -w[1:])
    witnesses += [{"kind": "degree", "alpha": list(t.basis[k + 1]), "value": format_val(
        DegreeReport.of(t, least[k], missed[k]).value())} for k in bad.tolist()]
    status = "pass" if not witnesses else "fail"
    return status, {"pairs": samples, "eigen": samples, "degrees": size - 1}, witnesses


def _task_verify_valuation(ctx: RunContext, params: dict, stream: int):
    t = ctx.trunc
    samples = _expect_int(params.get("samples", 100), "samples", 0)
    x, y = random_pairs(t, Pcg32(ctx.seed, stream=stream), samples)
    wx, wy = t.valuations(x, samples), t.valuations(y, samples)
    # a pair is checked when w(x) + w(y) stays below the cutoff; a zero
    # factor reads W, so its pair is skipped too
    keep = wx + wy < t.W
    sample = np.flatnonzero(keep)
    n = sample.size
    # the rows of the checked pairs, renumbered 0..n-1
    index = np.cumsum(keep) - 1
    xs, ys = ((index[r[keep[r]]], c[keep[r]], v[keep[r]]) for r, c, v in (x, y))
    wxy = t.valuations(t.mul_block(xs, ys), n)
    ws = t.valuations(sum_entries(*map(np.concatenate, zip(xs, ys)), ctx.model.p), n)
    total, floor = wx[keep] + wy[keep], np.minimum(wx[keep], wy[keep])
    witnesses = []
    for k in np.flatnonzero((wxy != total) | (ws < floor)).tolist():
        pair = {"x": format_row(t, x, sample[k]), "y": format_row(t, y, sample[k])}
        if wxy[k] != total[k]:
            witnesses.append({"kind": "multiplicativity", **pair,
                              "got": format_val(t.val(wxy[k])),
                              "expected": str(t.val(total[k]))})
        if ws[k] < floor[k]:
            witnesses.append({"kind": "ultrametric", **pair,
                              "got": format_val(t.val(ws[k])),
                              "floor": str(t.val(floor[k]))})
    status = "pass" if not witnesses else "fail"
    return status, {"checked": n, "skipped": samples - n}, witnesses


def _task_mahler_reconstruct(ctx: RunContext, params: dict, stream: int):
    t = ctx.trunc
    phi = _build_automorphism(ctx.model, _require(params, "automorphism"),
                              "automorphism")
    budget = _expect_fraction(params.get("degree_budget", 2), "degree_budget")
    if budget < 0:
        raise ConfigError(f"degree_budget: must be >= 0, got {budget}")
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
    """Every e_nu from shared factors (`coset_idempotents`); each check then
    runs on all cosets at once, and on blocks of samples (`_sample_blocks`)."""
    t, model = ctx.trunc, ctx.model
    p, size = model.p, t.size
    directions = _expect_int_list(_require(params, "directions"), "directions")
    H = subgroup_from_exponents(model, directions)
    mask = [i for i, n in enumerate(directions) if n == 1]
    if not mask:
        raise ConfigError("directions: at least one direction must be 1")
    samples = _expect_int(params.get("samples", 20), "samples", 0)
    idems = coset_idempotents(t, H)
    stack = SparseMap.stack([e for _, e in idems])
    n = len(idems)
    witnesses = []
    # operators are compared as canonical sparse maps: e o e - e for every
    # coset at once, row k*size + s holding column s of coset k's
    rows = stack.src
    square = stack.apply_entries(rows, rows - rows % size + stack.tgt, stack.coef)
    witnesses += [{"kind": "idempotent", "nu": list(idems[k][0])}
                  for k in _rows_hit(sum_entries(*(np.concatenate(pair) for pair in zip(
                      square, (rows, stack.tgt, p - stack.coef))), p), size)]
    if SparseMap.combine([1] * n, [e for _, e in idems]) != SparseMap.identity(p, size):
        witnesses.append({"kind": "partition-of-unity"})
    # e_nu g - [g in coset nu] g for embedded samples g and every coset nu,
    # row s*n + k for sample s and coset k (the cosets are in lexicographic
    # order of nu); the coset projection has degree -(p-1)*omega_i per
    # masked direction, so on truncated embeds the indicator action holds
    # below a shifted cutoff
    draws = Pcg32(ctx.seed, stream=stream).below_many(
        [p ** model.precision] * (model.rank * samples)).reshape(samples, model.rank)
    bound = t.W - (p - 1) * int(t._int_omega[mask].sum())
    for run in _sample_blocks(samples, n * size):
        coords = draws[run]
        coset = coords[:, mask] % p @ p ** np.arange(len(mask) - 1, -1, -1)
        k = np.tile(np.arange(n), len(coords))
        sample, cols, coefs = t._embed_entries(coords)
        block = (sample[:, None] * n + np.arange(n)).ravel(), cols.repeat(n), coefs.repeat(n)
        vals = _embed_valuations(t, stack, block, n * len(coords), k,
                                 (coset.repeat(n) == k).astype(np.int64))
        witnesses += [{"kind": "indicator", "nu": list(idems[r % n][0]),
                       "element": coords[r // n].tolist()}
                      for r in np.flatnonzero(vals < bound).tolist()]
    status = "pass" if not witnesses else "fail"
    return status, {"cosets": n, "actions": samples * n}, witnesses


def _task_control_check(ctx: RunContext, params: dict, stream: int):
    I = _build_ideal(ctx, _require(params, "ideal"), "ideal")
    exps = _expect_int_list(_require(params, "subgroup"), "subgroup")
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
    want = sorted(tuple(_expect_int_list(row, f"expect_cosets[{k}]"))
                  for k, row in enumerate(_expect_list(expect, "expect_cosets")))
    status = "pass" if want == cosets else "fail"
    return status, metrics, witnesses


def _task_induced_filtration(ctx: RunContext, params: dict, stream: int):
    P = _build_prime(ctx, _require(params, "prime"), "prime")
    texts = [_expect_str(t, f"elements[{i}]") for i, t in
             enumerate(_expect_list(_require(params, "elements"), "elements"))]
    expect = params.get("expect")
    if expect is not None:
        expect = [_expect_str(x, f"expect[{i}]")
                  for i, x in enumerate(_expect_list(expect, "expect"))]
        if len(expect) != len(texts):
            raise ConfigError("expect: length must match elements")
    values = []
    witnesses = []
    for k, text in enumerate(texts):
        f = induced_filtration(parse_series(ctx.trunc, text), P)
        values.append(format_val(f))
        if expect is not None and format_val(f) != expect[k]:
            witnesses.append({"kind": "filtration", "element": text,
                              "got": format_val(f), "expected": expect[k]})
    status = "pass" if not witnesses else "fail"
    return status, {"values": values, "kind": P.kind}, witnesses


def _task_completely_prime_probe(ctx: RunContext, params: dict, stream: int):
    P = _build_prime(ctx, _require(params, "prime"), "prime")
    samples = _expect_int(params.get("samples", 100), "samples", 0)
    report = completely_prime_probe(P, Pcg32(ctx.seed, stream=stream), samples)
    metrics = {k: report[k] for k in
               ("samples", "checked", "skipped", "kernel_checked", "violations")}
    return report["status"], metrics, report["witnesses"]


def _task_zalesskii(ctx: RunContext, params: dict, stream: int):
    spec = _expect_keys(_expect_dict(_require(params, "ideal"), "ideal"),
                        ("generators",), "ideal")
    gens = _parse_texts(ctx, _require(spec, "generators", "ideal"),
                        "ideal.generators")
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
        p, m, r = (_expect_int(v, f"cases[{k}].{name}", low)
                   for v, name, low in zip(row, "pmr", (2, 1, 0)))
        if not is_prime(p):
            raise ConfigError(f"cases[{k}].p: must be prime, got {p}")
        try:
            report = moore_det_check(p, m, r)
        except ValueError as exc:  # a case past the budget fails alone
            scalars.append(None)
            witnesses.append({"kind": "error", "error": type(exc).__name__,
                              "message": str(exc)})
            continue
        scalars.append(report["scalar"])
        if report["status"] != "pass":
            witnesses.append({k: report[k] for k in
                              ("p", "m", "r", "factorization_ok", "degree_ok")})
    status = "pass" if not witnesses else "fail"
    return status, {"cases": len(cases), "scalars": scalars}, witnesses


def _task_zeta(ctx: RunContext, params: dict, stream: int):
    phi = _build_automorphism(ctx.model, _require(params, "automorphism"),
                              "automorphism")
    r_range = _expect_int_list(params.get("r_range", [0, 1]), "r_range")
    monomials = params.get("monomials")
    tests = None
    if monomials is not None:
        tests = _parse_texts(ctx, monomials, "monomials")
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


# each task's handler, and the fields of its entry beside "name"
HANDLERS = {
    "verify-operators": (_task_verify_operators, ("samples",)),
    "verify-valuation": (_task_verify_valuation, ("samples",)),
    "mahler-reconstruct": (_task_mahler_reconstruct, ("automorphism", "degree_budget")),
    "idempotents": (_task_idempotents, ("directions", "samples")),
    "control-check": (_task_control_check, ("ideal", "subgroup", "expect")),
    "dagger": (_task_dagger, ("ideal", "depth", "expect_cosets")),
    "induced-filtration": (_task_induced_filtration, ("prime", "elements", "expect")),
    "completely-prime-probe": (_task_completely_prime_probe, ("prime", "samples")),
    "zalesskii": (_task_zalesskii, ("ideal", "depth", "expect")),
    "moore-det": (_task_moore_det, ("cases",)),
    "zeta": (_task_zeta, ("automorphism", "r_range", "monomials")),
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
        unknown = set(only) - set(HANDLERS)
        if unknown:
            raise ConfigError(f"--task: unknown task {sorted(unknown)[0]!r}")
    records = []
    for pos, (name, params) in enumerate(cfg["tasks"]):
        if only and name not in only:
            continue
        try:
            handler, fields = HANDLERS[name]
            _expect_keys(params, fields)
            status, metrics, witnesses = handler(ctx, params, pos)
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
