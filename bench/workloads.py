"""The three workloads: their seeded inputs, timed operations and checks.

An operation has three timed parts and two untimed ones:

* `setup()` builds the model and TruncationSpec (timed as set-up);
* `prepare(ctx)` turns the seeded inputs into program objects (untimed);
* `run(args)` is the work being measured (timed);
* `check(args, out)` compares the output with a computation made apart
  from the program (untimed, first pass only);
* `fingerprint(out)` is a cheap exact form of the output; every later
  pass must reproduce the fingerprint of the checked pass.

Every operation starts from a freshly built model and truncation, so the
program's caches start cold in each repetition, as in every `iwacalc run`.
The untimed paths use only names exported by `iwacalc` and the
`iwacalc run` entry point.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

import oracle
from iwacalc import (
    TruncationSpec, control_witnesses, controller_approx, ideal_span,
    load_abelian, load_model, load_unitriangular, main, parse_config,
    subgroup_from_exponents,
)


class Op:
    name = "op"
    run_includes_setup = False

    def setup(self):
        raise NotImplementedError

    def prepare(self, ctx):
        return ctx

    def run(self, args):
        raise NotImplementedError

    def check(self, args, out) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, out):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# group-route: cold products in the Heisenberg model
# ---------------------------------------------------------------------------

HEIS_P, HEIS_M, HEIS_OMEGA = 5, 3, (1, 1, 2)
GROUP_ROUTE_W = (9, 12)


def heisenberg_generators(p: int):
    def elementary(i, j, c):
        rows = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        rows[i][j] = c
        return rows
    return [elementary(0, 1, p), elementary(1, 2, p), elementary(0, 2, p)]


class ColdProduct(Op):
    """x * y where x = sum_c x_c g^c over every exponent c of the basis.

    The coefficients x_c, y_c are drawn from the seed in [1, p).  Since the
    basis is closed under lowering exponents, g^c = (1 + b)^c is exact mod
    F_W, and the group route expands x back into exactly these |basis|
    elements: every seed costs the same |basis|^2 group products."""

    def __init__(self, W: int, seed: int):
        self.W = W
        self.name = f"product-W{W}"
        rng = random.Random(f"group-route/{seed}/{W}")
        self.labels = sorted(oracle.monomials_below(HEIS_OMEGA, W))
        self.x_terms = [(rng.randint(1, HEIS_P - 1), c) for c in self.labels]
        self.y_terms = [(rng.randint(1, HEIS_P - 1), c) for c in self.labels]

    def setup(self):
        model = load_unitriangular(HEIS_P, 3, HEIS_M,
                                   heisenberg_generators(HEIS_P),
                                   [str(w) for w in HEIS_OMEGA],
                                   centre_exponents=[3, 3, 0])
        return TruncationSpec(model, self.W)

    def prepare(self, trunc):
        return tuple(trunc.from_dict(oracle.embed_sum(terms, self.labels,
                                                      HEIS_P, HEIS_M))
                     for terms in (self.x_terms, self.y_terms))

    def run(self, args):
        x, y = args
        return x * y

    def expected(self) -> dict:
        """embed(g) * embed(h) = embed(gh) mod F_W, and the product is
        bilinear: sum over pairs of x_c y_d embed(g^c g^d)."""
        p = HEIS_P
        prods: dict = {}
        for c, g in self.x_terms:
            for d, h in self.y_terms:
                gh = oracle.heisenberg_mul(g, h, p, HEIS_M)
                prods[gh] = (prods.get(gh, 0) + c * d) % p
        return oracle.embed_sum(((v, gh) for gh, v in prods.items() if v),
                                self.labels, p, HEIS_M)

    def check(self, args, out) -> list[str]:
        want = self.expected()
        got = dict(out.coeffs)
        if got == want:
            return []
        bad = sorted(set(got) ^ set(want)
                     | {a for a in got.keys() & want.keys() if got[a] != want[a]})
        a = bad[0]
        return [f"{self.name}: {len(bad)} coefficients differ, first at {a}: "
                f"got {got.get(a, 0)}, want {want.get(a, 0)}"]

    def fingerprint(self, out):
        return tuple(sorted(out.coeffs.items()))


def group_route_ops(seed: int, widths=GROUP_ROUTE_W) -> list[Op]:
    return [ColdProduct(W, seed) for W in widths]


# ---------------------------------------------------------------------------
# ideal-closure: right and two-sided spans in the abelian rank-3 model
# ---------------------------------------------------------------------------

AB_P, AB_M, AB_OMEGA = 3, 4, (1, 1, 1)
IDEAL_CLOSURE_W = (14, 16)


def _unit_vector(d: int, i: int, k: int = 1) -> tuple:
    return tuple(k if j == i else 0 for j in range(d))


class IdealClosure(Op):
    """ideal_span, then control_witnesses for H and controller_approx.

    The generators are b^alpha * u1 and b^beta * u2 with seeded units u1,
    u2, so the ideal is the monomial ideal (b^alpha, b^beta) and its size,
    hence the cost of the closure, does not depend on the seed.  Both
    generators lie in kH, where H halves direction h (alpha_h = 3 = p), so
    the span must be controlled by H."""

    def __init__(self, W: int, sided: str, seed: int, spans: dict):
        self.W = W
        self.sided = sided
        self.name = f"{sided}-W{W}"
        self.spans = spans        # verified spans by W, shared by both sides
        d, p = 3, AB_P
        h = W % d
        self.mask = _unit_vector(d, h)
        self.alpha = tuple(a + b for a, b in zip(_unit_vector(d, h, p),
                                                 _unit_vector(d, (h + 1) % d)))
        self.beta = _unit_vector(d, (h + 2) % d, 5)
        rng = random.Random(f"ideal-closure/{seed}/{W}")

        def unit():
            u = {(0,) * d: 1}
            while len(u) < 4:
                a = tuple(p * rng.randrange(2) if i == h else rng.randrange(3)
                          for i in range(d))
                if any(a):
                    u[a] = rng.randint(1, p - 1)
            return u
        self.keep = oracle.monomials_below(AB_OMEGA, W)
        self.gens = [oracle.poly_mul({self.alpha: 1}, unit(), p, self.keep),
                     oracle.poly_mul({self.beta: 1}, unit(), p, self.keep)]

    def setup(self):
        model = load_abelian(AB_P, 3, AB_M, [str(w) for w in AB_OMEGA])
        return TruncationSpec(model, self.W)

    def prepare(self, trunc):
        H = subgroup_from_exponents(trunc.model, self.mask)
        return trunc, [trunc.from_dict(g) for g in self.gens], H

    def run(self, args):
        trunc, gens, H = args
        span = ideal_span(trunc, gens, self.sided)
        return span, control_witnesses(span, H), controller_approx(span).exponents

    def expected_controller(self) -> tuple:
        """Directions i under which the monomial ideal is del_i-stable:
        del_i b^B = B_i (b^(B-e_i) + b^B), so every B in the ideal needs
        p | B_i or b^(B-e_i) in the ideal."""
        ideal = {B for B in self.keep
                 if all(x >= y for x, y in zip(B, self.alpha))
                 or all(x >= y for x, y in zip(B, self.beta))}
        out = []
        for i in range(3):
            step = _unit_vector(3, i)
            out.append(int(all(
                B[i] % AB_P == 0 or tuple(x - y for x, y in zip(B, step)) in ideal
                for B in ideal)))
        return tuple(out)

    def check(self, args, out) -> list[str]:
        trunc = args[0]
        span, witnesses, controller = out
        p = AB_P
        labels = [tuple(a) for a in trunc.basis]
        if set(labels) != self.keep or len(labels) != len(self.keep):
            return [f"{self.name}: basis is not the monomials of weight < {self.W}"]
        index = {a: i for i, a in enumerate(labels)}
        rows, pivots = np.asarray(span.rows), list(span.pivots)
        problems = [f"{self.name}: {m}" for m in oracle.rref_problems(rows, pivots, p)]
        if problems:
            return problems
        if span.sided != self.sided:
            problems.append(f"{self.name}: span reports sidedness {span.sided!r}")
        gens = np.array([oracle.to_vector(g, index) for g in self.gens])
        if oracle.residual(gens, rows, pivots, p).any():
            problems.append(f"{self.name}: a generator is not in the span")
        for j in range(3):
            # x*b_j = b_j*x here, so one shift checks both sides
            shifted = np.zeros_like(rows)
            for i, a in enumerate(labels):
                b = tuple(x + (k == j) for k, x in enumerate(a))
                if b in index:
                    shifted[:, index[b]] = rows[:, i]
            if oracle.residual(shifted, rows, pivots, p).any():
                problems.append(f"{self.name}: span not closed under b{j + 1}")
        images = [oracle.to_vector(oracle.poly_mul(g, {m: 1}, p, self.keep), index)
                  for g in self.gens for m in labels]
        rank = oracle.rank_mod_p(np.array(images), p)
        if rank != span.dim:
            problems.append(f"{self.name}: dimension {span.dim}, but the "
                            f"multiplication map has rank {rank}")
        if witnesses:
            problems.append(f"{self.name}: generators in kH gave "
                            f"{len(witnesses)} control witnesses for H")
        want = self.expected_controller()
        if tuple(controller) != want:
            problems.append(f"{self.name}: controller {tuple(controller)}, "
                            f"want {want}")
        if not problems:
            seen = self.spans.setdefault(self.W, rows.tobytes())
            if seen != rows.tobytes():
                problems.append(f"{self.name}: right and two-sided spans differ")
        return problems

    def fingerprint(self, out):
        span, witnesses, controller = out
        return (np.asarray(span.rows).tobytes(), tuple(span.pivots),
                len(witnesses), tuple(controller))


def ideal_closure_ops(seed: int, widths=IDEAL_CLOSURE_W) -> list[Op]:
    spans: dict = {}
    return [IdealClosure(W, sided, seed, spans)
            for W in widths for sided in ("right", "two-sided")]


# ---------------------------------------------------------------------------
# cli-tasks: `iwacalc run` on fixed configs
# ---------------------------------------------------------------------------

def cli_configs(seed: int) -> list[tuple[str, dict, list]]:
    """(name, config, expectations) for every config of the workload.

    An expectation is (task index, field, value): the record's status, a
    metric, or "lams", the set of coset vectors listed as witnesses.  Each
    value was derived by hand, as the comments say; none is read from a
    run of the program."""
    rng = random.Random(f"cli-tasks/{seed}")

    def seeded(doc):
        doc["seed"] = rng.randrange(1, 10 ** 6)
        return doc

    abelian2 = seeded({
        "p": 3, "model": {"kind": "abelian", "rank": 2, "centre": [0, 4]},
        "omega": ["1", "1"], "truncation": {"W": 8, "M": 4},
        "tasks": [
            {"name": "verify-operators", "samples": 10},
            {"name": "verify-valuation", "samples": 100},
            {"name": "mahler-reconstruct",
             "automorphism": {"kind": "linear", "matrix": [[10, 0], [0, 1]]},
             "degree_budget": 3},
            {"name": "idempotents", "directions": [1, 0], "samples": 8},
            {"name": "control-check", "ideal": {"generators": ["b1"]},
             "subgroup": [0, 1], "expect": "controlled"},
            {"name": "dagger", "ideal": {"generators": ["b1^3"]}, "depth": 2},
            {"name": "moore-det"},
        ]})
    abelian2_expect = [
        # 36 monomials of degree < 8; del^(a) for the 35 nonconstant ones
        (0, "status", "pass"), (0, "pairs", 10), (0, "eigen", 10),
        (0, "degrees", 35),
        (1, "status", "pass"), (1, "checked+skipped", 100),
        # columns of weight <= 3: 1 + 2 + 3 + 4
        (2, "status", "pass"), (2, "columns", 10),
        # p^1 cosets, each applied to 8 samples
        (3, "status", "pass"), (3, "cosets", 3), (3, "actions", 24),
        # (b1) holds the 36 - 8 monomials with a1 >= 1
        (4, "status", "pass"), (4, "observed", "controlled"), (4, "dim", 28),
        # g^lam - 1 lies in (b1^3) iff lam2 = 0 and C(lam1, 1) = C(lam1, 2)
        # = 0 mod 3, i.e. lam1 in {0, 3, 6} mod 9
        (5, "status", "pass"), (5, "lams", {(0, 0), (3, 0), (6, 0)}),
        (6, "status", "pass"), (6, "cases", 4),
    ]
    abelian3 = seeded({
        "p": 3, "model": {"kind": "abelian", "rank": 3, "centre": [0, 0, 4]},
        "omega": ["1", "1", "1"], "truncation": {"W": 8, "M": 4},
        "tasks": [
            {"name": "induced-filtration",
             "prime": {"kind": "graph", "central_block": 2, "target": 1,
                       "u": "b2^2"},
             "elements": ["b1", "b2", "b3", "b1 + 2*b2^2"]},
            {"name": "completely-prime-probe",
             "prime": {"kind": "zero", "central_block": 2}, "samples": 100},
            {"name": "completely-prime-probe",
             "prime": {"kind": "graph", "central_block": 2, "target": 1,
                       "u": "b2^2"}, "samples": 100},
            {"name": "idempotents", "directions": [1, 1, 0], "samples": 4},
        ]})
    abelian3_expect = [
        # tau(b1) = b2^2 has weight 2; b1 + 2*b2^2 = b1 - u maps to 0
        (0, "status", "pass"), (0, "values", ["2", "1", "1", ">=8"]),
        (1, "status", "pass"), (1, "violations", 0),
        (1, "checked+skipped", 100), (1, "kernel_checked", 0),
        # two kernel elements per sample for a graph prime
        (2, "status", "pass"), (2, "violations", 0),
        (2, "checked+skipped", 100), (2, "kernel_checked", 200),
        (3, "status", "pass"), (3, "cosets", 9), (3, "actions", 36),
    ]
    heisenberg = seeded({
        "p": 5,
        "model": {"kind": "unitriangular", "size": 3,
                  "generators": heisenberg_generators(5), "centre": [3, 3, 0]},
        "omega": ["1", "1", "2"], "truncation": {"W": 8, "M": 3},
        "budgets": {"dagger": 200},
        "tasks": [
            {"name": "zalesskii", "ideal": {"generators": ["b3^2"]}},
            {"name": "zalesskii", "ideal": {"generators": ["b3"]}},
            {"name": "verify-valuation", "samples": 200},
        ]})
    heisenberg_expect = [
        # b3^2 is central; its span is b3^2 times the 13 monomials of
        # weight < 4 (10 with a3 = 0, 3 with a3 = 1)
        (0, "status", "pass"), (0, "observed", "controlled"), (0, "dim", 13),
        (0, "faithful", True),
        # g3^c - 1 lies in (b3) for every c: not faithful, so skipped
        (1, "status", "skipped"), (1, "faithful", False),
        (1, "lams", {(0, 0, c) for c in range(5)}),
        (2, "status", "pass"), (2, "checked+skipped", 200),
    ]
    zeta = seeded({
        "p": 3, "model": {"kind": "abelian", "rank": 1}, "omega": ["1"],
        "truncation": {"W": 60, "M": 6},
        "tasks": [{"name": "zeta",
                   "automorphism": {"kind": "linear", "matrix": [[10]]}}]})
    zeta_expect = [
        # log 10 = 9 * unit, so lambda = w(b^9) = 9; D(1,0) = 7, D(1,1) = 25
        (0, "status", "pass"), (0, "monotone_ok", True), (0, "lambda", "9"),
        (0, "D", [{"i": 1, "r": 0, "D": "7"}, {"i": 1, "r": 1, "D": "25"}]),
    ]
    operators3 = seeded({
        "p": 3, "model": {"kind": "abelian", "rank": 3},
        "omega": ["1", "1", "1"], "truncation": {"W": 12, "M": 4},
        "tasks": [{"name": "verify-operators", "samples": 4}]})
    operators3_expect = [
        # C(14, 3) = 364 monomials of degree < 12
        (0, "status", "pass"), (0, "pairs", 4), (0, "eigen", 4),
        (0, "degrees", 363),
    ]
    return [("abelian2", abelian2, abelian2_expect),
            ("abelian3", abelian3, abelian3_expect),
            ("heisenberg", heisenberg, heisenberg_expect),
            ("zeta", zeta, zeta_expect),
            ("operators3", operators3, operators3_expect)]


def _observed(record: dict, field: str):
    if field == "status":
        return record["status"]
    if field == "lams":
        return {tuple(w["lam"]) for w in record["witnesses"] if "lam" in w}
    if field == "checked+skipped":
        return record["metrics"]["checked"] + record["metrics"]["skipped"]
    return record["metrics"].get(field)


def check_records(name: str, rc: int, text: bytes, ntasks: int,
                  expect: list) -> list[str]:
    """Problems with one `iwacalc run` output against its expectations."""
    problems = []
    if rc != 0:
        problems.append(f"{name}: exit code {rc}")
    try:
        records = [json.loads(line) for line in text.decode().splitlines()]
    except ValueError as exc:
        return problems + [f"{name}: output is not JSON lines ({exc})"]
    if len(records) != ntasks:
        return problems + [f"{name}: {len(records)} records for {ntasks} tasks"]
    for k, field, want in expect:
        got = _observed(records[k], field)
        if got != want:
            problems.append(f"{name}: task {k} ({records[k]['task']}) "
                            f"{field} = {got!r}, want {want!r}")
    return problems


class CliRun(Op):
    """`iwacalc run config --out file`; the CLI builds its own context."""

    run_includes_setup = True

    def __init__(self, name: str, doc: dict, expect: list, workdir: str):
        self.name = name
        self.doc = doc
        self.expect = expect
        self.config = os.path.join(workdir, f"{name}.json")
        self.out = os.path.join(workdir, f"{name}.jsonl")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def setup(self):
        # what build_context does inside the CLI, through exported names
        cfg = parse_config(self.doc)
        return TruncationSpec(load_model(cfg["model"]), cfg["W"])

    def prepare(self, ctx):
        return None

    def run(self, args):
        rc = main(["run", self.config, "--out", self.out])
        with open(self.out, "rb") as fh:
            return rc, fh.read()

    def check(self, args, out) -> list[str]:
        rc, text = out
        return check_records(self.name, rc, text, len(self.doc["tasks"]),
                             self.expect)

    def fingerprint(self, out):
        return out


def cli_tasks_ops(seed: int, workdir: str) -> list[Op]:
    return [CliRun(name, doc, expect, workdir)
            for name, doc, expect in cli_configs(seed)]
