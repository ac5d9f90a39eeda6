"""Acceptance suite: one timed test per headline guarantee.

Every check here is exact field arithmetic; where a truncation shift is
involved, the bound is the sharp one and the comparison is a provable
inequality on resolved valuations.  Each test asserts its own wall-clock
budget so regressions in the underlying algorithms surface here."""

import math
import time
from fractions import Fraction

from iwacalc import (
    Automorphism, CentralPrimeSpec, Pcg32, ZetaExperiment, aut_extend,
    completely_prime_probe, control_witnesses, controller_approx,
    coset_idempotent, deg_omega, divided_power, eq_compatible,
    flatness_check, ge_provable, group_embed, ideal_span, is_controlled_by,
    mahler_coeff_aut, mahler_coeff_aut_central, mi_range, moore_det_check,
    multi_binom_mod_p, reconstruct_aut, subalgebra_monomials,
    subgroup_from_exponents, zalesskii_check, zeta_convergence, zeta_eval,
)
from iwacalc.padic import mi_weight

from oracles import OperatorMatrix, divided_power_matrix, map_matrix


class Budget:
    """Context manager asserting the block finishes inside its budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, \
                f"budget exceeded: {elapsed:.1f}s >= {self.seconds}s"
        return False


def _divided_power_table(trunc):
    return {a: divided_power_matrix(trunc, a) for a in trunc.basis}


def test_c01_divided_power_product_rule(trunc2, trunc_heis):
    with Budget(10):
        for t in (trunc2, trunc_heis):
            p = t.model.p
            mats = _divided_power_table(t)
            # every basis pair, with the structure constants recomputed
            # from stock binomials rather than the library's Lucas route
            for a in t.basis:
                for b in t.basis:
                    lhs = mats[a] @ mats[b]
                    rhs = OperatorMatrix.zero(t)
                    for c in mi_range(tuple(x + y for x, y in zip(a, b))):
                        if any(v < max(x, y) for v, x, y in zip(c, a, b)):
                            continue
                        if c not in t.index:
                            continue
                        coeff = 1
                        for v, x, y in zip(c, a, b):
                            coeff = (coeff * math.comb(v, x)
                                     * math.comb(x, x + y - v)) % p
                        if coeff:
                            rhs = rhs + mats[c].scale(coeff)
                    assert lhs == rhs, (a, b)
            # del^(alpha) applied to b^alpha has constant coefficient 1
            for a in t.basis:
                if not any(a):
                    continue
                y = divided_power(t, a, t.monomial(a))
                assert y.coeff((0,) * t.model.rank) == 1
            # the binomial eigenrelation on embedded elements, mod F at
            # the alpha-shifted cutoff
            rng = Pcg32(401)
            for _ in range(20):
                g = t.model.sample_element(rng)
                emb = group_embed(t, g)
                alpha = t.basis[rng.below(t.size)]
                lam = multi_binom_mod_p(g.coords, alpha)
                diff = divided_power(t, alpha, emb) - emb.scale(lam)
                assert ge_provable(diff.valuation(),
                                   t.cutoff - mi_weight(alpha, t.omega))


def test_c02_mahler_reconstruction_matches_on_low_degree(
        trunc2, trunc_heis, abelian2, heis):
    with Budget(30):
        squarer = Automorphism.linear_on_log(abelian2, [[10, 0], [0, 10]])
        # its displacements raise every basis weight by exactly 2
        for i, g in enumerate(abelian2.basis()):
            moved = squarer.apply(g) * g.inverse()
            assert moved.omega() == abelian2.omega.values[i] + 2
        assert eq_compatible(deg_omega(squarer), 2)
        corpus = [
            (trunc2, Fraction(3), [
                Automorphism.identity(abelian2),
                Automorphism.inner(abelian2, abelian2.element([1, 1])),
                squarer,
            ]),
            (trunc_heis, Fraction(2), [
                Automorphism.identity(heis),
                Automorphism.inner(heis, heis.element([1, 0, 0])),
                Automorphism.linear_on_log(heis, [[26, 0, 0], [0, 1, 0],
                                                  [0, 0, 1]]),
            ]),
        ]
        for t, D, autos in corpus:
            for phi in autos:
                images = reconstruct_aut(t, phi, D)
                assert list(images) == [a for a in t.basis
                                        if mi_weight(a, t.omega) <= D]
                for a, got in images.items():
                    assert got == aut_extend(t, phi, t.monomial(a))


def test_c03_central_closed_form_matches_finite_differences(
        trunc2, trunc_heis, abelian2, heis):
    with Budget(10):
        corpus = [
            (trunc2, [
                Automorphism.linear_on_log(abelian2, [[10, 0], [0, 1]]),
                Automorphism.identity(abelian2),
                Automorphism.inner(abelian2, abelian2.element([1, 1])),
            ]),
            (trunc_heis, [
                Automorphism.inner(heis, heis.element([1, 0, 0])),
                Automorphism.inner(heis, heis.element([0, 1, 0])),
                Automorphism.linear_on_log(heis, [[1, 0, 0], [0, 1, 0],
                                                  [25, 0, 1]]),
            ]),
        ]
        for t, autos in corpus:
            for phi in autos:
                for a in t.basis:
                    assert mahler_coeff_aut(t, phi, a) == \
                        mahler_coeff_aut_central(t, phi, a)


def test_c04_coset_idempotents(trunc2, abelian2):
    with Budget(10):
        t = trunc2
        p = abelian2.p
        for exps in [(1, 0), (1, 1)]:
            H = subgroup_from_exponents(abelian2, exps)
            mask = [i for i, n in enumerate(exps) if n == 1]
            idems = [(nu, map_matrix(t, coset_idempotent(t, H, nu)))
                     for nu in mi_range((p - 1,) * len(mask))]
            total = OperatorMatrix.zero(t)
            for nu, e in idems:
                assert e @ e == e
                total = total + e
            assert total == OperatorMatrix.identity(t)
            # indicator action: sharp shifted bound on arbitrary elements,
            # exact equality when the embedding has no dropped tail
            bound = t.cutoff - (p - 1) * sum(t.omega[i] for i in mask)
            rng = Pcg32(402)
            for _ in range(50):
                g = abelian2.sample_element(rng)
                emb = group_embed(t, g)
                resid = tuple(c.value() % p
                              for i, c in enumerate(g.coords) if i in mask)
                for nu, e in idems:
                    expect = emb if nu == resid else t.zero()
                    diff = e.apply(emb) - expect
                    assert ge_provable(diff.valuation(), bound)
            for l1 in range(8):
                for l2 in range(8 - l1):
                    g = abelian2.element([l1, l2])
                    emb = group_embed(t, g)
                    resid = tuple((l1, l2)[i] % p for i in mask)
                    for nu, e in idems:
                        expect = emb if nu == resid else t.zero()
                        assert e.apply(emb) == expect


def test_c05_moore_determinant_factorization():
    with Budget(10):
        for p, m, r in [(2, 2, 0), (2, 2, 1), (3, 2, 0), (2, 3, 0)]:
            report = moore_det_check(p, m, r)
            assert report["status"] == "pass", report
            assert report["factorization_ok"]
            assert report["min_total_degree"] == \
                sum(p ** k for k in range(m)) * p ** r


def test_c06_valuation_is_multiplicative_and_ultrametric(trunc2, trunc_heis):
    with Budget(10):
        for t in (trunc2, trunc_heis):
            p = t.model.p
            rng = Pcg32(403)
            checked = 0
            for _ in range(100):
                x = t.zero()
                y = t.zero()
                for _ in range(3):
                    x = x + t.monomial(t.basis[rng.below(t.size)],
                                       1 + rng.below(p - 1))
                    y = y + t.monomial(t.basis[rng.below(t.size)],
                                       1 + rng.below(p - 1))
                wx, wy = x.valuation(), y.valuation()
                ws = (x + y).valuation()
                if not x.is_zero() and not y.is_zero():
                    assert ge_provable(ws, min(Fraction(wx), Fraction(wy)))
                    if Fraction(wx) + Fraction(wy) < t.cutoff:
                        checked += 1
                        assert (x * y).valuation() == Fraction(wx) + Fraction(wy)
            assert checked > 50


def test_c07_control_detection(trunc2, trunc_heis, abelian2, heis):
    with Budget(30):
        # the span of b1 is controlled exactly by the subgroups containing
        # the first direction
        I = ideal_span(trunc2, [trunc2.monomial((1, 0))], "right")
        assert I.dim == 28
        for exps, want in [((0, 0), True), ((0, 1), True),
                           ((1, 0), False), ((1, 1), False)]:
            H = subgroup_from_exponents(abelian2, exps)
            assert is_controlled_by(I, H) is want
        found = control_witnesses(I, subgroup_from_exponents(abelian2, (1, 0)))
        assert found[0] == {"direction": 1, "row": "b1", "escapes_as": "1"}
        assert controller_approx(I).exponents == (0, 1)
        # the maximal ideal is controlled by no proper open subgroup
        for t, model, masks in [
            (trunc2, abelian2, [(1, 0), (0, 1), (1, 1)]),
            (trunc_heis, heis,
             [m for m in mi_range((1, 1, 1)) if any(m)]),
        ]:
            gens = [t.monomial(a) for a in t.basis if sum(a) == 1]
            maximal = ideal_span(t, gens, "right")
            assert maximal.dim == t.size - 1
            for exps in masks:
                assert not is_controlled_by(
                    maximal, subgroup_from_exponents(model, exps))
        # a centrally generated ideal passes the full control check
        report = zalesskii_check(
            trunc_heis, [trunc_heis.monomial((0, 0, 2))], depth=1, budget=200)
        assert report["status"] == "controlled"
        assert report["faithful"] and report["dim"] == 3


def test_c08_zeta_convergence(tzeta):
    with Budget(60):
        phi = Automorphism.linear_on_log(tzeta.model, [[10]])
        exp = ZetaExperiment(tzeta, phi)
        assert exp.lam == Fraction(9) and exp.m == 1
        report = zeta_convergence(exp)
        assert report["status"] == "pass"
        assert report["violations"] == []
        assert report["monotone_ok"] is True
        ds = [(rec["r"], rec["D"]) for rec in report["records"]]
        assert ds == [(0, "7"), (1, "25")]  # strictly increasing distance
        assert report["vdet_checked"] == 4
        assert report["cramer_checked"] == 2
        assert report["asymptotics_verified"] == 5
        assert report["asymptotics_skipped"] == 1
        fixed = group_embed(tzeta, tzeta.model.element([81]))
        for r in (0, 1):
            assert zeta_eval(exp, 1, r, tzeta.one()).is_zero()
            assert zeta_eval(exp, 1, r, fixed).is_zero()


def test_c09_completely_prime_probes(trunc3):
    with Budget(30):
        zero = CentralPrimeSpec(trunc3, "zero", 2)
        report = completely_prime_probe(zero, samples=100, seed=0)
        assert report["status"] == "pass"
        assert report["violations"] == 0
        assert report["checked"] > 0
        assert report["kernel_checked"] == 0
        graph = CentralPrimeSpec(trunc3, "graph", 2, 0,
                                 trunc3.monomial((0, 2, 0)))
        report = completely_prime_probe(graph, samples=100, seed=0)
        assert report["status"] == "pass"
        assert report["violations"] == 0
        assert report["kernel_checked"] == 200


def test_c10_flat_induction(trunc2, abelian2):
    with Budget(10):
        rng = Pcg32(404)
        p = abelian2.p
        checked = 0
        for exps in [(1, 0), (1, 1)]:
            H = subgroup_from_exponents(abelian2, exps)
            mons = [a for a in subalgebra_monomials(trunc2, H) if any(a)]
            for _ in range(10):
                gens = []
                for _ in range(1 + rng.below(2)):
                    s = trunc2.zero()
                    for _ in range(2):
                        s = s + trunc2.monomial(mons[rng.below(len(mons))],
                                                1 + rng.below(p - 1))
                    if not s.is_zero():
                        gens.append(s)
                if not gens:
                    continue
                report = flatness_check(trunc2, H, gens)
                assert report["flat"], report
                checked += 1
        assert checked >= 15
