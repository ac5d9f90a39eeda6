"""Moore determinants and the derivation approximants."""

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iwacalc import (
    AtLeast, Automorphism, FpPolynomial, ModelError, PrecisionError,
    TruncationSpec, ZetaExperiment, abelian_matrix_log, divided_power,
    format_fp_poly, group_embed, load_abelian, matrix_adjugate, matrix_det,
    moore_det_check, moore_matrix, parse_config, parse_series,
    projective_forms, run_config, zeta_convergence, zeta_eval,
)
from iwacalc import groups, moore
from iwacalc.linalg import sum_entries

from oracles import (
    block_series, format_reference, val_sub_exact, z_of_automorphism,
    zeta_numerator_reference,
)

GOLDEN = Path(__file__).parent / "cli_golden"


def test_fp_polynomial_arithmetic():
    p = 3
    y1 = FpPolynomial.variable(p, 2, 0)
    y2 = FpPolynomial.variable(p, 2, 1)
    q = (y1 + y2) * (y1 + y2.scale(2))
    assert q == FpPolynomial(p, 2, {(2, 0): 1, (1, 1): 0, (0, 2): 2})
    assert q - q == FpPolynomial.zero(p, 2)
    assert (y1 + y2).pow(3) == y1.pow(3) + y2.pow(3)
    assert y1.pow(0) == FpPolynomial.constant(p, 2, 1)
    with pytest.raises(ValueError):
        y1.pow(-1)
    with pytest.raises(ValueError):
        y1 + FpPolynomial.variable(5, 2, 0)


def fp_polynomials(p, nvars):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars),
                           st.integers(0, p - 1), max_size=5).map(
        lambda coeffs: FpPolynomial(p, nvars, coeffs))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fp_polynomial_ring_laws(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    nvars = data.draw(st.integers(1, 3))
    f, g, h = (data.draw(fp_polynomials(p, nvars)) for _ in range(3))
    c = data.draw(st.integers(-2 * p, 2 * p))
    k = data.draw(st.integers(0, 5))
    zero, one = FpPolynomial.zero(p, nvars), FpPolynomial.constant(p, nvars, 1)
    assert f + g == g + f and (f + g) + h == f + (g + h) and f + zero == f
    assert f - f == zero and f - g == f + (-g) and -(-f) == f
    assert f * g == g * f and (f * g) * h == f * (g * h) and f * one == f
    assert f * (g + h) == f * g + f * h
    assert f.scale(c) == f * FpPolynomial.constant(p, nvars, c)
    power = one
    for _ in range(k):
        power = power * f
    assert f.pow(k) == power
    # over F_p the p-th power is additive and fixes the coefficients
    assert f.frobenius(1) == f.pow(p)
    assert (f + g).frobenius(2) == f.frobenius(2) + g.frobenius(2)
    assert (f * g).frobenius(1) == f.frobenius(1) * g.frobenius(1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_format_fp_poly_matches_term_by_term_formatter(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    q = data.draw(fp_polynomials(p, data.draw(st.integers(1, 3))))
    assert format_fp_poly(q) == format_reference(q.coeffs, q.monomials(), "y")


def test_fp_polynomial_frobenius_and_ordering():
    p = 3
    y1 = FpPolynomial.variable(p, 2, 0)
    y2 = FpPolynomial.variable(p, 2, 1)
    q = y1 + y2.scale(2)
    assert q.frobenius(2) == q.pow(9)
    r = y1 * y2.pow(2) + y1.pow(2) * y2
    assert r.monomials() == [(1, 2), (2, 1)]
    assert r.leading() == ((1, 2), 1)
    assert r.min_total_degree() == 3
    assert FpPolynomial.zero(p, 2).min_total_degree() is None
    assert format_fp_poly(r) == "y1*y2^2 + y1^2*y2"
    assert format_fp_poly(FpPolynomial.zero(p, 2)) == "0"


def test_matrix_det_and_adjugate_polynomials():
    p = 5
    ys = [FpPolynomial.variable(p, 3, i) for i in range(3)]
    rows = moore_matrix(ys, 0, 3)
    assert rows[0] == ys
    assert rows[1] == [y.frobenius(1) for y in ys]
    det = matrix_det(rows)
    adj = matrix_adjugate(rows, FpPolynomial.constant(p, 3, 1))
    # adj * M = det * I
    for i in range(3):
        for j in range(3):
            acc = FpPolynomial.zero(p, 3)
            for k in range(3):
                acc = acc + adj[i][k] * rows[k][j]
            want = det if i == j else FpPolynomial.zero(p, 3)
            assert acc == want


def test_projective_forms():
    assert len(projective_forms(3, 2, 0)) == 4
    assert len(projective_forms(5, 2, 0)) == 6
    assert len(projective_forms(2, 3, 0)) == 7
    y1 = FpPolynomial.variable(3, 2, 0)
    y2 = FpPolynomial.variable(3, 2, 1)
    assert projective_forms(3, 2, 0) == \
        [y2, y1, y1 + y2, y1 + y2.scale(2)]


def test_moore_det_cases():
    expected_scalars = {(2, 2, 0): 1, (2, 2, 1): 1, (3, 2, 0): 2, (2, 3, 0): 1}
    for (p, m, r), scalar in expected_scalars.items():
        report = moore_det_check(p, m, r)
        assert report["status"] == "pass", report
        assert report["factorization_ok"] and report["degree_ok"]
        assert report["scalar"] == scalar
        assert report["min_total_degree"] == \
            sum(p ** k for k in range(m)) * p ** r
    assert moore_det_check(2, 2, 0)["det"] == "y1*y2^2 + y1^2*y2"
    with pytest.raises(ValueError):
        moore_det_check(2, 13, 0)


def test_moore_matrix_series_guards(tzeta):
    y = parse_series(tzeta, "b1^9")
    rows = moore_matrix([y], 1, 1)
    assert rows[0][0] == parse_series(tzeta, "b1^27")
    with pytest.raises(PrecisionError):
        moore_matrix([y], 2, 1)  # 9 * 3^2 = 81 past the cutoff 60
    with pytest.raises(PrecisionError):
        moore_matrix([tzeta.zero()], 0, 1)
    with pytest.raises(ValueError):
        moore_matrix([y], -1, 1)
    with pytest.raises(ValueError):
        moore_matrix([y], 0, 2)


def test_abelian_matrix_log_scalar():
    assert abelian_matrix_log([[10]], 3, 6) == ((576,),)
    assert abelian_matrix_log([[1]], 3, 6) == ((0,),)
    with pytest.raises(ModelError):
        abelian_matrix_log([[2]], 3, 6)
    with pytest.raises(ValueError):
        abelian_matrix_log([[1, 0]], 3, 6)


def test_abelian_matrix_log_is_additive_on_powers():
    p, M = 3, 6
    pm = p ** M
    a = [[10, 9], [0, 10]]
    a2 = [[100 % pm, 180 % pm], [0, 100 % pm]]
    la = abelian_matrix_log(a, p, M)
    la2 = abelian_matrix_log(a2, p, M)
    assert la2 == tuple(tuple(2 * x % pm for x in row) for row in la)
    assert la[0][0] == 576 and la[1][1] == 576


def test_zeta_experiment_setup(tzeta):
    phi = Automorphism.linear_on_log(tzeta.model, [[10]])
    exp = ZetaExperiment(tzeta, phi)
    assert exp.lam == Fraction(9)
    assert exp.m == 1
    assert exp.y[0] == parse_series(tzeta, "b1^9")
    assert exp.det_valuation(0) == 9
    assert exp.det_valuation(1) == 27
    assert len(exp.test_monomials) == 4
    with pytest.raises(ValueError):
        ZetaExperiment(tzeta, phi, test_monomials=[])


@pytest.mark.parametrize("rows", [[[4]], [[1, 3], [3, 1]]])
def test_zeta_log_route_matches_z_of_automorphism(rows):
    # z(g_i) from the exact log U of phi's matrix A against the p^r-th root
    # of g |-> phi^{p^r}(g) g^-1: (A^q - I)/q = U + q U^2/2 + ... with
    # q = p^r and U = 0 mod p, and the root is known mod p^(M - r); r runs
    # up to M - 1, where the root lives in a model of precision 1
    p, M, d = 3, 6, len(rows)
    model = load_abelian(p, d, M, ["1"] * d)
    phi = Automorphism.linear_on_log(model, rows)
    exp = ZetaExperiment(TruncationSpec(model, 8), phi)
    for r in range(M):
        q = p ** min(r + 1, M - r)
        for i, z in enumerate(z_of_automorphism(phi, r)):
            assert z.model.precision == M - r
            assert [c % q for c in z.coords] == [exp.log[k][i] % q for k in range(d)]


def test_zeta_eval_approximates_the_derivation(tzeta):
    t = tzeta
    phi = Automorphism.linear_on_log(t.model, [[10]])
    exp = ZetaExperiment(t, phi)
    b = t.monomial((1,))
    _, det, _ = exp.matrices(0)
    [num] = block_series(t, zeta_eval(exp, 1, 0, [b]), 1)
    # v(num - det * del b) - v(det) is past the effective cutoff W/e - v(det)
    diff = num - det * divided_power(t, (1,), b)
    v = val_sub_exact(diff.valuation(), det.valuation())
    assert isinstance(v, AtLeast) and v.bound == 51
    with pytest.raises(ValueError):
        zeta_eval(exp, 2, 0, [b])


def test_zeta_kills_fixed_vectors(tzeta):
    t = tzeta
    phi = Automorphism.linear_on_log(t.model, [[10]])
    exp = ZetaExperiment(t, phi)
    fixed = group_embed(t, t.model.element([81]))  # phi(g^81) = g^81
    for r in (0, 1):
        fixed_num, one_num = block_series(t, zeta_eval(exp, 1, r, [fixed, t.one()]), 2)
        assert fixed_num.is_zero()
        assert one_num.is_zero()


# (matrix, W, largest r): lambda = 3, 9, 27 in rank 1, and two blocks of
# size m = 2 in rank 2 with 820 monomials
ZETA_CASES = [(((4,),), 60, 2), (((10,),), 60, 1), (((28,),), 60, 0),
              (((10, 0), (0, 10)), 40, 0), (((10, 9), (0, 10)), 40, 0)]


@lru_cache(maxsize=None)
def _zeta_experiment(rows, W, r_max):
    model = load_abelian(3, len(rows), 6, ["1"] * len(rows))
    phi = Automorphism.linear_on_log(model, rows)
    return ZetaExperiment(TruncationSpec(model, W), phi, range(r_max + 1))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_zeta_eval_rows_match_the_series_oracle(data):
    exp = _zeta_experiment(*data.draw(st.sampled_from(ZETA_CASES)))
    t = exp.trunc
    i = data.draw(st.integers(1, exp.m))
    r = data.draw(st.sampled_from(exp.r_range))
    series = st.dictionaries(st.sampled_from(t.basis), st.integers(0, 2),
                             max_size=6).map(t.from_dict)
    xs = data.draw(st.lists(series, min_size=1, max_size=4))
    block = zeta_eval(exp, i, r, xs)
    assert ((block[2] > 0) & (block[2] < t.model.p)).all()
    assert block_series(t, block, len(xs)) == \
        [zeta_numerator_reference(exp, i, r, x) for x in xs]


def test_zeta_rejects_a_repeated_r_and_a_zero_test_series(tzeta):
    phi = Automorphism.linear_on_log(tzeta.model, [[10]])
    with pytest.raises(ValueError, match="r_range: r = 0 is repeated"):
        ZetaExperiment(tzeta, phi, r_range=[0, 1, 0])
    b = tzeta.monomial((1,))
    for zero in (tzeta.zero(), parse_series(tzeta, "b1^70")):
        with pytest.raises(ValueError, match="test series 1 is 0 mod F_W"):
            ZetaExperiment(tzeta, phi, test_monomials=[b, zero])


def test_zeta_rejects_test_series_from_another_truncation(tzeta):
    phi = Automorphism.linear_on_log(tzeta.model, [[10]])
    narrow = TruncationSpec(tzeta.model, 30)
    # b1 lies inside both cutoffs, and b1^40 only inside W = 60
    with pytest.raises(ValueError, match="test series 1 is from a different truncation"):
        ZetaExperiment(tzeta, phi, test_monomials=[tzeta.monomial((1,)),
                                                   narrow.monomial((1,))])
    with pytest.raises(ValueError, match="test series 0 is from a different truncation"):
        ZetaExperiment(narrow, phi, test_monomials=[parse_series(tzeta, "b1^40")])


def test_a_cold_zeta_task_checks_its_automorphism_once(monkeypatch):
    # the powers phi^(p^r) inherit the checks of phi
    calls = []
    check = groups.deg_omega
    monkeypatch.setattr(groups, "deg_omega", lambda phi: calls.append(phi) or check(phi))
    cfg = parse_config(json.loads((GOLDEN / "zeta.json").read_text(encoding="utf-8")))
    [record] = run_config(cfg)
    assert record["status"] == "pass"
    assert len(calls) == 1


def test_zeta_convergence_report(tzeta):
    phi = Automorphism.linear_on_log(tzeta.model, [[10]])
    report = zeta_convergence(ZetaExperiment(tzeta, phi))
    assert report["status"] == "pass"
    assert report["violations"] == []
    assert report["lambda"] == "9" and report["m"] == 1
    ds = [(rec["r"], rec["D"], rec["monotone"]) for rec in report["records"]]
    assert ds == [(0, "7", "first"), (1, "25", "increased")]
    assert report["monotone_ok"] is True
    assert report["vdet_checked"] == 4
    assert report["cramer_checked"] == 2
    assert report["asymptotics_verified"] == 5
    assert report["asymptotics_skipped"] == 1


def test_zeta_model_requirements(trunc2, trunc_heis, tzeta):
    with pytest.raises(ModelError):
        ZetaExperiment(trunc_heis, Automorphism.identity(trunc_heis.model))
    with pytest.raises(ModelError):
        # inner automorphisms carry no matrix to take a logarithm of
        ZetaExperiment(tzeta, Automorphism.inner(
            tzeta.model, tzeta.model.element([1])))
    with pytest.raises(ModelError):
        # displacements land past W = 8, so lambda never resolves
        ZetaExperiment(
            trunc2, Automorphism.linear_on_log(trunc2.model, [[10, 0], [0, 10]]))
    phi = Automorphism.linear_on_log(tzeta.model, [[10]])
    with pytest.raises(ValueError):
        ZetaExperiment(tzeta, phi, r_range=[-1])
    with pytest.raises(PrecisionError):
        ZetaExperiment(tzeta, phi, r_range=[0, 2]).matrices(2)  # 81 >= 60


def _corrupt_mahler_rows(monkeypatch):
    """A Mahler kernel that adds 1 at the b_1 column of every row with
    |alpha| = 2 and zeroes every row with |alpha| = 3."""
    rows_of = moore._mahler_rows

    def corrupt(t, phi, alphas):
        rows, cols, coefs = rows_of(t, phi, alphas)
        size = np.asarray(alphas).sum(axis=1)
        b1 = t.index[(1,) + (0,) * (t.model.rank - 1)]
        two = np.flatnonzero(size == 2)
        rows, cols, coefs = (np.concatenate(pair) for pair in zip(
            (rows, cols, coefs), (two, np.full_like(two, b1), np.ones_like(two))))
        keep = size[rows] != 3
        return sum_entries(rows[keep], cols[keep], coefs[keep], t.model.p)
    monkeypatch.setattr(moore, "_mahler_rows", corrupt)


# (matrix, W, largest r) -> (asymptotics verified, skipped, violations as
# (r, alpha, value, bound)) under the corrupted kernel
CORRUPTED_ASYMPTOTICS = {
    (((10,),), 60, 1): (3, 1, [(0, [2], "1", "10"), (1, [2], "1", "36")]),
    (((10, 0), (0, 10)), 40, 0): (6, 0, [(0, [0, 2], "1", "10"), (0, [1, 1], "1", "10"),
                                         (0, [2, 0], "1", "10")]),
    (((4,),), 60, 2): (4, 2, [(0, [2], "1", "4"), (1, [2], "1", "18"),
                              (2, [2], "1", "108")]),
}


@pytest.mark.parametrize("case", sorted(CORRUPTED_ASYMPTOTICS))
def test_zeta_reports_mahler_coefficients_off_their_asymptotics(case, monkeypatch):
    _corrupt_mahler_rows(monkeypatch)
    report = zeta_convergence(_zeta_experiment(*case))
    verified, skipped, violations = CORRUPTED_ASYMPTOTICS[case]
    assert report["status"] == "fail" and report["monotone_ok"]
    assert (report["asymptotics_verified"], report["asymptotics_skipped"]) == \
        (verified, skipped)
    assert report["violations"] == [
        {"kind": "asymptotics", "r": r, "alpha": alpha, "value": value, "bound": bound}
        for r, alpha, value, bound in violations]


# (matrix, W, largest r) -> (forms checked, violations as (r, mu, value,
# expected)) when the enumeration of mu also yields (p, ..., p)
VANISHING_FORMS = {
    (((4,),), 60, 2): (9, [(0, [3], ">=60", "3"), (1, [3], ">=60", "9"),
                           (2, [3], ">=60", "27")]),
    (((10, 0), (0, 10)), 40, 0): (9, [(0, [3, 3], ">=40", "9")]),
}


@pytest.mark.parametrize("case", sorted(VANISHING_FORMS))
def test_zeta_reports_a_form_off_its_valuation(case, monkeypatch):
    # mu = (p, ..., p) gives the form 0 mod p, of unresolved valuation; the
    # Mahler indices, whose bounds also go through mi_range, leave the extra
    # point out, as its sum is not their total
    mu_range = moore.mi_range
    monkeypatch.setattr(moore, "mi_range", lambda bounds: [
        *mu_range(bounds), tuple(b + 1 for b in bounds)])
    report = zeta_convergence(_zeta_experiment(*case))
    checked, violations = VANISHING_FORMS[case]
    assert report["status"] == "fail" and report["vdet_checked"] == checked
    assert report["violations"] == [
        {"kind": "form-valuation", "r": r, "mu": mu, "value": value, "expected": expected}
        for r, mu, value, expected in violations]
