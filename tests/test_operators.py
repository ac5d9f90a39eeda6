"""Divided powers, Mahler calculus, multipliers and coset idempotents.

The recurring theme: identities between operators hold exactly on the
truncated monomial space (compared here as dense matrices from
`oracles`), while identities about their action on embedded group elements
hold below a shifted cutoff, because the embedding drops the tail of the
element and the operators lower weight.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iwacalc import (
    AtLeast, Automorphism, LocallyConstantFunction, ModelError, aut_extend,
    comb_mod, coset_idempotent, divided_power, format_series,
    function_from_mahler, ge_provable, group_embed, gt_provable,
    mahler_coeff_aut, mahler_coeff_aut_central, mahler_coeffs_function,
    mi_range, mi_weight, multi_binom_mod_p, operator_degree, parse_series,
    reconstruct_aut, rho_apply, rho_apply_mahler, subgroup_from_exponents,
)
from iwacalc.control import ideal_span
from iwacalc.operators import divided_power_map
from iwacalc.rng import Pcg32
from iwacalc.series import SparseMap

from oracles import (
    OperatorMatrix, aut_matrix, dense, divided_power_matrix, lmul_matrix,
    map_matrix, operator_matrix, sparse_of,
)


def act(m, x):
    """A sparse map applied to a series."""
    return x.trunc.from_vector(m.apply(x.vector()))


def product_rule_rhs(trunc, a, b):
    """Independent assembly of del^(a) o del^(b) from the structure constants
    N^c_{ab} = prod_i C(c_i, a_i) C(a_i, a_i + b_i - c_i)."""
    p = trunc.model.p
    out = OperatorMatrix.zero(trunc)
    for c in mi_range(tuple(x + y for x, y in zip(a, b))):
        if any(v < max(x, y) for v, x, y in zip(c, a, b)):
            continue
        if c not in trunc.index:
            continue
        coeff = 1
        for v, x, y in zip(c, a, b):
            coeff = coeff * comb_mod(v, x, p) * comb_mod(x, x + y - v, p) % p
        if coeff:
            out = out + divided_power_matrix(trunc, c).scale(coeff)
    return out


def test_closed_formula_oracle(tzeta):
    b2 = tzeta.monomial((2,))
    assert divided_power(tzeta, (1,), b2) == parse_series(tzeta, "2*b1 + 2*b1^2")
    assert divided_power(tzeta, (2,), b2) == \
        parse_series(tzeta, "1 + 2*b1 + b1^2")
    assert divided_power(tzeta, (3,), b2).is_zero()


def test_closed_formula_matches_series_product(trunc2):
    t = trunc2
    p = t.model.p
    one = t.one()
    rng = Pcg32(41)
    for _ in range(25):
        beta = t.basis[rng.below(t.size)]
        alpha = tuple(rng.below(v + 1) for v in beta)
        lead = comb_mod(beta[0], alpha[0], p) * comb_mod(beta[1], alpha[1], p)
        shift = one
        for i, ai in enumerate(alpha):
            bi = t.monomial(tuple(1 if k == i else 0 for k in range(2)))
            shift = shift * (one + bi).pow(ai)
        want = (shift * t.monomial(
            tuple(b - a for a, b in zip(alpha, beta)))).scale(lead)
        assert divided_power(t, alpha, t.monomial(beta)) == want


def test_leading_term_property(trunc2):
    t = trunc2
    p = t.model.p
    for beta in t.basis:
        for alpha in mi_range(beta):
            if not any(alpha):
                continue
            lead = comb_mod(beta[0], alpha[0], p) * comb_mod(beta[1], alpha[1], p) % p
            if not lead:
                continue
            base = tuple(b - a for a, b in zip(alpha, beta))
            rest = divided_power(t, alpha, t.monomial(beta)) - \
                t.monomial(base, lead)
            assert gt_provable(rest.valuation(), mi_weight(base, t.omega))


def test_product_rule(trunc2, trunc_heis):
    for t, seed in [(trunc2, 42), (trunc_heis, 43)]:
        rng = Pcg32(seed)
        for _ in range(30):
            a = t.basis[rng.below(t.size)]
            b = t.basis[rng.below(t.size)]
            lhs = divided_power_matrix(t, a) @ divided_power_matrix(t, b)
            assert lhs == product_rule_rhs(t, a, b)


def test_divided_powers_commute(trunc_heis):
    t = trunc_heis
    d1 = divided_power_matrix(t, (1, 0, 0))
    d2 = divided_power_matrix(t, (0, 1, 0))
    d3 = divided_power_matrix(t, (0, 0, 1))
    assert d1 @ d2 == d2 @ d1
    assert d2 @ d3 == d3 @ d2
    assert d1 @ d2 == divided_power_matrix(t, (1, 1, 0))


def test_eigen_action_below_shifted_cutoff(trunc2, trunc_heis):
    for t, seed in [(trunc2, 44), (trunc_heis, 45)]:
        model = t.model
        rng = Pcg32(seed)
        for _ in range(15):
            g = model.sample_element(rng)
            emb = group_embed(t, g)
            alpha = t.basis[rng.below(t.size)]
            lam = multi_binom_mod_p(g.coords, alpha)
            diff = divided_power(t, alpha, emb) - emb.scale(lam)
            assert ge_provable(diff.valuation(),
                               t.cutoff - mi_weight(alpha, t.omega))


def test_eigen_shift_is_sharp(trunc2):
    # the dropped tail of embed(g) re-enters exactly at W - <alpha, omega>
    t = trunc2
    g = t.model.element([5, 7])
    emb = group_embed(t, g)
    lam = multi_binom_mod_p(g.coords, (1, 0))
    diff = divided_power(t, (1, 0), emb) - emb.scale(lam)
    assert diff.valuation() == Fraction(7)  # cutoff 8 shifted by omega_1 = 1


@pytest.fixture(scope="session")
def map_truncs(trunc2, trunc3, trunc_heis, tzeta, trunc_e4):
    return {"abelian2": trunc2, "abelian3": trunc3, "heis": trunc_heis,
            "zeta": tzeta, "e4": trunc_e4}


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "zeta", "e4"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_divided_power_map_matches_closed_formula(map_truncs, name, data):
    t = map_truncs[name]
    # one past the largest exponent, so empty maps are drawn too
    alpha = tuple(data.draw(st.integers(0, m + 1)) for m in t.max_exponents)
    want = operator_matrix(t, lambda a: divided_power(t, alpha, t.monomial(a)))
    assert divided_power_matrix(t, alpha) == want
    coeffs = data.draw(st.dictionaries(
        st.sampled_from(t.basis), st.integers(1, t.model.p - 1), max_size=8))
    x = t.from_dict(coeffs)
    got = divided_power_map(t, alpha).apply(x.vector())
    assert t.from_vector(got) == divided_power(t, alpha, x)


def degree_by_columns(op):
    """Per-column reference for operator_degree, in Fraction weights."""
    t = op.trunc
    resolved = tail = None
    for j, a in enumerate(t.basis):
        hit = np.flatnonzero(op.mat[:, j])
        if hit.size:
            d = min(t.weight(t.basis[i]) for i in hit) - t.weight(a)
            resolved = d if resolved is None else min(resolved, d)
        else:
            d = t.cutoff - t.weight(a)
            tail = d if tail is None else min(tail, d)
    return resolved, tail


@pytest.mark.parametrize("name", ["abelian2", "heis", "e4"])
def test_operator_degree_matches_column_reference(map_truncs, name):
    t = map_truncs[name]
    rng = Pcg32(17)
    ops = [OperatorMatrix.identity(t), OperatorMatrix.zero(t)]
    ops += [divided_power_matrix(t, a) for a in t.basis[::3]]
    ops += [lmul_matrix(t, t.monomial(t.basis[rng.below(t.size)])) for _ in range(3)]
    for op in ops:
        report = operator_degree(t, sparse_of(op))
        assert (report.resolved, report.tail_bound) == degree_by_columns(op)
    for a in t.basis[::3]:
        report = operator_degree(t, divided_power_map(t, a))
        want = degree_by_columns(divided_power_matrix(t, a))
        assert (report.resolved, report.tail_bound) == want
    zero = operator_degree(t, SparseMap(t.model.p, t.size, [], [], []))
    # every column vanishes: only the tail bound, set by the heaviest column
    assert zero.resolved is None
    assert zero.tail_bound == t.cutoff - t.weight(t.basis[-1])


def summed_matrix(t, tgt, src, coef):
    """Dense matrix of (target, source, coefficient) entries, repeated pairs
    summed."""
    mat = np.zeros((t.size, t.size), dtype=np.int64)
    np.add.at(mat, (np.asarray(tgt, dtype=np.int64), np.asarray(src, dtype=np.int64)),
              np.asarray(coef, dtype=np.int64))
    return OperatorMatrix(t, mat % t.model.p)


@pytest.mark.parametrize("name", ["abelian2", "heis", "e4"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_operator_degree_of_drawn_maps(map_truncs, name, data):
    t = map_truncs[name]
    p = t.model.p
    index = st.integers(0, t.size - 1)
    entries = data.draw(st.lists(st.tuples(index, index, st.integers(0, p - 1)),
                                 max_size=2 * t.size))
    # the same (target, source) twice with coefficients c and p - c: the
    # map keeps both entries, and their sum vanishes mod p
    for tg, sc, c in data.draw(st.lists(st.tuples(index, index, st.integers(1, p - 1)),
                                        max_size=6)):
        entries += [(tg, sc, c), (tg, sc, p - c)]
    tgt, src, coef = ([e[k] for e in entries] for k in range(3))
    report = operator_degree(t, SparseMap(p, t.size, tgt, src, coef))
    want = degree_by_columns(summed_matrix(t, tgt, src, coef))
    assert (report.resolved, report.tail_bound) == want


def test_operator_degree_sums_repeated_entries(trunc2):
    t = trunc2
    p = t.model.p
    # source 5 reaches target 0 twice with cancelling coefficients, and
    # target 3 once: its least-weight target is 3, not 0
    tgt, src, coef = [0, 0, 3], [5, 5, 5], [1, p - 1, 2]
    report = operator_degree(t, SparseMap(p, t.size, tgt, src, coef))
    assert report.resolved == t.weight(t.basis[3]) - t.weight(t.basis[5])
    assert (report.resolved, report.tail_bound) == \
        degree_by_columns(summed_matrix(t, tgt, src, coef))
    # with only the cancelling pair, no column resolves
    report = operator_degree(t, SparseMap(p, t.size, [0, 0], [5, 5], [1, p - 1]))
    assert report.resolved is None
    with pytest.raises(ValueError):
        operator_degree(t, SparseMap(p, t.size + 1, [], [], []))


def test_operator_degree_of_divided_powers(trunc2):
    for a in trunc2.basis:
        if not any(a):
            continue
        report = operator_degree(trunc2, divided_power_map(trunc2, a))
        assert report.value() == -mi_weight(a, trunc2.omega)


def test_operator_degree_of_multiplication(trunc2):
    report = operator_degree(
        trunc2, sparse_of(lmul_matrix(trunc2, trunc2.monomial((1, 0)))))
    assert report.value() == 1
    report = operator_degree(
        trunc2, sparse_of(lmul_matrix(trunc2, trunc2.monomial((1, 2)))))
    # high-weight columns land past the cutoff and vanish, so the overall
    # value degrades to the tail bound even though resolved columns show 3
    assert report.resolved == 3
    assert report.tail_bound == 1
    assert report.value() == AtLeast(Fraction(1))


def test_mahler_coeffs_of_indicator():
    f = LocallyConstantFunction.coset_indicator(3, 1, 1, (0,))
    assert mahler_coeffs_function(f) == {(0,): 1, (1,): 2, (2,): 1}


def test_mahler_coeffs_invert(trunc2):
    p = 3
    rng = Pcg32(46)
    for rank, s in [(1, 1), (2, 1), (1, 2)]:
        box = p ** s
        table = {a: rng.below(p) for a in mi_range((box - 1,) * rank)}
        f = LocallyConstantFunction(p, rank, s, table)
        coeffs = mahler_coeffs_function(f)
        for lam in mi_range((box - 1,) * rank):
            assert function_from_mahler(coeffs, lam, p) == f(lam)


def test_multiplier_routes_agree(trunc2, trunc_heis):
    for t, seed in [(trunc2, 47), (trunc_heis, 48)]:
        p = t.model.p
        d = t.model.rank
        rng = Pcg32(seed)
        table = {a: rng.below(p) for a in mi_range((p - 1,) * d)}
        f = LocallyConstantFunction(p, d, 1, table)
        for _ in range(6):
            x = t.monomial(t.basis[rng.below(t.size)], 1 + rng.below(p - 1))
            assert rho_apply(t, f, x) == rho_apply_mahler(t, f, x)


def test_multiplier_is_an_algebra_map_on_functions(trunc2):
    # rho(f g) = rho(f) rho(g) for level-1 functions, as exact matrices
    t = trunc2
    p = t.model.p
    rng = Pcg32(49)
    tab1 = {a: rng.below(p) for a in mi_range((p - 1,) * 2)}
    tab2 = {a: rng.below(p) for a in mi_range((p - 1,) * 2)}
    f1 = LocallyConstantFunction(p, 2, 1, tab1)
    f2 = LocallyConstantFunction(p, 2, 1, tab2)
    prod = LocallyConstantFunction(
        p, 2, 1, {a: tab1[a] * tab2[a] for a in tab1})

    def matrix_of(f):
        return operator_matrix(t, lambda a: rho_apply(t, f, t.monomial(a)))

    assert matrix_of(f1) @ matrix_of(f2) == matrix_of(prod)


def test_multiplier_projection_formula(tzeta):
    # rho(indicator of 0 mod p) sends b^n to (-1)^(n + n//p) * b^(p * (n//p))
    t = tzeta
    f = LocallyConstantFunction.coset_indicator(3, 1, 1, (0,))
    for n in range(10):
        m = n // 3
        want = t.monomial((3 * m,), (-1) ** (n + m))
        assert rho_apply(t, f, t.monomial((n,))) == want


def test_mahler_coeff_aut_oracle(tzeta):
    phi = Automorphism.linear_on_log(tzeta.model, [[10]])
    assert mahler_coeff_aut(tzeta, phi, (0,)) == tzeta.one()
    assert mahler_coeff_aut(tzeta, phi, (1,)) == parse_series(tzeta, "b1^9")
    assert mahler_coeff_aut(tzeta, phi, (2,)) == parse_series(tzeta, "b1^18")
    for k in range(5):
        assert mahler_coeff_aut(tzeta, phi, (k,)) == \
            mahler_coeff_aut_central(tzeta, phi, (k,))


def test_mahler_coeff_of_identity(trunc2):
    ident = Automorphism.identity(trunc2.model)
    assert mahler_coeff_aut(trunc2, ident, (0, 0)) == trunc2.one()
    for alpha in [(1, 0), (0, 1), (2, 3)]:
        assert mahler_coeff_aut(trunc2, ident, alpha).is_zero()


def test_central_closed_form_guard(trunc_heis):
    shear = Automorphism.linear_on_log(
        trunc_heis.model, [[1, 0, 0], [25, 1, 0], [0, 0, 1]])
    with pytest.raises(ModelError):
        mahler_coeff_aut_central(trunc_heis, shear, (1, 0, 0))


def test_central_closed_form_matches_differences(trunc_heis):
    t = trunc_heis
    inner = Automorphism.inner(t.model, t.model.basis()[0])
    for alpha in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 2, 0), (1, 1, 1)]:
        assert mahler_coeff_aut(t, inner, alpha) == \
            mahler_coeff_aut_central(t, inner, alpha)


def test_reconstruct_identity_exactly(trunc2):
    ident = Automorphism.identity(trunc2.model)
    images = reconstruct_aut(trunc2, ident, trunc2.cutoff - 1)
    assert list(images) == trunc2.basis
    assert operator_matrix(trunc2, images.__getitem__) == aut_matrix(trunc2, ident)


def test_reconstruct_guaranteed_columns(trunc2, trunc_heis):
    cases = [
        (trunc2, Automorphism.linear_on_log(trunc2.model, [[10, 0], [0, 10]]),
         Fraction(3)),
        (trunc_heis,
         Automorphism.inner(trunc_heis.model, trunc_heis.model.basis()[0]),
         Fraction(2)),
    ]
    for t, phi, budget in cases:
        images = reconstruct_aut(t, phi, budget)
        assert list(images) == [a for a in t.basis
                                if mi_weight(a, t.omega) <= budget]
        for a, got in images.items():
            assert got == aut_extend(t, phi, t.monomial(a))


@pytest.mark.parametrize("name", ["abelian2", "heis", "e4"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_reconstruct_images_match_aut_extend(map_truncs, name, data):
    t = map_truncs[name]
    model = t.model
    # scales the first log coordinate; on the Heisenberg model a factor
    # p + 1 fails the bracket check at this precision, and p^2 + 1 passes
    scale = model.p + 1 if model.kind == "abelian" else model.p ** 2 + 1
    phi = data.draw(st.sampled_from([
        Automorphism.identity(model),
        Automorphism.inner(model, model.basis()[0]),
        Automorphism.linear_on_log(
            model, [[(scale if i == 0 else 1) if i == j else 0
                     for j in range(model.rank)] for i in range(model.rank)]),
    ]))
    # from below 0 (no columns) to past the cutoff (every column)
    top = int(t.cutoff) + 2
    budget = Fraction(data.draw(st.integers(-2 * t.e, top * t.e)), t.e)
    images = reconstruct_aut(t, phi, budget)
    assert list(images) == [a for a in t.basis if t.weight(a) <= budget]
    if budget < 0:
        assert images == {}
    if budget >= t.cutoff:
        assert len(images) == t.size
    for a, got in images.items():
        assert got == aut_extend(t, phi, t.monomial(a))


def test_idempotent_algebra(trunc2, trunc_heis):
    cases = [
        (trunc2, (1, 0)),
        (trunc2, (1, 1)),
        (trunc_heis, (0, 0, 1)),
    ]
    for t, exps in cases:
        p = t.model.p
        H = subgroup_from_exponents(t.model, exps)
        mask = [i for i, n in enumerate(exps) if n == 1]
        idems = [map_matrix(t, coset_idempotent(t, H, nu))
                 for nu in mi_range((p - 1,) * len(mask))]
        total = OperatorMatrix.zero(t)
        for e in idems:
            assert e @ e == e
            total = total + e
        assert total == OperatorMatrix.identity(t)


def test_idempotents_resolve_the_derivations(trunc2):
    # del_i = sum over cosets of nu_i e_nu, an exact matrix identity
    t = trunc2
    H2 = subgroup_from_exponents(t.model, (1, 1))
    by_nu = {nu: map_matrix(t, coset_idempotent(t, H2, nu))
             for nu in mi_range((2, 2))}
    for i in range(2):
        acc = OperatorMatrix.zero(t)
        for nu, e in by_nu.items():
            acc = acc + e.scale(nu[i])
        assert acc == divided_power_matrix(
            t, tuple(1 if k == i else 0 for k in range(2)))


def test_idempotent_action_below_shifted_cutoff(trunc2):
    t = trunc2
    p = t.model.p
    H = subgroup_from_exponents(t.model, (1, 0))
    idems = {nu[0]: coset_idempotent(t, H, nu) for nu in mi_range((p - 1,))}
    bound = t.cutoff - (p - 1) * t.omega[0]
    rng = Pcg32(50)
    for _ in range(20):
        g = t.model.sample_element(rng)
        emb = group_embed(t, g)
        resid = g.coords[0].value() % p
        for nu, e in idems.items():
            expect = emb if nu == resid else t.zero()
            diff = act(e, emb) - expect
            assert ge_provable(diff.valuation(), bound)


def test_idempotent_shift_is_sharp(trunc2):
    t = trunc2
    H = subgroup_from_exponents(t.model, (1, 0))
    g = t.model.element([62, 10])
    emb = group_embed(t, g)
    vals = []
    for nu in mi_range((2,)):
        e = coset_idempotent(t, H, nu)
        expect = emb if nu[0] == 62 % 3 else t.zero()
        vals.append((act(e, emb) - expect).valuation())
    assert min(Fraction(v) for v in vals) == t.cutoff - 2 * t.omega[0]


def test_stability_under_derivations_equals_stability_under_idempotents(trunc2):
    t = trunc2
    p = t.model.p
    H = subgroup_from_exponents(t.model, (1, 0))
    d1 = divided_power_matrix(t, (1, 0))
    idems = [coset_idempotent(t, H, nu) for nu in mi_range((p - 1,))]
    rng = Pcg32(51)
    seen = set()
    for _ in range(8):
        gens = [parse_series(t, format_series(
            t.monomial(t.basis[rng.below(t.size)], 1 + rng.below(p - 1))))
            for _ in range(2)]
        span = ideal_span(t, gens, "right")
        stable_d = all(span.contains_vector((d1.mat @ row) % p)
                       for row in span.rows)
        stable_e = all(span.contains_vector(e.apply(row))
                       for e in idems for row in span.rows)
        assert stable_d == stable_e
        seen.add(stable_d)
    assert seen == {True, False}  # the sample hits both sides


def test_coset_idempotent_matches_multiplier(trunc2):
    # two routes to the same projection: polynomial in the derivations
    # against the group-expansion multiplier of the coset indicator
    t = trunc2
    H = subgroup_from_exponents(t.model, (1, 1))
    for nu in [(0, 0), (2, 1)]:
        f = LocallyConstantFunction.coset_indicator(3, 2, 1, nu)
        rho_mat = operator_matrix(t, lambda a: rho_apply(t, f, t.monomial(a)))
        assert map_matrix(t, coset_idempotent(t, H, nu)) == rho_mat


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_coset_idempotent_matches_multiplier_on_drawn_cosets(map_truncs, name, data):
    t = map_truncs[name]
    p, d = t.model.p, t.model.rank
    if name == "heis":
        exps = (0, 0, 1)  # the central direction
    else:
        exps = data.draw(st.tuples(*[st.integers(0, 1)] * d).filter(any))
    mask = [i for i, n in enumerate(exps) if n]
    nu = tuple(data.draw(st.integers(0, p - 1)) for _ in mask)
    f = LocallyConstantFunction.from_callable(
        p, d, 1, lambda lam: int(all(lam[i] == v for i, v in zip(mask, nu))))
    rho_mat = operator_matrix(t, lambda a: rho_apply(t, f, t.monomial(a)))
    e = coset_idempotent(t, subgroup_from_exponents(t.model, exps), nu)
    assert map_matrix(t, e) == rho_mat
    # the map holds one entry per nonzero matrix entry
    assert e.src.size == np.count_nonzero(dense(e))


def test_coset_idempotent_validation(trunc2):
    H = subgroup_from_exponents(trunc2.model, (2, 0))
    with pytest.raises(ModelError):
        coset_idempotent(trunc2, H, (0,))
    H1 = subgroup_from_exponents(trunc2.model, (1, 0))
    with pytest.raises(ValueError):
        coset_idempotent(trunc2, H1, (0, 1))
    with pytest.raises(ValueError):
        coset_idempotent(trunc2, H1, (5,))
