"""Ideal spans, control by subgroups, flat induction and central primes."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from iwacalc import (
    AtLeast, CentralPrimeSpec, ModelError, completely_prime_probe,
    control_witnesses, controller_approx, dagger_approx, flatness_check,
    ideal_span, induced_filtration, is_controlled_by, parse_series,
    subalgebra_ideal_span, subalgebra_monomials, subgroup_from_exponents,
    zalesskii_check,
)
from iwacalc.control import IdealSpan, _escape
from iwacalc.linalg import intersect_coordinate_subspace, rref
from iwacalc.padic import mi_range
from iwacalc.rng import Pcg32
from iwacalc.series import TruncationSpec, format_series, group_embed

from oracles import (
    dense_closure, divided_power_reference, escapes_reference, mul_reference,
    operator_matrix, reduce_block,
)


def test_principal_span_dimension(trunc2):
    I = ideal_span(trunc2, [trunc2.monomial((1, 0))])
    assert I.dim == 28
    # abelian right ideal: exactly the monomial multiples of b1
    assert I.contains(parse_series(trunc2, "b1*b2^3 + 2*b1^4"))
    assert not I.contains(parse_series(trunc2, "b1 + b2"))


def test_contains_vector_checks_shape(trunc2):
    I = ideal_span(trunc2, [trunc2.monomial((1, 0))])
    n = trunc2.size
    assert I.contains_vector(parse_series(trunc2, "b1*b2 + 2*b1^3").vector())
    assert not I.contains_vector(trunc2.one().vector())
    # longer, shorter, a block of two, a scalar: none is read as a vector
    for shape in [(n + 3,), (n - 3,), (2, n), ()]:
        with pytest.raises(ValueError, match="shape"):
            I.contains_vector(np.zeros(shape, dtype=np.int64))


def test_maximal_ideal_dimension(trunc2):
    M = ideal_span(trunc2, [trunc2.monomial((1, 0)), trunc2.monomial((0, 1))])
    assert M.dim == trunc2.size - 1
    assert not M.contains(trunc2.one())


def test_control_of_principal_span(trunc2):
    I = ideal_span(trunc2, [trunc2.monomial((1, 0))])
    assert is_controlled_by(I, subgroup_from_exponents(trunc2.model, (0, 0)))
    assert is_controlled_by(I, subgroup_from_exponents(trunc2.model, (0, 1)))
    wits = control_witnesses(I, subgroup_from_exponents(trunc2.model, (1, 0)))
    assert wits == [{"direction": 1, "row": "b1", "escapes_as": "1"}]
    assert not is_controlled_by(
        I, subgroup_from_exponents(trunc2.model, (1, 1)))


def test_controller_approx(trunc2):
    I = ideal_span(trunc2, [trunc2.monomial((1, 0))])
    assert controller_approx(I).exponents == (0, 1)
    M = ideal_span(trunc2, [trunc2.monomial((1, 0)), trunc2.monomial((0, 1))])
    assert controller_approx(M).exponents == (0, 0)


def test_maximal_ideal_is_never_controlled(trunc2):
    M = ideal_span(trunc2, [trunc2.monomial((1, 0)), trunc2.monomial((0, 1))])
    for exps in [(1, 0), (0, 1), (1, 1)]:
        assert not is_controlled_by(
            M, subgroup_from_exponents(trunc2.model, exps))


def test_control_rejects_bad_shapes(trunc2):
    I = ideal_span(trunc2, [trunc2.monomial((1, 0))])
    with pytest.raises(ModelError):
        control_witnesses(I, subgroup_from_exponents(trunc2.model, (2, 0)))


def test_dagger_of_cube_span(trunc2):
    I = ideal_span(trunc2, [trunc2.monomial((3, 0))])
    assert dagger_approx(I, 1) == [(0, 0)]
    assert dagger_approx(I, 2) == [(0, 0), (3, 0), (6, 0)]
    # every g - 1 lies in the augmentation ideal; 81 cosets, 3 blocks of <= 36
    M = ideal_span(trunc2, [trunc2.monomial((1, 0)), trunc2.monomial((0, 1))])
    assert dagger_approx(M, 2) == [(a, b) for a in range(9) for b in range(9)]
    with pytest.raises(ValueError):
        dagger_approx(I, 2, budget=10)
    with pytest.raises(ValueError):
        dagger_approx(I, 0)


def test_subalgebra_monomials(trunc2):
    H1 = subgroup_from_exponents(trunc2.model, (1, 0))
    mons = subalgebra_monomials(trunc2, H1)
    assert len(mons) == 15
    assert all(a[0] % 3 == 0 for a in mons)
    H2 = subgroup_from_exponents(trunc2.model, (1, 1))
    assert len(subalgebra_monomials(trunc2, H2)) == 6
    # the centre of the model only keeps direction 1
    mons = subalgebra_monomials(trunc2, trunc2.model.centre)
    assert mons == [a for a in trunc2.basis if a[1] == 0]


def test_subalgebra_ideal_rejects_outside_generators(trunc2):
    H = subgroup_from_exponents(trunc2.model, (1, 0))
    with pytest.raises(ValueError):
        subalgebra_ideal_span(trunc2, H, [trunc2.monomial((1, 0))])


def test_flatness_oracle(trunc2):
    H = subgroup_from_exponents(trunc2.model, (1, 0))
    report = flatness_check(trunc2, H, [trunc2.monomial((3, 0))])
    assert report == {"dim_subalgebra_ideal": 7, "dim_induced_ideal": 15,
                      "dim_intersection": 7, "flat": True}


def test_flatness_seeded(trunc2):
    rng = Pcg32(61)
    p = trunc2.model.p
    for exps in [(1, 0), (1, 1)]:
        H = subgroup_from_exponents(trunc2.model, exps)
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
            assert flatness_check(trunc2, H, gens)["flat"]


def test_zero_prime_filtration_is_the_valuation(trunc3):
    P = CentralPrimeSpec(trunc3, "zero", 2)
    rng = Pcg32(62)
    for _ in range(15):
        x = trunc3.monomial(trunc3.basis[rng.below(trunc3.size)])
        assert induced_filtration(x, P) == x.valuation()
    f = induced_filtration(trunc3.zero(), P)
    assert isinstance(f, AtLeast) and f.bound == 8


def test_graph_prime_filtration(trunc3):
    u = parse_series(trunc3, "b2^2")
    P = CentralPrimeSpec(trunc3, "graph", 2, target=0, u=u)
    gen = P.generator()
    assert gen == parse_series(trunc3, "b1 + 2*b2^2")
    # the target variable inherits the substitution's valuation
    assert induced_filtration(parse_series(trunc3, "b1"), P) == 2
    assert induced_filtration(parse_series(trunc3, "b2"), P) == 1
    assert induced_filtration(parse_series(trunc3, "b3"), P) == 1
    assert induced_filtration(parse_series(trunc3, "b1*b3"), P) == 3
    f = induced_filtration(gen, P)
    assert isinstance(f, AtLeast) and f.bound == 8
    f = induced_filtration(gen * parse_series(trunc3, "b2 + b3"), P)
    assert isinstance(f, AtLeast)


def test_prime_spec_validation(trunc2, trunc3, tzeta):
    with pytest.raises(ModelError):
        CentralPrimeSpec(tzeta, "zero", 1)  # model declares no centre
    with pytest.raises(ModelError):
        CentralPrimeSpec(trunc2, "zero", 2)  # centre is not a leading 2-block
    with pytest.raises(ValueError):
        CentralPrimeSpec(trunc3, "maximal", 2)
    with pytest.raises(ValueError):
        CentralPrimeSpec(trunc3, "graph", 2, target=5,
                         u=parse_series(trunc3, "b2^2"))
    with pytest.raises(ValueError):
        # substitution must not use the target variable
        CentralPrimeSpec(trunc3, "graph", 2, target=0,
                         u=parse_series(trunc3, "b1^2"))
    with pytest.raises(ValueError):
        # substitution must sit strictly above omega of the target
        CentralPrimeSpec(trunc3, "graph", 2, target=0,
                         u=parse_series(trunc3, "b2"))
    with pytest.raises(ValueError):
        CentralPrimeSpec(trunc3, "zero", 2, target=0)


def test_probe_zero_prime(trunc3):
    P = CentralPrimeSpec(trunc3, "zero", 2)
    report = completely_prime_probe(P, samples=100, seed=0)
    assert report["status"] == "pass"
    assert report["violations"] == 0
    assert report["checked"] > 0
    assert report["kernel_checked"] == 0


def test_probe_graph_prime(trunc3):
    u = parse_series(trunc3, "b2^2")
    P = CentralPrimeSpec(trunc3, "graph", 2, target=0, u=u)
    report = completely_prime_probe(P, samples=100, seed=0)
    assert report["status"] == "pass"
    assert report["violations"] == 0
    assert report["checked"] > 0
    assert report["kernel_checked"] == 200


def test_zalesskii_centrally_generated(trunc_heis):
    report = zalesskii_check(trunc_heis, [trunc_heis.monomial((0, 0, 2))])
    assert report["status"] == "controlled"
    assert report["faithful"] is True
    assert report["dim"] == 3
    assert report["tested_directions"] == [1, 2]
    assert report["witnesses"] == []


def test_zalesskii_skips_unfaithful(trunc_heis):
    report = zalesskii_check(trunc_heis, [trunc_heis.monomial((0, 0, 1))])
    assert report["status"] == "skipped"
    assert report["faithful"] is False
    assert report["dim"] == 13
    assert report["dagger"] == [[0, 0, k] for k in range(5)]
    report = zalesskii_check(trunc_heis, [trunc_heis.monomial((1, 0, 0))])
    assert report["status"] == "skipped"
    assert report["dim"] == 22
    assert report["dagger"] == [[k, 0, 0] for k in range(5)]


def test_zalesskii_validation(trunc_heis, tzeta):
    with pytest.raises(ModelError):
        zalesskii_check(tzeta, [tzeta.monomial((1,))])  # no centre declared
    with pytest.raises(ModelError):
        zalesskii_check(trunc_heis, [trunc_heis.monomial((0, 0, 1))],
                        Z=subgroup_from_exponents(trunc_heis.model, (1, 0, 0)))
    with pytest.raises(ModelError):
        # a subgroup containing g1 is not central
        zalesskii_check(trunc_heis, [trunc_heis.monomial((0, 0, 1))],
                        Z=subgroup_from_exponents(trunc_heis.model, (0, 3, 3)))


@pytest.fixture(scope="session")
def heis_dense_generator_mults(trunc_heis_wide):
    """Dense matrices of x -> x*b_j and x -> b_j*x, column by column from
    the group-route product."""
    t = trunc_heis_wide
    d = t.model.rank
    gens = [t.monomial(tuple(1 if i == j else 0 for i in range(d))) for j in range(d)]
    mats = []
    for side in ("right", "left"):
        for bj in gens:
            mat = np.zeros((t.size, t.size), dtype=np.int64)
            for k, a in enumerate(t.basis):
                x = t.monomial(a)
                mat[:, k] = (mul_reference(x, bj) if side == "right"
                             else mul_reference(bj, x)).vector()
            mats.append(mat)
    return mats


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_two_sided_span_matches_dense_group_route(trunc_heis_wide,
                                                  heis_dense_generator_mults, data):
    t = trunc_heis_wide
    p = t.model.p
    gens = [t.from_dict(data.draw(st.dictionaries(
        st.sampled_from(t.basis[1:]), st.integers(1, p - 1), min_size=1, max_size=3)))
        for _ in range(data.draw(st.integers(1, 2)))]
    space = dense_closure(p, t.size, [g.vector() for g in gens],
                          [lambda v, m=m: m @ v % p for m in heis_dense_generator_mults])
    I = ideal_span(t, gens, "two-sided")
    assert np.array_equal(I.rows, space.matrix())
    assert I.pivots == tuple(space.pivots)


def dense_witnesses(I, mask):
    """control_witnesses by dense del_i matrices and one membership test per
    row: the first escaping row in each tested direction."""
    t = I.trunc
    p = t.model.p
    d = t.model.rank
    out = []
    for i in mask:
        e_i = tuple(1 if k == i else 0 for k in range(d))
        mat = operator_matrix(
            t, lambda a: divided_power_reference(t, e_i, t.monomial(a))).mat
        for row in I.rows:
            res = np.array((mat @ row) % p)
            for basis_row, c in zip(I.rows, I.pivots):
                if res[c]:
                    res = (res - res[c] * basis_row) % p
            if res.any():
                out.append({"direction": i + 1,
                            "row": format_series(t.from_vector(row)),
                            "escapes_as": format_series(t.from_vector(res))})
                break
    return out


@pytest.mark.parametrize("fixture,gens,sided", [
    ("trunc3", ["b1 + 2*b2^2 + b1*b3", "b2*b3 + b3^3"], "right"),
    ("trunc_heis", ["b1 + 2*b2^2 + b3", "b2*b3 + 4*b1^2"], "two-sided"),
    ("trunc_heis_wide", ["b2 + 3*b1*b2 + b3^2"], "right"),
    # a unit times a monomial: a monomial ideal, stable in directions 1 and 3
    ("trunc3", ["b1^3*b2 + 2*b1^3*b2*b3", "b2^4"], "right"),
])
def test_control_witnesses_match_dense_route(request, fixture, gens, sided):
    t = request.getfixturevalue(fixture)
    d = t.model.rank
    I = ideal_span(t, [parse_series(t, g) for g in gens], sided)
    H = subgroup_from_exponents(t.model, (1,) * d)
    want = dense_witnesses(I, range(d))
    assert want, "the span should not be controlled by H"
    assert control_witnesses(I, H) == want
    stable = {i + 1 for i in range(d)} - {w["direction"] for w in want}
    assert controller_approx(I).exponents == tuple(
        1 if i + 1 in stable else 0 for i in range(d))


@pytest.mark.parametrize("fixture", ["trunc2", "trunc3"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_abelian_two_sided_span_is_the_right_span(request, fixture, data):
    t = request.getfixturevalue(fixture)
    p = t.model.p
    gens = [t.from_dict(data.draw(st.dictionaries(
        st.sampled_from(t.basis), st.integers(1, p - 1), min_size=1, max_size=3)))
        for _ in range(data.draw(st.integers(1, 2)))]
    right = ideal_span(t, gens, "right")
    two = ideal_span(t, gens, "two-sided")
    assert two.sided == "two-sided"
    assert np.array_equal(two.rows, right.rows) and two.pivots == right.pivots
    # the closure under the maps of both sides
    maps = [t.generator_map(j, side).apply for side in ("right", "left")
            for j in range(t.model.rank)]
    space = dense_closure(p, t.size, [g.vector() for g in gens], maps)
    assert np.array_equal(two.rows, space.matrix())
    # a fresh truncation of the same model builds no left map
    fresh = TruncationSpec(t.model, t.W)
    ideal_span(fresh, [fresh.from_dict(g.coeffs) for g in gens], "two-sided")
    assert fresh._gen_maps and all(side == "right" for side, _ in fresh._gen_maps)


def draw_generators(t, data, monomials):
    """One or two series over the given monomials, each with one term, three
    terms or every monomial, and nonzero coefficients."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    gens = []
    for _ in range(data.draw(st.integers(1, 2))):
        terms = min(data.draw(st.sampled_from([1, 3, len(monomials)])), len(monomials))
        picks = rng.choice(len(monomials), terms, replace=False)
        gens.append(t.from_dict({monomials[k]: int(rng.integers(1, t.model.p))
                                 for k in picks}))
    return gens


@pytest.mark.parametrize("sided", ["right", "two-sided"])
@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "u4"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_spans_match_dense_closure(escape_truncs, name, sided, data):
    t = escape_truncs[name]
    p, d = t.model.p, t.model.rank
    gens = draw_generators(t, data, t.basis[1:])
    # both sides even in the abelian models, where ideal_span applies one
    sides = ("right", "left") if sided == "two-sided" else ("right",)
    want = dense_closure(p, t.size, [g.vector() for g in gens],
                         [t.generator_map(j, side).apply for side in sides
                          for j in range(d)])
    I = ideal_span(t, gens, sided)
    assert np.array_equal(I.rows, want.matrix()) and I.pivots == tuple(want.pivots)
    # the subalgebra of the subgroup G^(p^n), and induction from it
    n = data.draw(st.integers(0, 1))
    H = subgroup_from_exponents(t.model, (n,) * d)
    mons = [a for a in subalgebra_monomials(t, H) if any(a)]
    assume(mons)
    gens = draw_generators(t, data, mons)

    def power(j):
        def apply(v):
            for _ in range(p ** n):
                v = t.generator_map(j).apply(v)
            return v
        return apply
    seeds = [g.vector() for g in gens]
    sub = dense_closure(p, t.size, seeds, [power(j) for j in range(d)]).matrix()
    assert np.array_equal(subalgebra_ideal_span(t, H, gens), sub)
    induced = dense_closure(p, t.size, seeds,
                            [t.generator_map(j).apply for j in range(d)]).matrix()
    meet = intersect_coordinate_subspace(
        induced, p, [t.index[a] for a in subalgebra_monomials(t, H)])
    assert flatness_check(t, H, gens) == {
        "dim_subalgebra_ideal": sub.shape[0], "dim_induced_ideal": induced.shape[0],
        "dim_intersection": meet.shape[0], "flat": np.array_equal(sub, meet)}


@pytest.fixture(scope="session")
def escape_truncs(trunc2, trunc3, trunc_heis_wide, u4):
    return {"abelian2": trunc2, "abelian3": trunc3, "heis": trunc_heis_wide,
            "u4": TruncationSpec(u4, 10)}


@pytest.mark.parametrize("sided", ["right", "two-sided"])
@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "u4"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_escapes_match_full_width_reference(escape_truncs, name, sided, data):
    t = escape_truncs[name]
    p = t.model.p
    # one-term generators give monomial spans in the abelian models, longer
    # ones spans with rows that are not unit vectors
    terms = data.draw(st.integers(1, 3))
    gens = [t.from_dict(data.draw(st.dictionaries(
        st.sampled_from(t.basis[1:]), st.integers(1, p - 1),
        min_size=1, max_size=terms)))
        for _ in range(data.draw(st.integers(1, 2)))]
    spans = [ideal_span(t, gens, sided)]
    # the residuals are defined for any rref span: a drawn monomial span
    # (possibly the whole space), and the span of drawn rows, sparse or dense
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    units = np.flatnonzero(rng.random(t.size) < data.draw(st.sampled_from([0.4, 1.0])))
    spans.append(IdealSpan(t, np.eye(t.size, dtype=np.int64)[units],
                           tuple(int(c) for c in units), sided))
    density = data.draw(st.sampled_from([0.05, 0.3, 1.0]))
    shape = (data.draw(st.integers(0, 12)), t.size)
    rows, pivots = rref(rng.integers(0, p, shape) * (rng.random(shape) < density), p)
    spans.append(IdealSpan(t, rows, tuple(pivots), sided))
    for I in spans:
        refs = [escapes_reference(I, i) for i in range(t.model.rank)]
        for i, ref in enumerate(refs):
            # the first row that escapes, with its full-width residual
            bad = np.flatnonzero(ref.any(axis=1))
            got = _escape(I, i)
            if not bad.size:
                assert got is None
                continue
            k, res = got
            assert k == bad[0]
            assert res == {int(c): int(ref[k, c]) for c in np.flatnonzero(ref[k])}
        want = tuple(0 if ref.any() else 1 for ref in refs)
        try:
            H = subgroup_from_exponents(t.model, want)
        except ModelError as exc:
            with pytest.raises(ModelError, match=re.escape(str(exc))):
                controller_approx(I)
        else:
            assert controller_approx(I).exponents == H.exponents


@pytest.mark.parametrize("sided", ["right", "two-sided"])
@pytest.mark.parametrize("fixture", ["trunc2", "trunc_heis"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_dagger_matches_block_residuals(request, fixture, sided, data):
    t = request.getfixturevalue(fixture)
    model = t.model
    p, rank = model.p, model.rank
    depth = data.draw(st.sampled_from([d for d in (1, 2) if p ** (d * rank) <= 4096]))
    I = ideal_span(t, draw_generators(t, data, t.basis[1:]), sided)
    # lam is kept iff g^lam - 1 has a zero residual against the dense rows
    want = []
    for lam in mi_range((p ** depth - 1,) * rank):
        v = (group_embed(t, model.element(lam)) - t.one()).vector()
        if not reduce_block(I.rows, I.pivots, v[None, :], p).any():
            want.append(lam)
    assert dagger_approx(I, depth) == want
