"""Ideal spans, control by subgroups, flat induction and central primes."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iwacalc import (
    AtLeast, CentralPrimeSpec, ModelError, completely_prime_probe,
    control_witnesses, controller_approx, dagger_approx, flatness_check,
    ideal_span, induced_filtration, is_controlled_by, parse_series,
    subalgebra_ideal_span, subalgebra_monomials, subgroup_from_exponents,
    zalesskii_check,
)
from iwacalc.linalg import RowSpace
from iwacalc.operators import divided_power
from iwacalc.rng import Pcg32
from iwacalc.series import format_series

from oracles import mul_reference, operator_matrix


def test_principal_span_dimension(trunc2):
    I = ideal_span(trunc2, [trunc2.monomial((1, 0))])
    assert I.dim == 28
    # abelian right ideal: exactly the monomial multiples of b1
    assert I.contains(parse_series(trunc2, "b1*b2^3 + 2*b1^4"))
    assert not I.contains(parse_series(trunc2, "b1 + b2"))


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
    space = RowSpace(p, t.size)
    queue = [g.vector() for g in gens]
    while queue:
        v = queue.pop()
        if space.add(v):
            queue.extend(m @ v % p for m in heis_dense_generator_mults)
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
        mat = operator_matrix(t, lambda a: divided_power(t, e_i, t.monomial(a))).mat
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
