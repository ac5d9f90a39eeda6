"""Ideal spans, control by subgroups, flat induction and central primes."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from iwacalc import (
    AtLeast, CentralPrimeSpec, ModelError, completely_prime_probe,
    control_witnesses, controller_approx, dagger_approx, flatness_check,
    ideal_span, induced_filtration, is_controlled_by, load_abelian, parse_series,
    subalgebra_ideal_span, subalgebra_monomials, subgroup_from_exponents,
    zalesskii_check,
)
from iwacalc import control, operators
from iwacalc.cli import parse_config, run_config
from iwacalc.control import IdealSpan, _escape
from iwacalc.linalg import residual
from iwacalc.padic import mi_range, power
from iwacalc.rng import Pcg32
from iwacalc.series import SparseMap, TruncationSpec, format_series, group_embed

from oracles import (
    DenseRowSpace, close_span_reference, dense, dense_closure,
    divided_power_reference, divided_powers_reference, embed_rows_reference,
    escapes_reference, induced_filtration_reference, intersect_coordinate_subspace,
    mat_pow, mul_reference, operator_matrix, reduce_block, rref,
)

GOLDEN = Path(__file__).parent / "cli_golden"


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


def test_contains_vector_rejects_non_integers(abelian2):
    t = TruncationSpec(abelian2, 6)
    I = ideal_span(t, [t.monomial((1, 0))])
    # 0.5 * e_const was cut to 0, which lies in every ideal
    for vec in (0.5 * t.one().vector(), t.one().vector().astype(complex),
                t.one().vector().astype(bool)):
        with pytest.raises(ValueError, match="integers"):
            I.contains_vector(vec)
    assert I.contains_vector(np.array(t.monomial((1, 0)).vector().tolist(), dtype=object))


def test_span_equality_is_equality_of_subspaces(trunc2):
    t = trunc2
    b1 = ideal_span(t, [t.monomial((1, 0))])
    # the same ideal from other generators, from both sides (the model is
    # abelian), and rebuilt from its dense rows, also from rows that agree
    # with them mod p: p added to each nonzero entry, huge ints in an object
    # array, and an explicit entry p where a zero stood
    p = t.model.p
    explicit = b1.rows.copy()
    explicit[explicit == 0] = p
    same = [ideal_span(t, [t.monomial((1, 0)), t.monomial((2, 1))]),
            ideal_span(t, [t.monomial((1, 0))], "two-sided"),
            IdealSpan(t, b1.rows, b1.pivots, "right"),
            IdealSpan(t, np.where(b1.rows, b1.rows + p, 0), b1.pivots, "right"),
            IdealSpan(t, b1.rows.astype(object) + p ** 50, b1.pivots, "right"),
            IdealSpan(t, explicit, b1.pivots, "right")]
    assert b1.dim > 1 and all(b1 == J and hash(b1) == hash(J) for J in same)
    # rows that are not integers, or not dim x size, are refused
    for bad in (b1.rows + 0.4, b1.rows.astype(bool), b1.rows.reshape(-1),
                b1.rows.reshape(t.size, b1.dim), b1.rows[:-1]):
        with pytest.raises(ValueError):
            IdealSpan(t, bad, b1.pivots, "right")
    b2 = ideal_span(t, [t.monomial((0, 1))])
    # equal pivots, other rows; the same subspace of another truncation
    rows = np.zeros((2, t.size), dtype=np.int64)
    rows[:, 1] = 1
    rows[:, 5] = [1, 2]
    fresh = TruncationSpec(t.model, t.W)
    others = [b2, IdealSpan(t, rows[:1], (1,), "right"),
              IdealSpan(t, rows[1:], (1,), "right"),
              ideal_span(fresh, [fresh.monomial((1, 0))])]
    assert all(b1 != J for J in others) and others[1] != others[2]
    assert len({b1, *same, *others}) == 1 + len(others)
    assert b1 != b1.rows.tolist()


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


def test_escapes_are_shared_between_control_calls(trunc3, monkeypatch):
    """control_witnesses and controller_approx on one span settle every
    direction in one block residual: 1 in rank 3 with a one-direction mask,
    not one per direction, with the answers of spans that start with none
    kept."""
    t = trunc3
    I = ideal_span(t, [t.monomial((1, 0, 0)) + t.monomial((0, 2, 1))])
    H = subgroup_from_exponents(t.model, (1, 0, 0))
    want = (control_witnesses(IdealSpan(t, I.reduced, I.pivots, I.sided), H),
            controller_approx(IdealSpan(t, I.reduced, I.pivots, I.sided)))
    assert want[0]  # direction 1 escapes, so its witness is not empty
    residual = control.residual
    calls = []

    def counted(*block):
        calls.append(1)
        return residual(*block)

    monkeypatch.setattr(control, "residual", counted)
    assert (control_witnesses(I, H), controller_approx(I)) == want
    assert len(calls) == 1
    assert (control_witnesses(I, H), controller_approx(I)) == want
    assert len(calls) == 1


def count_divided_power_calls(monkeypatch) -> tuple[list, list]:
    """(builds, passes) from now on: the alphas of every `_divided_powers`
    call, which builds whole-basis maps, and of every pass of the kernel
    `_divided_power_slices`, whatever its block."""
    build, kernel = operators._divided_powers, operators._divided_power_slices
    builds, passes = [], []
    monkeypatch.setattr(operators, "_divided_powers", lambda trunc, alphas:
                        builds.append(list(alphas)) or build(trunc, alphas))
    monkeypatch.setattr(operators, "_divided_power_slices", lambda trunc, alphas, block=None:
                        passes.append(list(alphas)) or kernel(trunc, alphas, block))
    return builds, passes


def test_control_calls_apply_the_first_divided_powers_in_one_pass(monkeypatch):
    """control_witnesses for a one-direction mask, then controller_approx,
    on a fresh truncation of the ideal-closure benchmark's model (abelian
    rank 3 at W=14) apply del_1, del_2 and del_3 to the span's rows in one
    kernel pass, and build no map."""
    t = TruncationSpec(load_abelian(3, 3, 4, ["1", "1", "1"]), 14)
    I = ideal_span(t, [t.monomial((1, 0, 3)), t.monomial((0, 5, 0))])
    builds, passes = count_divided_power_calls(monkeypatch)
    assert control_witnesses(I, subgroup_from_exponents(t.model, (0, 0, 1))) == []
    assert controller_approx(I).exponents == (0, 0, 1)
    assert passes == [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    assert builds == []


def test_zalesskii_task_applies_the_first_divided_powers_in_one_pass(monkeypatch):
    """The first zalesskii task of the heisenberg golden config tests two
    directions of a faithful span with one kernel pass and no map built."""
    doc = json.loads((GOLDEN / "heisenberg.json").read_text(encoding="utf-8"))
    doc["tasks"] = doc["tasks"][:1]
    builds, passes = count_divided_power_calls(monkeypatch)
    [record] = run_config(parse_config(doc))
    assert record["metrics"]["observed"] == "controlled"
    assert len(passes) == 1
    assert builds == []


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


@pytest.fixture(scope="session")
def filtration_primes(trunc3):
    # e = 2: weights in (1/2)Z, cutoff 6
    e2 = TruncationSpec(load_abelian(3, 3, 4, ["1", "1", "3/2"], e=2,
                                     centre_exponents=[0, 0, 4]), 12)
    return [CentralPrimeSpec(trunc3, "zero", 2),
            CentralPrimeSpec(trunc3, "graph", 2, 0, parse_series(trunc3, "b2^2")),
            CentralPrimeSpec(trunc3, "graph", 2, 1, parse_series(trunc3, "b1^2 + 2*b1^3")),
            CentralPrimeSpec(e2, "zero", 2),
            CentralPrimeSpec(e2, "graph", 2, 1, parse_series(e2, "b1^2 + b1^3"))]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_filtrations_match_the_oracle(filtration_primes, data):
    P = data.draw(st.sampled_from(filtration_primes))
    t = P.trunc
    series = data.draw(st.lists(st.builds(t.from_dict, st.dictionaries(
        st.sampled_from(t.basis), st.integers(1, t.model.p - 1), max_size=6)),
        max_size=6))
    if P.kind == "graph":
        # elements of the induced ideal, whose filtration is only bounded
        series += [P.generator() * x for x in series[:3]]
    want = [induced_filtration_reference(x, P) for x in series]
    assert [t.val(f) for f in P.filtrations(t.block(series), len(series))] == want
    assert [induced_filtration(x, P) for x in series] == want


def test_filtration_bounds_and_demotion(trunc3):
    t = trunc3
    P = CentralPrimeSpec(t, "graph", 2, 0, parse_series(t, "b2^2"))
    b3 = parse_series(t, "b3")
    cases = [
        (t.zero(), AtLeast(Fraction(8))),
        # tau(b1^3) = b2^6, and 6 + w(b3^2) reaches the cutoff 8: demoted
        (parse_series(t, "b1^3*b3^2"), AtLeast(Fraction(8))),
        # r_gamma = b1 - b2^2 for gamma = (1), and tau(r_gamma) = 0: only the
        # bound 8 + w(b3) is known
        (P.generator() * b3, AtLeast(Fraction(9))),
        # an exact value below the cutoff wins over every bound
        (P.generator() * b3 + b3.pow(3), 3),
        (parse_series(t, "b1^3*b3^2 + b2*b3"), 2),
    ]
    series = [x for x, _ in cases]
    want = [v for _, v in cases]
    assert [induced_filtration_reference(x, P) for x in series] == want
    assert [t.val(f) for f in P.filtrations(t.block(series), len(series))] == want
    assert [induced_filtration(x, P) for x in series] == want


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
    report = completely_prime_probe(P, Pcg32(0, stream=31), samples=100)
    assert report["status"] == "pass"
    assert report["violations"] == 0
    assert report["checked"] > 0
    assert report["kernel_checked"] == 0


def test_probe_graph_prime(trunc3):
    u = parse_series(trunc3, "b2^2")
    P = CentralPrimeSpec(trunc3, "graph", 2, target=0, u=u)
    report = completely_prime_probe(P, Pcg32(0, stream=31), samples=100)
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


def test_zalesskii_ideal_of_b3_squared_holds_g3_to_the_fifth(heis):
    """g_3^5 - 1 = b3^5 = b3^2 * b3^3, of weight 10 < W/e, lies in the
    two-sided span of b3^2 at W = 12 and 16, so that ideal is not faithful."""
    for W in (12, 16):
        t = TruncationSpec(heis, W)
        I = ideal_span(t, [t.monomial((0, 0, 2))], "two-sided")
        witness = group_embed(t, heis.element((0, 0, 5))) - t.one()
        assert witness == t.monomial((0, 0, 5)) and I.contains(witness)


@pytest.mark.xfail(strict=True, reason="faithful only means that the depth-1 dagger "
                   "box [0, p)^d holds no lam != 0; g_3^5 lies outside it")
def test_zalesskii_ideal_of_b3_squared_is_not_faithful(heis):
    for W in (12, 16):
        t = TruncationSpec(heis, W)
        assert zalesskii_check(t, [t.monomial((0, 0, 2))])["faithful"] is False


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
    maps = [m.apply for side in ("right", "left")
            for m in t.generator_maps(range(t.model.rank), side)]
    space = dense_closure(p, t.size, [g.vector() for g in gens], maps)
    assert np.array_equal(two.rows, space.matrix())
    # a fresh truncation of the same model builds no generator map
    fresh = TruncationSpec(t.model, t.W)
    ideal_span(fresh, [fresh.from_dict(g.coeffs) for g in gens], "two-sided")
    assert not {key[0] for key in fresh._op_cache} & {"right", "left"}


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
                         [m.apply for side in sides
                          for m in t.generator_maps(range(d), side)])
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
                v = t.generator_maps([j])[0].apply(v)
            return v
        return apply
    seeds = [g.vector() for g in gens]
    sub = dense_closure(p, t.size, seeds, [power(j) for j in range(d)]).matrix()
    assert np.array_equal(subalgebra_ideal_span(t, H, gens).rows, sub)
    induced = dense_closure(p, t.size, seeds,
                            [m.apply for m in t.generator_maps(range(d))]).matrix()
    meet = intersect_coordinate_subspace(
        induced, p, [t.index[a] for a in subalgebra_monomials(t, H)])
    assert flatness_check(t, H, gens) == {
        "dim_subalgebra_ideal": sub.shape[0], "dim_induced_ideal": induced.shape[0],
        "dim_intersection": meet.shape[0], "flat": np.array_equal(sub, meet)}


@pytest.fixture(scope="session")
def escape_truncs(trunc2, trunc3, trunc_heis_wide, u4):
    return {"abelian2": trunc2, "abelian3": trunc3, "heis": trunc_heis_wide,
            "u4": TruncationSpec(u4, 10)}


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "u4"])
def test_subalgebra_power_maps_are_matrix_powers(escape_truncs, name):
    # x -> x*b_j^{p^n}, the maps the subalgebra span is closed under
    t = escape_truncs[name]
    p = t.model.p
    one = SparseMap.identity(p, t.size)
    for step in t.generator_maps(range(t.model.rank)):
        for n in range(min(t.model.precision, 3)):
            composed = power(step, p ** n, one, SparseMap.compose)
            assert composed.coef.all() and composed.size == t.size
            assert np.array_equal(dense(composed), mat_pow(dense(step), p ** n, p))


@pytest.mark.parametrize("sided", ["right", "two-sided"])
def test_spans_of_no_generators_and_of_zero(escape_truncs, sided):
    for t in escape_truncs.values():
        d = t.model.rank
        for gens in ([], [t.zero()], [t.zero(), t.zero()]):
            I = ideal_span(t, gens, sided)
            assert I.dim == 0 and I.pivots == () and I.rows.shape == (0, t.size)
            assert I.contains(t.zero()) and not I.contains(t.one())
            assert not control_witnesses(I, subgroup_from_exponents(t.model, (1,) * d))
            H = subgroup_from_exponents(t.model, (0,) * d)
            assert subalgebra_ideal_span(t, H, gens) == I
        # a zero generator beside a nonzero one changes nothing
        g = t.monomial(t.basis[1]) + t.monomial(t.basis[-1])
        assert ideal_span(t, [t.zero(), g, t.zero()], sided) == ideal_span(t, [g], sided)
        # the trivial subgroup: no maps, so the span of the generators alone
        trivial = subgroup_from_exponents(t.model, (t.model.precision,) * d)
        assert subalgebra_ideal_span(t, trivial, [t.one().scale(2)]).dim == 1


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


def per_direction_escape(I: IdealSpan, i: int):
    """`_escape` by the route of one map per direction: del_i built over the
    whole basis (`oracles.divided_powers_reference`), applied to the rows of
    I, and that block's residual against the span on its own."""
    t, R = I.trunc, I.reduced
    [d_i] = divided_powers_reference(t, [tuple(int(j == i) for j in range(t.model.rank))])
    at, cols, coefs = residual(*d_i.apply_entries(R.src, R.tgt, R.coef), R, I.pivots)
    if not at.size:
        return None
    first = at == at[0]
    return int(at[0]), dict(zip(cols[first].tolist(), coefs[first].tolist()))


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "u4"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_escapes_match_the_per_direction_map_route(escape_truncs, name, data):
    """Every direction's escape, settled for all directions in one kernel
    pass and one residual, equals the per-direction map route: on ideal
    spans of drawn generators, on spans of drawn unit rows, which mostly
    escape, on the zero span and on the whole space."""
    t = escape_truncs[name]
    p, size = t.model.p, t.size
    gens = [t.from_dict(data.draw(st.dictionaries(
        st.sampled_from(t.basis[1:]), st.integers(1, p - 1), min_size=1, max_size=3)))
        for _ in range(data.draw(st.integers(1, 2)))]
    units = sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=12)))
    # the span of b_1 alone escapes in direction 1: del_1 b_1 = 1 + b_1
    b1 = [t.index[tuple(int(j == 0) for j in range(t.model.rank))]]
    eye = np.eye(size, dtype=np.int64)
    spans = [ideal_span(t, gens, data.draw(st.sampled_from(["right", "two-sided"]))),
             IdealSpan(t, eye[units], units, "right"), IdealSpan(t, eye[b1], b1, "right"),
             IdealSpan(t, eye[:0], (), "right"), IdealSpan(t, eye, range(size), "right")]
    for I in spans:
        want = [per_direction_escape(I, i) for i in range(t.model.rank)]
        assert [_escape(I, i) for i in range(t.model.rank)] == want
    assert _escape(spans[2], 0) == (0, {0: 1})
    # the zero span and the whole space are stable in every direction
    assert not any(_escape(I, i) for I in spans[3:] for i in range(t.model.rank))


@pytest.mark.parametrize("sided", ["right", "two-sided"])
@pytest.mark.parametrize("fixture", ["trunc2", "trunc_heis"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_dagger_matches_block_residuals(request, fixture, sided, data):
    t = request.getfixturevalue(fixture)
    p, rank = t.model.p, t.model.rank
    depth = data.draw(st.sampled_from([d for d in (1, 2) if p ** (d * rank) <= 4096]))
    I = ideal_span(t, draw_generators(t, data, t.basis[1:]), sided)
    # lam is kept iff g^lam - 1 has a zero residual against the dense rows
    lams = list(mi_range((p ** depth - 1,) * rank))
    kept = ~reduce_block(I.rows, I.pivots, embed_minus_one(t, lams), p).any(axis=1)
    assert dagger_approx(I, depth) == [lam for lam, k in zip(lams, kept) if k]


def embed_minus_one(t, lams):
    """The dense rows of g^lam - 1 from the oracle's embedding, which
    shares no kernel with `dagger_approx`; C(lam, 0) = 1 at column 0."""
    block = embed_rows_reference(t, lams)
    block[:, 0] -= 1
    return block


def object_vectors(rng, p, vecs):
    """Each vector shifted by random multiples of p, some of them negative
    and some past 2^63, as an object array of Python ints."""
    out = []
    for v in vecs:
        shift = rng.integers(-3, 4, v.size).tolist()
        big = rng.integers(0, 2, v.size).tolist()
        out.append(np.array([int(x) + p * (s + b * (1 << 70))
                             for x, s, b in zip(v.tolist(), shift, big)], dtype=object))
    return out


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "u4"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_block_residuals_match_dense_oracles(escape_truncs, name, data):
    """contains, contains_vector and dagger_approx against the dense
    residuals of `DenseRowSpace` and `reduce_block`, on ideal spans, the
    zero span, the whole space and dense rref spans."""
    t = escape_truncs[name]
    p, rank = t.model.p, t.model.rank
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    kind = data.draw(st.sampled_from(["ideal", "zero", "whole", "dense"]))
    if kind == "ideal":
        I = ideal_span(t, draw_generators(t, data, t.basis[1:]),
                       data.draw(st.sampled_from(["right", "two-sided"])))
    elif kind == "zero":
        I = IdealSpan(t, np.zeros((0, t.size), dtype=np.int64), (), "right")
    elif kind == "whole":
        I = IdealSpan(t, np.eye(t.size, dtype=np.int64), range(t.size), "right")
    else:
        shape = (data.draw(st.integers(1, 12)), t.size)
        rows, pivots = rref(rng.integers(0, p, shape), p)
        I = IdealSpan(t, rows, tuple(pivots), "two-sided")
    members = rng.integers(0, p, (4, I.dim)) @ I.rows % p
    vecs = list(members) + list(rng.integers(0, p, (4, t.size)))
    vecs[-1] = np.zeros(t.size, dtype=np.int64)
    vecs[-2] = vecs[0] + p  # a member with entries in [p, 2p)
    vecs += object_vectors(rng, p, vecs)
    space = DenseRowSpace(p, t.size)
    for row in I.rows:
        space.add(row)
    assert np.array_equal(space.matrix(), I.rows) and space.pivots == list(I.pivots)
    # the same span with its dense rows unread: no test below builds them
    J = IdealSpan(t, I.reduced, I.pivots, I.sided)
    for v in vecs:
        want = not space.residual(np.array([int(x) % p for x in v])).any()
        assert J.contains_vector(v) == want
        assert J.contains(t.from_vector(v)) == want
    if rank == 6:  # 5^6 candidates: over the default budget
        with pytest.raises(ValueError, match="budget"):
            dagger_approx(J, 1)
    else:
        lams = list(mi_range((p - 1,) * rank))
        kept = ~reduce_block(I.rows, I.pivots, embed_minus_one(t, lams), p).any(axis=1)
        assert dagger_approx(J, 1) == [lam for lam, k in zip(lams, kept) if k]
    assert "rows" not in vars(J)


def test_dagger_crosses_candidate_chunks(escape_truncs):
    """The U_4 dagger at depth 1: 15,625 candidates, embedded 2,048 at a
    time.  Those kept, the powers of g_1, lie in five different chunks."""
    t = escape_truncs["u4"]
    p, rank = t.model.p, t.model.rank
    I = ideal_span(t, [t.monomial((1, 0, 0, 0, 0, 0))], "two-sided")
    lams = list(mi_range((p - 1,) * rank))
    kept = ~reduce_block(I.rows, I.pivots, embed_minus_one(t, lams), p).any(axis=1)
    want = [lam for lam, k in zip(lams, kept) if k]
    assert want == [(k, 0, 0, 0, 0, 0) for k in range(p)]
    assert dagger_approx(I, 1, budget=20000) == want


def side_maps(t, sides):
    return [m for side in sides for m in t.generator_maps(range(t.model.rank), side)]


def assert_same_bytes(got, want):
    """Equal spans down to the bytes of R's targets, sources and
    coefficients, and equal pivots."""
    assert got.pivots == want.pivots
    for a, b in zip((got.reduced.tgt, got.reduced.src, got.reduced.coef),
                    (want.reduced.tgt, want.reduced.src, want.reduced.coef)):
        assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes()


def closure_bench_generators(t, seed):
    """The generators b^alpha*u1 and b^beta*u2 of the ideal-closure bench
    ops at t.W, drawn as they draw them: a monomial ideal of the abelian
    rank-3 model, alpha = 3*e_h + e_(h+1) and beta = 5*e_(h+2), h = W mod 3,
    times units that are 1 plus three seeded terms."""
    d, p, W = 3, 3, t.W
    h = W % d
    alpha = tuple(p * (i == h) + (i == (h + 1) % d) for i in range(d))
    beta = tuple(5 * (i == (h + 2) % d) for i in range(d))
    rng = random.Random(f"ideal-closure/{seed}/{W}")

    def unit():
        u = {(0,) * d: 1}
        while len(u) < 4:
            a = tuple(p * rng.randrange(2) if i == h else rng.randrange(3)
                      for i in range(d))
            if any(a):
                u[a] = rng.randint(1, p - 1)
        return t.from_dict(u)
    return [t.monomial(alpha) * unit(), t.monomial(beta) * unit()]


@pytest.fixture(scope="module")
def bench_abelian():
    return load_abelian(3, 3, 4, ["1", "1", "1"])


@pytest.mark.parametrize("W", [14, 16])
def test_bench_spans_match_the_frontier_closure(bench_abelian, W):
    """The four ideal-closure bench ops: the block of monomial multiples
    gives the bytes of the closure under the maps of both sides."""
    t = TruncationSpec(bench_abelian, W)
    gens = closure_bench_generators(t, seed=1)
    for sided, sides in (("right", ("right",)), ("two-sided", ("right", "left"))):
        want = close_span_reference(t, gens, side_maps(t, sides), sided)
        assert_same_bytes(ideal_span(t, gens, sided), want)


def test_large_closure_matches_the_frontier_closure(bench_abelian):
    t = TruncationSpec(bench_abelian, 20)
    gens = [parse_series(t, g) for g in ("b1^3*b2 + b1*b3^2 + 2*b2^4",
                                         "b3^5 + b1^2*b2^2*b3")]
    want = close_span_reference(t, gens, side_maps(t, ("right",)), "right")
    assert_same_bytes(ideal_span(t, gens, "right"), want)


@pytest.mark.parametrize("model,W,gens", [
    ("heis", 9, ["b1 + 2*b2^2 + b3", "b2*b3 + 4*b1^2"]),
    ("heis", 9, ["b3^2"]),
    ("heis", 12, ["b1 + 2*b2^2 + b3", "b2*b3 + 4*b1^2"]),
    ("heis", 12, ["b1^2 + 3*b2"]),
    ("u4", 12, ["b1^2*b2 + b4", "b3^3 + 2*b6"]),
    ("u4", 12, ["b6^2 + b6^3"]),
])
def test_unitriangular_spans_match_the_frontier_closure(request, model, W, gens):
    """Two-sided: the right ideal's block, closed under the left maps
    alone, against the closure under the maps of both sides; and right."""
    t = TruncationSpec(request.getfixturevalue(model), W)
    gens = [parse_series(t, g) for g in gens]
    for sided, sides in (("two-sided", ("right", "left")), ("right", ("right",))):
        want = close_span_reference(t, gens, side_maps(t, sides), sided)
        assert_same_bytes(ideal_span(t, gens, sided), want)


def test_spans_build_one_block(monkeypatch, abelian3, heis):
    """An abelian span, right or two-sided, is one product-kernel call and
    one `RowSpace.add`, and builds no generator map; a unitriangular
    two-sided span builds the left maps for its frontiers, a right one
    none; a subalgebra span composes no map."""
    calls = []
    for cls, name in ((TruncationSpec, "_term_products"), (control.RowSpace, "add"),
                      (SparseMap, "compose")):
        def counted(*args, _f=getattr(cls, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(cls, name, counted)
    for sided in ("right", "two-sided"):
        t = TruncationSpec(abelian3, 10)
        calls.clear()
        ideal_span(t, [parse_series(t, "b1^2 + b2*b3"), parse_series(t, "b3^3")], sided)
        assert calls == ["_term_products", "add"]
        assert not t._op_cache
    for sided in ("right", "two-sided"):
        t = TruncationSpec(heis, 8)
        ideal_span(t, [parse_series(t, "b1 + b3^2")], sided)
        left = {key for key in t._op_cache if key[0] == "left"}
        assert left == ({("left", j) for j in range(3)} if sided == "two-sided" else set())
    t = TruncationSpec(heis, 8)
    H = subgroup_from_exponents(heis, (1, 1, 1))
    calls.clear()
    subalgebra_ideal_span(t, H, [parse_series(t, "b1^5 + b3^5")])
    assert "compose" not in calls and calls.count("add") == 1
