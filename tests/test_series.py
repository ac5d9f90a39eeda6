"""Truncated series: basis layout, ring structure, embeddings, text forms."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from iwacalc import (
    AtLeast, ModelError, PrecisionError, TruncationSpec, aut_extend,
    Automorphism, format_series, group_embed, load_abelian, parse_series,
    relative_normal_form, series_frobenius,
)
from iwacalc.padic import mi_range, mi_weight
from iwacalc.rng import Pcg32

from oracles import lmul_matrix, mul_reference


def random_series(trunc, rng, terms=3):
    p = trunc.model.p
    out = trunc.zero()
    for _ in range(terms):
        a = trunc.basis[rng.below(trunc.size)]
        out = out + trunc.monomial(a, 1 + rng.below(p - 1))
    return out


def test_basis_sizes(trunc2, trunc_heis, trunc_heis_wide, tzeta):
    assert trunc2.size == 36
    assert trunc_heis.size == 34
    assert trunc_heis_wide.size == 161
    assert tzeta.size == 60


def test_basis_respects_weights():
    m = load_abelian(3, 2, 4, ["1", "2"])
    t = TruncationSpec(m, 4)
    assert t.basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0)]
    assert t.max_exponents == (3, 1)


def test_basis_order_weight_then_lex(trunc2):
    assert trunc2.basis[:6] == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    weights = [trunc2.weight(a) for a in trunc2.basis]
    assert weights == sorted(weights)


def reference_basis(t):
    """Every monomial of the exponent box below the cutoff, sorted by its
    Fraction weight and then by exponent."""
    bounds = [int(t.cutoff / w) for w in t.omega]
    below = [a for a in mi_range(bounds) if mi_weight(a, t.omega) < t.cutoff]
    return sorted(below, key=lambda a: (mi_weight(a, t.omega), a))


def check_weight_layout(t, rng):
    assert t.basis == reference_basis(t)
    assert [t.weight(a) for a in t.basis] == [mi_weight(a, t.omega) for a in t.basis]
    assert all(isinstance(t.weight(a), Fraction) for a in t.basis)
    assert list(t._int_weights) == [mi_weight(a, t.omega) * t.e for a in t.basis]
    outside = tuple(m + 1 for m in t.max_exponents)
    assert t.weight(outside) == mi_weight(outside, t.omega)
    for _ in range(8):
        x = random_series(t, rng, terms=4)
        assert x.support() == sorted(
            x.coeffs, key=lambda a: (mi_weight(a, t.omega), a))
        assert x.valuation() == min(
            (mi_weight(a, t.omega) for a in x.coeffs), default=AtLeast(t.cutoff))


@pytest.mark.parametrize("name", ["trunc2", "trunc3", "trunc_heis", "tzeta",
                                  "trunc_e4"])
def test_weight_layout_matches_fraction_reference(request, name):
    check_weight_layout(request.getfixturevalue(name), Pcg32(5, stream=1))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_weight_layout_for_drawn_valuations(data):
    e = data.draw(st.integers(1, 4))
    rank = data.draw(st.integers(1, 3))
    # p = 5 needs omega > 1/4
    nums = data.draw(st.lists(st.integers(e // 4 + 1, 3 * e),
                              min_size=rank, max_size=rank))
    W = data.draw(st.integers(1, 5 * e))
    model = load_abelian(5, rank, 8, [f"{n}/{e}" for n in nums], e)
    check_weight_layout(TruncationSpec(model, W), Pcg32(data.draw(st.integers(0, 99))))


def test_cutoff_needs_enough_precision():
    m = load_abelian(3, 1, 2, ["1"])
    with pytest.raises(PrecisionError):
        TruncationSpec(m, 10)  # exponent 9 = p^M cannot be a coordinate
    assert TruncationSpec(m, 9).size == 9


def test_monomials_outside_cutoff_vanish(trunc2):
    assert trunc2.monomial((8, 0)).is_zero()
    assert trunc2.monomial((3, 4), 2).coeff((3, 4)) == 2
    with pytest.raises(ValueError):
        trunc2.monomial((-1, 0))


def test_embed_oracle(trunc2):
    g = trunc2.model.element([1, 2])
    emb = group_embed(trunc2, g)
    assert format_series(emb) == "1 + 2*b2 + b1 + b2^2 + 2*b1*b2 + b1*b2^2"


def test_embed_reads_binomial_digits(tzeta):
    emb = group_embed(tzeta, tzeta.model.element([4]))
    # C(4, k) mod 3 = 1, 1, 0, 1, 1
    assert emb == parse_series(tzeta, "1 + b1 + b1^3 + b1^4")


def test_embed_identity_is_one(trunc2):
    assert group_embed(trunc2, trunc2.model.identity()) == trunc2.one()


def test_embedding_is_multiplicative(trunc2, trunc_heis):
    for t, seed in [(trunc2, 31), (trunc_heis, 32)]:
        rng = Pcg32(seed)
        model = t.model
        for _ in range(4):
            g = model.sample_element(rng)
            h = model.sample_element(rng)
            assert group_embed(t, model.mul(g, h)) == \
                mul_reference(group_embed(t, g), group_embed(t, h))


def test_freshman_dream(trunc2):
    b1 = trunc2.monomial((1, 0))
    b2 = trunc2.monomial((0, 1))
    assert (b1 + b2).pow(3) == b1.pow(3) + b2.pow(3)


def test_abelian_fast_path_matches_group_route(trunc2):
    rng = Pcg32(33)
    for _ in range(12):
        x = random_series(trunc2, rng)
        y = random_series(trunc2, rng)
        assert x * y == mul_reference(x, y)


def test_heisenberg_truncation_commutative_at_low_cutoff(trunc_heis):
    b1 = trunc_heis.monomial((1, 0, 0))
    b2 = trunc_heis.monomial((0, 1, 0))
    # the commutator correction enters at weight 10, invisible below W = 6
    assert b2 * b1 == b1 * b2


def test_heisenberg_noncommutative_witness(trunc_heis_wide):
    t = trunc_heis_wide
    b1 = t.monomial((1, 0, 0))
    b2 = t.monomial((0, 1, 0))
    correction = t.monomial((0, 0, 5), 4)
    assert b2 * b1 == b1 * b2 + correction
    assert b1 * b2 != b2 * b1


def test_aut_extend_oracle(tzeta):
    phi = Automorphism.linear_on_log(tzeta.model, [[10]])
    b = tzeta.monomial((1,))
    assert aut_extend(tzeta, phi, b) == parse_series(tzeta, "b1 + b1^9 + b1^10")
    assert aut_extend(tzeta, phi, tzeta.one()) == tzeta.one()


def test_aut_extend_is_multiplicative(trunc_heis):
    phi = Automorphism.inner(trunc_heis.model, trunc_heis.model.basis()[0])
    rng = Pcg32(34)
    for _ in range(3):
        x = random_series(trunc_heis, rng, 2)
        y = random_series(trunc_heis, rng, 2)
        assert aut_extend(trunc_heis, phi, x * y) == \
            aut_extend(trunc_heis, phi, x) * aut_extend(trunc_heis, phi, y)


def test_relative_normal_form(trunc3):
    t = trunc3
    x = parse_series(t, "b1*b2 + 2*b1 + b3 + b2*b3^2")
    parts = relative_normal_form(x, 2)
    assert set(parts) == {(0,), (1,), (2,)}
    assert parts[(0,)] == parse_series(t, "b1*b2 + 2*b1")
    assert parts[(1,)] == t.one()
    assert parts[(2,)] == parse_series(t, "b2")
    total = t.zero()
    for gamma, r in parts.items():
        total = total + r * t.monomial((0, 0) + gamma)
    assert total == x
    with pytest.raises(ValueError):
        relative_normal_form(x, 5)


def test_series_frobenius(trunc2, trunc_heis):
    rng = Pcg32(35)
    for _ in range(6):
        x = random_series(trunc2, rng)
        assert series_frobenius(x, 1) == x.pow(3)
    assert series_frobenius(trunc2.monomial((1, 0)), 2).is_zero()  # b1^9 > W
    with pytest.raises(ValueError):
        series_frobenius(trunc_heis.monomial((1, 0, 0)), 1)


def test_valuation(trunc2):
    assert trunc2.monomial((1, 2)).valuation() == 3
    assert parse_series(trunc2, "b1^3 + b2").valuation() == 1
    w = trunc2.zero().valuation()
    assert isinstance(w, AtLeast) and w.bound == Fraction(8)


def test_format_parse_round_trip(trunc2, trunc_heis):
    for t, seed in [(trunc2, 36), (trunc_heis, 37)]:
        rng = Pcg32(seed)
        for _ in range(10):
            x = random_series(t, rng)
            assert parse_series(t, format_series(x)) == x
    assert format_series(trunc2.zero()) == "0"
    assert parse_series(trunc2, "0").is_zero()
    assert parse_series(trunc2, "2*b1 + b1") == trunc2.zero()


def test_parse_rejects_malformed(trunc2):
    with pytest.raises(ValueError):
        parse_series(trunc2, "b3")
    with pytest.raises(ValueError):
        parse_series(trunc2, "c1")
    with pytest.raises(ValueError):
        parse_series(trunc2, "b1^-2")
    with pytest.raises(ValueError):
        parse_series(trunc2, "1 + + b1")


def test_series_rejects_cross_truncation(trunc2, trunc3):
    with pytest.raises(ValueError):
        trunc2.one() + trunc3.one()


# -- the sparse generator-multiplication kernel -------------------------------

@pytest.fixture(scope="session")
def kernel_truncs(trunc2, trunc3, trunc_heis, trunc_heis_wide):
    return {"abelian2": trunc2, "abelian3": trunc3,
            "heis": trunc_heis, "heis_wide": trunc_heis_wide}


def draw_series(data, t, max_terms):
    coeffs = data.draw(st.dictionaries(
        st.sampled_from(t.basis), st.integers(1, t.model.p - 1), max_size=max_terms))
    return t.from_dict(coeffs)


@pytest.mark.parametrize("name", ["heis", "heis_wide"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_matches_group_route(kernel_truncs, name, data):
    t = kernel_truncs[name]
    x = draw_series(data, t, 5)
    y = draw_series(data, t, 5)
    assert x * y == mul_reference(x, y)


@pytest.mark.parametrize("name", ["abelian3", "heis", "heis_wide"])
def test_generator_maps_match_group_route(kernel_truncs, name):
    t = kernel_truncs[name]
    d = t.model.rank
    for j in range(d):
        bj = t.monomial(tuple(1 if i == j else 0 for i in range(d)))
        right = t.generator_map(j, "right")
        left = t.generator_map(j, "left")
        for a in t.basis:
            x = t.monomial(a)
            assert t.from_vector(right.apply(x.vector())) == mul_reference(x, bj)
            assert t.from_vector(left.apply(x.vector())) == mul_reference(bj, x)


def test_generator_map_rejects_unknown_side(trunc_heis):
    with pytest.raises(ValueError):
        trunc_heis.generator_map(0, "middle")


def test_truncation_rejects_primes_past_int64_sums():
    # (p - 1)^2 alone exceeds 2^63 here; dense and sparse sums would wrap
    model = load_abelian(4294967311, 1, 1, ["1"])
    with pytest.raises(ModelError, match="2\\^63"):
        TruncationSpec(model, 4)


def test_prime_just_under_the_bound_stays_exact():
    p = 1518500213  # the largest prime with 4 * (p - 1)^2 < 2^63
    t = TruncationSpec(load_abelian(p, 1, 1, ["1"]), 4)
    assert t.size == 4 and t.size * (p - 1) ** 2 < 2 ** 63
    x = t.from_dict({(0,): p - 1, (1,): p - 2, (2,): p - 3, (3,): p - 1})
    assert lmul_matrix(t, x).apply(x) == x * x
    assert t.from_vector(t.generator_map(0).apply(x.vector())) == x * t.monomial((1,))


def test_threads_share_lazily_built_maps(heis):
    # a fresh truncation, so the threads race to build the same maps
    t = TruncationSpec(heis, 9)
    rng = Pcg32(38)
    pairs = [(random_series(t, rng), random_series(t, rng)) for _ in range(8)]
    want = [mul_reference(x, y) for x, y in pairs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda xy: xy[0] * xy[1], xy) for xy in pairs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == want
