"""Truncated series: basis layout, ring structure, embeddings, text forms."""

import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iwacalc import (
    AtLeast, ModelError, PrecisionError, TruncatedSeries, TruncationSpec, aut_extend,
    Automorphism, format_series, group_embed, load_abelian, load_unitriangular,
    multi_binom_mod_p, parse_series, series_frobenius,
)
from iwacalc import groups, padic, series
from iwacalc.cli import parse_config, run_config
from iwacalc.control import ideal_span
from iwacalc.operators import _divided_powers
from iwacalc.series import aut_map
from iwacalc.padic import lucas_rows, mi_range, mi_weight, signed_binomials
from iwacalc.rng import Pcg32

from conftest import heisenberg_generators
from oracles import (
    aut_images_reference, dense, format_reference, lmul_matrix, mul_reference,
    relative_normal_form, sample_element, signed_binomials_reference,
)


GOLDEN = Path(__file__).parent / "cli_golden"


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
            g = sample_element(model, rng)
            h = sample_element(model, rng)
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


@pytest.fixture(scope="module")
def aut_truncs(trunc2, trunc3, tzeta, trunc_heis, trunc_heis_wide, u4):
    return {"abelian2": trunc2, "abelian3": trunc3, "zeta": tzeta,
            "heis": trunc_heis, "heis_wide": trunc_heis_wide,
            "u4": TruncationSpec(u4, 8)}


def draw_automorphism(model, data):
    """An inner automorphism by a drawn element, or a linear one: I + pN on
    abelian models, and on the others a shear adding a multiple of the
    central log to the first log coordinate; then perhaps a power of it."""
    p, d = model.p, model.rank
    if data.draw(st.booleans()):
        h = data.draw(st.lists(st.integers(0, p ** model.precision - 1),
                               min_size=d, max_size=d))
        phi = Automorphism.inner(model, model.element(h))
    elif model.kind == "abelian":
        phi = Automorphism.linear_on_log(model, [
            [int(i == j) + p * data.draw(st.integers(0, p - 1)) for j in range(d)]
            for i in range(d)])
    else:
        shear = p * data.draw(st.integers(0, p - 1))
        phi = Automorphism.linear_on_log(model, [
            [int(i == j) + (shear if (i, j) == (d - 1, 0) else 0) for j in range(d)]
            for i in range(d)])
    return phi.power(data.draw(st.sampled_from([1, 1, 2, p, p + 2])))


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "zeta", "heis", "heis_wide", "u4"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_aut_map_matches_the_product_recursion(aut_truncs, name, data):
    """The extension of phi from the group expansion of each b^a against
    the product of the moved generators phi(g_i) - 1, column by column."""
    t = aut_truncs[name]
    phi = draw_automorphism(t.model, data)
    m = aut_map(t, phi)
    assert aut_map(t, phi) is m
    assert np.array_equal(dense(m), aut_images_reference(t, phi))
    x = t.from_dict({a: 1 + k % (t.model.p - 1) for k, a in enumerate(t.basis[::7])})
    assert aut_extend(t, phi, x) == t.from_vector(aut_images_reference(t, phi) @ x.vector())


def test_inner_aut_map_build_inverts_nothing(u4, monkeypatch):
    """The inner automorphism keeps its conjugator's inverse, so the map
    build, which sends every g^c through phi, makes no group inversion."""
    calls = []
    inv = u4.inv
    monkeypatch.setattr(u4, "inv", lambda g: calls.append(g) or inv(g))
    h = u4.basis()[0]
    phi = Automorphism.inner(u4, h)
    assert calls[0] is h and phi.conjugator_inv == inv(h)
    made = len(calls)
    aut_map(TruncationSpec(u4, 12), phi)
    assert len(calls) == made


def test_aut_extend_rejects_series_from_another_truncation(abelian2):
    t6, t8 = TruncationSpec(abelian2, 6), TruncationSpec(abelian2, 8)
    phi = Automorphism.linear_on_log(abelian2, [[1, 0], [3, 1]])
    # a monomial past t6's cutoff, and one that t8 also has
    for t, x in [(t6, t8.monomial((6, 1))), (t8, t6.monomial((1, 0)))]:
        with pytest.raises(ValueError, match="series from a different truncation"):
            aut_extend(t, phi, x)


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


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_format_series_matches_term_by_term_formatter(trunc2, trunc_heis, data):
    t = data.draw(st.sampled_from([trunc2, trunc_heis]))
    x = t.from_dict(data.draw(st.dictionaries(
        st.sampled_from(t.basis), st.integers(0, t.model.p - 1), max_size=8)))
    assert format_series(x) == format_reference(x.coeffs, x.support(), "b")


def test_parse_rejects_malformed(trunc2):
    with pytest.raises(ValueError):
        parse_series(trunc2, "b3")
    with pytest.raises(ValueError):
        parse_series(trunc2, "c1")
    with pytest.raises(ValueError):
        parse_series(trunc2, "b1^-2")
    with pytest.raises(ValueError):
        parse_series(trunc2, "1 + + b1")
    # a dangling ^ read as b1 and b1 + b2; a bad exponent gave int's message
    for text, factor in [("b1^", "b1^"), ("b1^+b2", "b1^"), ("2*b2^ * b1", "b2^"),
                         ("b1^x", "b1^x"), ("bx^2", "bx^2")]:
        with pytest.raises(ValueError, match=re.escape(f"bad factor '{factor}'")):
            parse_series(trunc2, text)
    assert parse_series(trunc2, "b1^2 * b2^0") == trunc2.monomial((2, 0))


def test_series_rejects_cross_truncation(trunc2, trunc3):
    with pytest.raises(ValueError):
        trunc2.one() + trunc3.one()


# -- the sparse generator-multiplication kernel -------------------------------

@pytest.fixture(scope="session")
def kernel_truncs(trunc2, trunc3, trunc_heis, trunc_heis_wide, u4, tzeta):
    p = 1000003  # p^need = p: a table with a row for every residue would be huge
    heis_big = load_unitriangular(p, 3, 3, heisenberg_generators(p), ["1", "1", "2"],
                                  centre_exponents=[3, 3, 0])
    # the largest prime with 20 * (q - 1)^2 < 2^63, for 20 monomials; a
    # product of three residues passes 2^63
    q = 679093949
    return {"abelian2": trunc2, "abelian3": trunc3,
            "heis": trunc_heis, "heis_wide": trunc_heis_wide, "zeta": tzeta,
            "u4": TruncationSpec(u4, 12), "heis_big": TruncationSpec(heis_big, 5),
            "abelian_big": TruncationSpec(load_abelian(q, 3, 2, ["1"] * 3), 4)}


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


@pytest.fixture(scope="session")
def block_truncs(abelian3, heis, u4):
    truncs = {name: TruncationSpec(model, 12)
              for name, model in [("abelian3", abelian3), ("heis", heis), ("u4", u4)]}
    # a full-support series of each, and a cache of the oracle's products
    return {name: (t, t.from_dict({a: 1 + k % (t.model.p - 1)
                                   for k, a in enumerate(t.basis)}), {})
            for name, t in truncs.items()}


@pytest.mark.parametrize("name", ["abelian3", "heis", "u4"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_block_product_matches_group_route(block_truncs, name, data):
    """Row k of `mul_block` is the product of the k-th pair, for blocks
    that hold zero rows, repeated rows and rows of full support."""
    t, full, cache = block_truncs[name]
    drawn = st.one_of(st.just(t.zero()), st.just(full),
                      st.builds(t.from_dict, st.dictionaries(
                          st.sampled_from(t.basis), st.integers(1, t.model.p - 1),
                          max_size=6)))
    pairs = []
    for _ in range(data.draw(st.integers(0, 5))):
        repeat = pairs and data.draw(st.booleans())
        pairs.append(data.draw(st.sampled_from(pairs)) if repeat
                     else (data.draw(drawn), data.draw(drawn)))
    rows, cols, coefs = t.mul_block(t.block([x for x, _ in pairs]),
                                    t.block([y for _, y in pairs]))
    # canonical: sorted by (row, column) without repeats, residues in [1, p)
    keys = rows * t.size + cols
    assert np.all(np.diff(keys) > 0)
    assert np.all((coefs >= 1) & (coefs < t.model.p))
    for k, (x, y) in enumerate(pairs):
        if (x, y) not in cache:
            cache[x, y] = mul_reference(x, y)
        row = rows == k
        assert t.from_dict({t.basis[c]: v for c, v in zip(cols[row].tolist(),
                                                          coefs[row].tolist())}) \
            == cache[x, y]


@pytest.mark.parametrize("name", ["abelian3", "heis", "heis_wide", "u4", "heis_big"])
def test_generator_maps_match_group_route(kernel_truncs, name):
    t = kernel_truncs[name]
    d = t.model.rank
    maps = zip(t.generator_maps(range(d), "right"), t.generator_maps(range(d), "left"))
    for j, (right, left) in enumerate(maps):
        bj = t.monomial(tuple(1 if i == j else 0 for i in range(d)))
        for a in t.basis:
            x = t.monomial(a)
            assert t.from_vector(right.apply(x.vector())) == mul_reference(x, bj)
            assert t.from_vector(left.apply(x.vector())) == mul_reference(bj, x)


@pytest.mark.parametrize("name", ["heis", "heis_big", "u4"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generator_maps_match_group_route_at_drawn_cutoffs(kernel_truncs, name, data):
    """Right and left maps at a drawn cutoff, each side built first on a
    cold truncation for a drawn set of letters, in one block, against the
    group route on drawn monomials.  A left build multiplies by right maps
    it builds itself."""
    model = kernel_truncs[name].model
    d = model.rank
    W = data.draw(st.integers(1, 14), label="W")
    letters = data.draw(st.lists(st.integers(0, d - 1), min_size=1, unique=True))
    t = TruncationSpec(model, W)
    maps = {side: TruncationSpec(model, W).generator_maps(letters, side)
            for side in ("right", "left")}
    monomials = data.draw(st.lists(st.sampled_from(t.basis), min_size=1, max_size=6,
                                   unique=True))
    for j, right, left in zip(letters, maps["right"], maps["left"]):
        bj = t.monomial(tuple(int(i == j) for i in range(d)))
        for a in monomials:
            x = t.monomial(a)
            assert t.from_vector(right.apply(x.vector())) == mul_reference(x, bj)
            assert t.from_vector(left.apply(x.vector())) == mul_reference(bj, x)


@pytest.fixture(scope="session")
def u4_sides(u4):
    """U_4 at W=16, cutoff 8, with all its right and left maps.  There
    [g_1, g_2] = g_4^5 puts b2*b1 - b1*b2 at weight 7.5, inside the cutoff,
    while at W <= 14 the algebra is commutative mod F_W."""
    t = TruncationSpec(u4, 16)
    d = u4.rank
    return t, t.generator_maps(range(d), "right"), t.generator_maps(range(d), "left")


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_u4_generator_maps_tell_left_from_right(u4_sides, data):
    """Each side of b_j on drawn U_4 monomials that hold a letter before j,
    against the group route."""
    t, right, left = u4_sides
    d = t.model.rank
    b1 = t.monomial((1,) + (0,) * (d - 1))
    # b2*b1 is not b1*b2
    assert left[1].apply(b1.vector()).tolist() != right[1].apply(b1.vector()).tolist()
    j = data.draw(st.integers(1, d - 1), label="j")
    before = [a for a in t.basis if any(a[:j])]
    monomials = data.draw(st.lists(st.sampled_from(before), min_size=1, max_size=4,
                                   unique=True))
    bj = t.monomial(tuple(int(i == j) for i in range(d)))
    for a in monomials:
        x = t.monomial(a)
        assert t.from_vector(right[j].apply(x.vector())) == mul_reference(x, bj)
        assert t.from_vector(left[j].apply(x.vector())) == mul_reference(bj, x)


def test_right_maps_reject_a_basis_tail_that_is_no_subgroup():
    # g^c g_j must have coordinates 0 before j; a tampered law that moves
    # the first coordinate of every product breaks that for j = 2
    model = load_unitriangular(5, 3, 3, heisenberg_generators(5), ["1", "1", "2"])
    mul = model._mul_values
    model._mul_values = lambda a, b: [mul(a, b)[0] + 1] + mul(a, b)[1:]
    t = TruncationSpec(model, 9)
    with pytest.raises(ModelError, match=r"g_2 has a nonzero coordinate before 2"):
        t.generator_maps(range(3))
    with pytest.raises(ModelError, match="do not span a subgroup"):
        t.one() * t.monomial((0, 0, 1))


def test_right_maps_embed_one_row_per_tail_image(u4):
    """A cold U_4 right build embeds at most one row per distinct (j, c),
    c a term of the group expansion of the tail of a mover of j, and makes
    one kernel call for the six letters."""
    t = TruncationSpec(u4, 16)
    p, d = u4.p, u4.rank
    embedded, embed = [], t._embed_entries
    t._embed_entries = lambda coords: embedded.append(len(coords)) or embed(coords)
    t.generator_maps(range(d))
    tails, whole = set(), set()
    for j in range(d):
        for a, w in zip(t.basis, t._int_weights.tolist()):
            tail = (0,) * (j + 1) + a[j + 1:]
            if any(tail) and w + t._int_omega[j] < t.W:
                tails |= {(j, c) for c, _ in signed_binomials_reference(tail, p)}
                whole |= {(j, c) for c, _ in signed_binomials_reference(a, p)}
    assert len(embedded) == 1 and embedded[0] <= len(tails)
    # expanding whole monomials would embed several times as many
    assert 3 * len(tails) < len(whole)


def test_maps_without_movers_make_no_kernel_call(abelian3, heis):
    calls = []

    def counted(t):
        group_columns, embed_entries = t._group_columns, t._embed_entries
        t._group_columns = lambda *args: calls.append(("group", len(args[0]))) or \
            group_columns(*args)
        t._embed_entries = lambda coords: calls.append(("embed", len(coords))) or \
            embed_entries(coords)
        return t

    t = counted(TruncationSpec(abelian3, 8))
    for side in ("right", "left"):
        t.generator_maps(range(3), side)
    assert calls == []
    # in Heisenberg nothing passes the last letter on the right
    t = counted(TruncationSpec(heis, 8))
    t.generator_maps([2], "right")
    assert calls == []
    # a left build calls the kernel only to build the right maps it
    # multiplies by, and not at all once they are built
    t.generator_maps([0], "left")
    left = calls[:]
    calls.clear()
    counted(TruncationSpec(heis, 8)).generator_maps(range(3))
    assert left == calls and [k for k, _ in calls] == ["group", "embed"]
    calls.clear()
    t.generator_maps(range(3), "left")
    assert calls == []
    # a two-sided span makes one kernel call: its right maps, from which
    # the left maps are built
    t = counted(TruncationSpec(heis, 8))
    ideal_span(t, [t.monomial((1, 0, 0))], "two-sided")
    assert [k for k, _ in calls] == ["group", "embed"]


def test_generator_maps_reject_letters_outside_the_rank(trunc_heis):
    # -1 must not alias the last letter, nor 3 end in a bare IndexError
    for side in ("right", "left"):
        for j in (-1, 3):
            with pytest.raises(ValueError, match=rf"letter {j} is outside 0\.\.2"):
                trunc_heis.generator_maps([0, j], side)
            assert (side, j) not in trunc_heis._op_cache


@pytest.mark.parametrize("name", ["abelian3", "heis_wide", "zeta", "u4", "heis_big",
                                  "abelian_big"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_embed_rows_match_lucas_binomials(kernel_truncs, name, data):
    t = kernel_truncs[name]
    p, M, d = t.model.p, t.model.precision, t.model.rank
    box = p ** M
    lams = data.draw(st.lists(st.tuples(*[st.integers(0, box - 1)] * d),
                              min_size=1, max_size=4))
    # coordinates that share their low digits, up to the least power of p
    # above every exponent, with a drawn one
    low = p
    while low <= max(t.max_exponents):
        low *= p
    lams += [tuple((x + low * data.draw(st.integers(1, box))) % box for x in lam)
             for lam in lams]
    if low <= 100:
        # every residue below that power, in each coordinate
        lams += [(r,) * d for r in range(low)]
    rows = t._embed_rows(lams)
    assert rows.shape == (len(lams), t.size)
    # the entries route: the nonzeros of each row, its rows in order
    k, cols, coefs = t._embed_entries(lams)
    assert np.array_equal(k, np.sort(k))
    for n, (lam, row) in enumerate(zip(lams, rows)):
        assert row.tolist() == [multi_binom_mod_p(lam, b, p, M) for b in t.basis]
        assert np.array_equal(group_embed(t, t.model.element(lam)).vector(), row)
        order = np.argsort(cols[k == n])
        assert np.array_equal(cols[k == n][order], np.flatnonzero(row))
        assert np.array_equal(coefs[k == n][order], row[row != 0])


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "heis_wide"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ring_results_are_normalised(kernel_truncs, name, data):
    # results built without the constructor's checks must pass them unchanged
    t = kernel_truncs[name]
    p = t.model.p
    x = draw_series(data, t, 8)
    y = draw_series(data, t, 8)
    c = data.draw(st.integers(-3 * p, 3 * p))
    vec = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=t.size,
                             max_size=t.size))
    for r in [x + y, x - y, -x, x.scale(c), x * y, x.pow(3), t.from_vector(vec),
              t.from_vector(np.array(vec, dtype=np.int64))]:
        assert r == TruncatedSeries(t, dict(r.coeffs))
        assert all(type(v) is int for v in r.coeffs.values())


def test_from_vector_checks_its_shape(abelian2):
    t = TruncationSpec(abelian2, 6)
    assert t.size == 21
    for vec in ([1, 2], [1] * 24, [[0] * 21]):
        with pytest.raises(ValueError, match=r"expected \(21,\)"):
            t.from_vector(vec)
    assert t.from_vector([1, 2] + [0] * 19) == parse_series(t, "1 + 2*b2")


def test_from_vector_rejects_non_integers(trunc_heis):
    t, p = trunc_heis, trunc_heis.model.p
    assert t.size == 34
    # 0.5 was cut to 0, leaving 34 explicit zero coefficients
    for vec in (np.full(34, 0.5), np.full(34, 1 + 0j), np.ones(34, dtype=bool),
                np.array([1.0] + [0] * 33, dtype=object)):
        with pytest.raises(ValueError, match="integers"):
            t.from_vector(vec)
    # Python ints in an object array stay exact, however large
    vec = np.array([p ** 30 + 2] + [0] * 32 + [p - 1], dtype=object)
    assert t.from_vector(vec) == t.from_dict({(0, 0, 0): 2, t.basis[-1]: p - 1})
    x = t.monomial((1, 0, 0))
    assert (x * t.zero()).is_zero() and (t.zero() * x).is_zero()


def test_signed_binomial_table_grows_past_the_basis(trunc_heis):
    t = TruncationSpec(trunc_heis.model, 6)  # fresh, so the table stops at the basis
    assert "_pascal" not in vars(t)  # built on first use, not with the basis
    p, top = t.model.p, max(t.max_exponents)
    block = [(0, 0, 0), (top, 1, 0), (top + 4, 0, 2 * p + 1), (1, 3 * p, 2)]
    owner, c, coef = t._signed_binomials(block)
    want = [(n, c_, s) for n, a in enumerate(block)
            for c_, s in signed_binomials_reference(a, p)]
    assert list(zip(owner.tolist(), map(tuple, c.tolist()), coef.tolist())) == want
    assert len(t._pascal) - 1 == 3 * p
    # the divided powers read the grown table as they read the basis one
    alphas = [(1, 0, 0), (2, 1, 0), (top, 0, 1), (top + 1, 0, 0)]
    fresh = TruncationSpec(trunc_heis.model, 6)
    assert _divided_powers(t, alphas) == _divided_powers(fresh, alphas)


def _flatten_every_call(self, exps):
    """`TruncationSpec._signed_binomials` that flattens the whole Pascal table
    with `padic.signed_rows` on every call: the reference for the flat table
    that the truncation keeps."""
    p = self.model.p
    exps = np.asarray(exps, dtype=np.int64).reshape(-1, self.model.rank)
    top = int(exps.max(initial=0))
    if top >= len(self._pascal):
        self._pascal = lucas_rows(np.arange(top + 1), top, p)
    return signed_binomials(padic.signed_rows(self._pascal, p), exps, p)


def test_signed_rows_are_flattened_once_per_table(heis, monkeypatch):
    """`padic.signed_rows` runs once per size of the Pascal table, over a cold
    two-sided Heisenberg span and the zeta golden config, and the maps and
    records are those of flattening the table on every call."""
    flattened, expansions = [], []
    flatten, expand = series.signed_rows, TruncationSpec._signed_binomials
    monkeypatch.setattr(series, "signed_rows", lambda pascal, p:
                        flattened.append(len(pascal)) or flatten(pascal, p))
    monkeypatch.setattr(TruncationSpec, "_signed_binomials", lambda self, exps:
                        expansions.append(len(exps)) or expand(self, exps))
    t = TruncationSpec(heis, 11)
    gens = [parse_series(t, "b1 + 2*b2^2 + b3"), parse_series(t, "b2*b3 + 4*b1^2")]
    span = ideal_span(t, gens, "two-sided")
    cfg = parse_config(json.loads(
        (GOLDEN / "zeta.json").read_text(encoding="utf-8")))
    zeta = run_config(cfg)
    assert len(flattened) == len(set(flattened)) < len(expansions)
    monkeypatch.setattr(TruncationSpec, "_signed_binomials", _flatten_every_call)
    ref = TruncationSpec(heis, 11)
    ref_span = ideal_span(ref, [ref.from_dict(g.coeffs) for g in gens], "two-sided")
    assert np.array_equal(span.rows, ref_span.rows) and span.pivots == ref_span.pivots
    assert t._op_cache.keys() == ref._op_cache.keys()
    for key, m in t._op_cache.items():
        r = ref._op_cache[key]
        assert all(getattr(m, a).tobytes() == getattr(r, a).tobytes()
                   for a in ("tgt", "src", "coef")), key
    assert run_config(cfg) == zeta


def test_bench_set_up_compares_integers(monkeypatch):
    """Loading the benchmark's abelian rank-3 model and its Heisenberg model
    with centre, and building their truncations, reads no `Val`:
    `padic.val_min` does not run, `GroupModel` has no `Val` reader of an
    element, and the `Val` sums and digit valuations that the checks once
    ran on are not in the package."""
    calls = []
    for module in (padic, groups, series):
        assert not hasattr(module, "val_add") and not hasattr(module, "residue_vp")
    assert not hasattr(groups.GroupModel, "omega_of")
    val_min = padic.val_min
    monkeypatch.setattr(padic, "val_min", lambda *a: calls.append("val_min") or val_min(*a))
    abelian = load_abelian(3, 3, 4, ["1", "1", "1"])
    heisenberg = load_unitriangular(5, 3, 3, heisenberg_generators(5), ["1", "1", "2"],
                                    centre_exponents=[3, 3, 0])
    for model, W in [(abelian, 14), (abelian, 16), (heisenberg, 9), (heisenberg, 12)]:
        TruncationSpec(model, W)
    assert calls == []
    # the counter counts
    assert padic.val_min([AtLeast(4), 5]) == AtLeast(4)
    assert calls == ["val_min"]


def test_generator_map_rejects_unknown_side(trunc_heis):
    with pytest.raises(ValueError):
        trunc_heis.generator_maps([0], "middle")


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
    [b1] = t.generator_maps([0])
    assert t.from_vector(b1.apply(x.vector())) == x * t.monomial((1,))


def test_threads_share_lazily_built_maps(heis):
    # a fresh truncation, so the threads race to build the same maps and
    # Lucas rows; the oracle runs on another one
    t, ref = TruncationSpec(heis, 9), TruncationSpec(heis, 9)
    rng = Pcg32(38)
    pairs = [(random_series(t, rng), random_series(t, rng)) for _ in range(8)]
    want = [mul_reference(ref.from_dict(x.coeffs), ref.from_dict(y.coeffs)).coeffs
            for x, y in pairs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda xy: xy[0] * xy[1], xy) for xy in pairs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert [g.coeffs for g in got] == want
