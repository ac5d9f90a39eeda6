"""Divided powers, Mahler calculus, multipliers and coset idempotents.

The recurring theme: identities between operators hold exactly on the
truncated monomial space (compared here as dense matrices from
`oracles`), while identities about their action on embedded group elements
hold below a shifted cutoff, because the embedding drops the tail of the
element and the operators lower weight.
"""

import functools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iwacalc import (
    AtLeast, Automorphism, ModelError, aut_extend, comb_mod, coset_idempotent,
    divided_power, format_series, ge_provable, group_embed, gt_provable,
    mahler_coeff_aut, is_prime, mi_range, mi_weight, multi_binom_mod_p,
    operator_degree, parse_series, reconstruct_aut, subgroup_from_exponents,
)
from iwacalc import operators
from iwacalc.control import ideal_span
from iwacalc.linalg import sum_entries
from iwacalc.groups import load_abelian
from iwacalc.operators import (
    divided_power_block, divided_power_map, divided_power_maps, operator_degrees,
)
from iwacalc.rng import Pcg32
from iwacalc.series import SparseMap, TruncationSpec

from oracles import (
    LocallyConstantFunction, OperatorMatrix, aut_matrix, coset_indicator, dense,
    divided_power_matrix, divided_power_reference, divided_powers_reference,
    function_from_callable,
    lmul_matrix, mahler_coeff_aut_central, mahler_coeff_aut_reference,
    map_matrix, operator_matrix, rho_apply_reference, sample_element, sparse_of,
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
            g = sample_element(model, rng)
            emb = group_embed(t, g)
            alpha = t.basis[rng.below(t.size)]
            lam = multi_binom_mod_p(g.coords, alpha, model.p, model.precision)
            diff = divided_power(t, alpha, emb) - emb.scale(lam)
            assert ge_provable(diff.valuation(),
                               t.cutoff - mi_weight(alpha, t.omega))


def test_eigen_shift_is_sharp(trunc2):
    # the dropped tail of embed(g) re-enters exactly at W - <alpha, omega>
    t = trunc2
    g = t.model.element([5, 7])
    emb = group_embed(t, g)
    lam = multi_binom_mod_p(g.coords, (1, 0), t.model.p, t.model.precision)
    diff = divided_power(t, (1, 0), emb) - emb.scale(lam)
    assert diff.valuation() == Fraction(7)  # cutoff 8 shifted by omega_1 = 1


@pytest.fixture(scope="session")
def map_truncs(trunc2, trunc3, trunc_heis, tzeta, trunc_e4):
    return {"abelian2": trunc2, "abelian3": trunc3, "heis": trunc_heis,
            "zeta": tzeta, "e4": trunc_e4}


def check_apply(m, data):
    """m.apply against the dense matrix of m, in Python integers, on a
    drawn vector; m.apply_entries, its repeats summed by sum_entries, on
    the entries of a drawn block of rows."""
    mat = dense(m).astype(object)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.integers(0, m.p, m.size)
    assert np.array_equal(m.apply(x), np.array(x.astype(object) @ mat.T % m.p,
                                               dtype=np.int64))
    block = rng.integers(0, m.p, (data.draw(st.integers(0, 4)), m.size))
    want = np.array(block.astype(object) @ mat.T % m.p, dtype=np.int64)
    want = want.reshape(block.shape)
    at, cols = np.nonzero(block)
    image = np.zeros_like(want)
    rows, tgts, coefs = sum_entries(*m.apply_entries(at, cols, block[at, cols]), m.p)
    image[rows, tgts] = coefs
    assert np.array_equal(image, want) and coefs.all()
    # sorted by row, then target, each pair once
    assert (np.diff(rows * m.size + tgts) > 0).all()
    # apply takes vectors only
    with pytest.raises(ValueError, match="vector of shape"):
        m.apply(block)


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "zeta", "e4"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_sparse_apply_matches_dense_matrix(map_truncs, name, data):
    t = map_truncs[name]
    p, d = t.model.p, t.model.rank
    j = data.draw(st.integers(0, d - 1))
    alpha = tuple(data.draw(st.integers(0, m)) for m in t.max_exponents)
    # the coset idempotents of the Heisenberg model are for its centre
    exps = (0, 0, 1) if name == "heis" else tuple(int(i == j) for i in range(d))
    nu = (data.draw(st.integers(0, p - 1)),)
    for m in [*t.generator_maps([j], "right"), *t.generator_maps([j], "left"),
              divided_power_map(t, alpha),
              coset_idempotent(t, subgroup_from_exponents(t.model, exps), nu)]:
        check_apply(m, data)


@functools.lru_cache(maxsize=None)
def largest_prime(size):
    """The largest prime p with size * (p - 1)^2 < 2^63."""
    p = math.isqrt(((1 << 63) - 1) // size) + 1
    while not is_prime(p):
        p -= 1
    return p


def draw_map(data, size, p):
    """A map on `size` coordinates: targets drawn from a prefix, so each
    collects many entries, and one (target, source) pair repeated, up to
    more entries than `size`; possibly no entries at all."""
    targets = st.integers(0, data.draw(st.integers(0, size - 1)))
    index = st.integers(0, size - 1)
    entries = data.draw(st.lists(st.tuples(targets, index, st.integers(0, p - 1)),
                                 max_size=4 * size))
    pair = data.draw(st.tuples(index, index))
    entries += [pair + (p - 1,)] * data.draw(st.integers(0, 3 * size))
    tgt, src, coef = ([e[k] for e in entries] for k in range(3))
    return SparseMap(p, size, tgt, src, coef)


def draw_size_and_prime(data):
    size = data.draw(st.integers(1, 12))
    return size, data.draw(st.sampled_from([2, 3, 7, largest_prime(size)]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sparse_apply_matches_dense_matrix_on_drawn_maps(data):
    check_apply(draw_map(data, *draw_size_and_prime(data)), data)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_compose_and_combine_match_dense_products_and_sums(data):
    size, p = draw_size_and_prime(data)
    a, b = draw_map(data, size, p), draw_map(data, size, p)
    x, y = (data.draw(st.integers(-2 * p, 2 * p)) for _ in range(2))
    A, B = (dense(m).astype(object) for m in (a, b))
    for m in (a, b):
        # sorted by (source, target), a pair possibly repeated
        assert (np.diff(m.src * size + m.tgt) >= 0).all()
    one = SparseMap.identity(p, size)
    for got, want in [(a.compose(b), A @ B % p),
                      (SparseMap.combine((x, y), (a, b)), (x * A + y * B) % p),
                      (SparseMap.combine((x,), (a,)), x * A % p),
                      (one.compose(a), A), (a.compose(one), A)]:
        assert np.array_equal(dense(got), want)
        # canonical: sorted by (source, target), each pair once, no zeros
        assert (np.diff(got.src * size + got.tgt) > 0).all()
        assert ((got.coef > 0) & (got.coef < p)).all()
        tgt, src = np.nonzero(want)
        assert got == SparseMap(p, size, tgt, src, want[tgt, src].astype(np.int64))
    assert (a == b) == np.array_equal(A, B) and a == SparseMap.combine((1,), (a,))


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "zeta", "e4"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_divided_power_map_matches_closed_formula(map_truncs, name, data):
    t = map_truncs[name]
    # one past the largest exponent, so empty maps are drawn too
    alpha = tuple(data.draw(st.integers(0, m + 1)) for m in t.max_exponents)
    want = operator_matrix(
        t, lambda a: divided_power_reference(t, alpha, t.monomial(a)))
    assert divided_power_matrix(t, alpha) == want
    coeffs = data.draw(st.dictionaries(
        st.sampled_from(t.basis), st.integers(1, t.model.p - 1), max_size=8))
    x = t.from_dict(coeffs)
    got = divided_power_map(t, alpha).apply(x.vector())
    assert t.from_vector(got) == divided_power_reference(t, alpha, x)
    assert divided_power(t, alpha, x) == t.from_vector(got)


def check_block(t, alphas):
    """divided_power_maps on a cold copy of t against the closed formula
    applied term by term, and its maps the ones cached for one index."""
    t = TruncationSpec(t.model, t.W)
    maps = divided_power_maps(t, alphas)
    assert len(maps) == len(alphas)
    want = {}
    for a, m in zip(alphas, maps):
        if a not in want:
            want[a] = operator_matrix(
                t, lambda b: divided_power_reference(t, a, t.monomial(b)))
        assert OperatorMatrix(t, dense(m)) == want[a]
        assert m is divided_power_map(t, a)
    return maps


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "zeta", "e4"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_divided_power_blocks_match_closed_formula(map_truncs, name, data):
    t = map_truncs[name]
    # alpha = 0, repeats, and alphas one past the largest exponent (empty
    # maps); with the whole basis the larger fixtures span several slices
    index = st.tuples(*[st.integers(0, m + 1) for m in t.max_exponents])
    alphas = [(0,) * t.model.rank] + data.draw(st.lists(index, max_size=6))
    if data.draw(st.booleans()):
        alphas += t.basis
    alphas += data.draw(st.lists(st.sampled_from(alphas), min_size=1, max_size=3))
    check_block(t, data.draw(st.permutations(alphas)))


def test_divided_powers_follow_a_grown_pascal_table(zmodel):
    """A `_signed_binomials` row past the Pascal table, as an automorphism
    map of the zeta config reads, grows the table, and the tables that the
    divided powers keep of it are built again from the grown one: the maps
    built before and after match the closed formula term by term, and
    those of a fresh truncation byte for byte."""
    t, fresh = TruncationSpec(zmodel, 20), TruncationSpec(zmodel, 20)
    top = max(t.max_exponents)
    alphas = [(k,) for k in range(top + 3)]
    before = divided_power_maps(t, alphas[:4])
    pascal, *_ = t._divided_power_tables
    assert pascal is t._pascal and len(pascal) == top + 2
    t._signed_binomials([[3 * top]])
    assert len(t._pascal) == 3 * top + 1 and "_divided_power_tables" not in vars(t)
    assert "_divided_power_flags" not in vars(t)
    after = divided_power_maps(t, alphas[4:])
    assert t._divided_power_tables[0] is t._pascal
    for a, m in zip(alphas, before + after):
        assert OperatorMatrix(t, dense(m)) == operator_matrix(
            t, lambda b: divided_power_reference(t, a, t.monomial(b)))
    for m, r in zip(before + after, divided_power_maps(fresh, alphas)):
        assert all(getattr(m, k).tobytes() == getattr(r, k).tobytes()
                   for k in ("tgt", "src", "coef"))


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "zeta", "e4", "u4"])
def test_divided_power_maps_keep_the_bytes_of_the_map_builder(map_truncs, u4, name):
    """`divided_power_maps`, the kernel pass on the identity block, gives
    every map of the basis and of an index past it with the arrays, dtypes
    and entry order of the whole-basis map builder it replaced
    (`oracles.divided_powers_reference`), on cold truncations."""
    t = map_truncs[name] if name != "u4" else TruncationSpec(u4, 12)
    alphas = t.basis + [tuple(m + 1 for m in t.max_exponents)]
    got = divided_power_maps(TruncationSpec(t.model, t.W), alphas)
    want = divided_powers_reference(TruncationSpec(t.model, t.W), alphas)
    for m, r in zip(got, want, strict=True):
        assert all(getattr(m, k).dtype == getattr(r, k).dtype
                   and getattr(m, k).tobytes() == getattr(r, k).tobytes()
                   for k in ("tgt", "src", "coef"))


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis", "zeta", "e4"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_divided_power_block_applies_the_maps(map_truncs, name, data):
    """`divided_power_block` on a drawn block (empty rows, repeated columns
    and zero coefficients included) for drawn indices (0, repeats, one past
    the largest exponent, and sometimes the first 40 of the basis) equals
    each map of `divided_power_maps` applied to the block, row k*n + r for
    index k and block row r."""
    t = map_truncs[name]
    p = t.model.p
    index = st.tuples(*[st.integers(0, m + 1) for m in t.max_exponents])
    alphas = data.draw(st.lists(index, min_size=1, max_size=8))
    if data.draw(st.booleans()):
        alphas += t.basis[:40]
    n = data.draw(st.integers(1, 5))
    entries = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, t.size - 1),
                                           st.integers(0, p - 1)), max_size=12))
    rows, cols, coefs = (np.array(v, dtype=np.int64) for v in zip(*entries)) if entries \
        else (np.zeros(0, dtype=np.int64),) * 3
    got = sum_entries(*divided_power_block(t, alphas, (rows, cols, coefs), n), p)
    parts = [(np.zeros(0, dtype=np.int64),) * 3]
    for k, m in enumerate(divided_power_maps(t, alphas)):
        at, tgt, coef = m.apply_entries(rows, cols, coefs)
        parts.append((at + k * n, tgt, coef))
    want = sum_entries(*map(np.concatenate, zip(*parts)), p)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("name", ["abelian3", "zeta"])
def test_divided_power_block_of_the_basis_spans_slices(map_truncs, name, monkeypatch):
    # a budget below the default, so that the build of the basis runs in
    # several slices
    monkeypatch.setattr(operators, "_SLICE_TERMS", 2048)
    t = map_truncs[name]
    past = tuple(m + 1 for m in t.max_exponents)
    maps = check_block(t, t.basis + [past, t.basis[1]])
    assert sum(m.coef.size for m in maps) > 2 * operators._SLICE_TERMS
    assert not maps[-2].coef.size


def test_divided_power_sweep_memory_follows_the_slice():
    # verify-operators on abelian rank 3 at W=12: 363 maps, 1.3 MB of entries
    # kept in the cache
    t = TruncationSpec(load_abelian(3, 3, 4, ["1", "1", "1"]), 12)
    alphas = [a for a in t.basis if any(a)]
    tracemalloc.start()
    try:
        reports = operator_degrees(t, divided_power_maps(t, alphas))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.value() for r in reports] == [-t.weight(a) for a in alphas]
    assert peak < 2_000_000


def test_light_divided_power_blocks_keep_slices_small():
    # the heaviest basis indices have few sources and offsets, and the 2197
    # indices past the basis none, yet each map holds a row of `size` flags
    # in the build and in the degree pass: the slices must count those rows
    t = TruncationSpec(load_abelian(3, 3, 4, ["1", "1", "1"]), 16)
    top = max(t.max_exponents)
    heavy = [a for a in t.basis if t.weight(a) >= 14]
    past = [tuple(top + 1 + v for v in a) for a in np.ndindex(13, 13, 13)]
    tracemalloc.start()
    try:
        maps = divided_power_maps(t, heavy + past)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        reports = operator_degrees(t, maps)
        kept_after, peak_degrees = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(m.coef.size for m in maps[len(heavy):])
    assert [r.value() for r in reports[:len(heavy)]] == [-t.weight(a) for a in heavy]
    assert all(r.resolved is None for r in reports[len(heavy):])
    assert peak - kept < 1_000_000 and peak_degrees - kept_after < 1_000_000


@pytest.mark.parametrize("name", ["abelian2", "heis", "e4"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_divided_power_rejects_series_from_another_truncation(map_truncs, name, data):
    t = map_truncs[name]
    # the same model and cutoff, or a narrower cutoff: still another truncation
    other = TruncationSpec(t.model, data.draw(st.integers(1, t.W)))
    x = other.from_dict(data.draw(st.dictionaries(
        st.sampled_from(other.basis), st.integers(1, t.model.p - 1), max_size=4)))
    alpha = tuple(data.draw(st.integers(0, m)) for m in t.max_exponents)
    with pytest.raises(ValueError, match="different truncation"):
        divided_power(t, alpha, x)
    assert divided_power(other, alpha, x) == divided_power_reference(other, alpha, x)


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
    return OperatorMatrix(t, dense(SparseMap(t.model.p, t.size, tgt, src, coef)))


def draw_degree_entries(data, t):
    """Entries (target, source, coefficient) of a map on t, with cancelling
    repeats."""
    p = t.model.p
    index = st.integers(0, t.size - 1)
    entries = data.draw(st.lists(st.tuples(index, index, st.integers(0, p - 1)),
                                 max_size=2 * t.size))
    # the same (target, source) twice with coefficients c and p - c: the
    # map keeps both entries, and their sum vanishes mod p
    for tg, sc, c in data.draw(st.lists(st.tuples(index, index, st.integers(1, p - 1)),
                                        max_size=6)):
        entries += [(tg, sc, c), (tg, sc, p - c)]
    return tuple([e[k] for e in entries] for k in range(3))


@pytest.mark.parametrize("name", ["abelian2", "heis", "e4"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_operator_degree_of_drawn_maps(map_truncs, name, data):
    t = map_truncs[name]
    tgt, src, coef = draw_degree_entries(data, t)
    report = operator_degree(t, SparseMap(t.model.p, t.size, tgt, src, coef))
    want = degree_by_columns(summed_matrix(t, tgt, src, coef))
    assert (report.resolved, report.tail_bound) == want


@pytest.mark.parametrize("name", ["abelian2", "heis", "e4"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_operator_degrees_of_drawn_maps(map_truncs, name, data):
    t = map_truncs[name]
    drawn = [draw_degree_entries(data, t) for _ in range(data.draw(st.integers(0, 5)))]
    reports = operator_degrees(
        t, [SparseMap(t.model.p, t.size, *entries) for entries in drawn])
    assert [(r.resolved, r.tail_bound) for r in reports] == \
        [degree_by_columns(summed_matrix(t, *entries)) for entries in drawn]


def test_operator_degrees_across_slices(trunc3, monkeypatch):
    # the divided powers of the basis hold more than two slices of entries
    # at a budget below the default
    monkeypatch.setattr(operators, "_SLICE_TERMS", 2048)
    maps = divided_power_maps(trunc3, trunc3.basis)
    assert sum(m.coef.size for m in maps) > 2 * operators._SLICE_TERMS
    assert [(r.resolved, r.tail_bound) for r in operator_degrees(trunc3, maps)] == \
        [degree_by_columns(OperatorMatrix(trunc3, dense(m))) for m in maps]


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
        return operator_matrix(t, lambda a: rho_apply_reference(t, f, t.monomial(a)))

    assert matrix_of(f1) @ matrix_of(f2) == matrix_of(prod)


def test_multiplier_projection_formula(tzeta):
    # rho(indicator of 0 mod p) sends b^n to (-1)^(n + n//p) * b^(p * (n//p))
    t = tzeta
    f = coset_indicator(3, 1, 1, (0,))
    for n in range(10):
        m = n // 3
        want = t.monomial((3 * m,), (-1) ** (n + m))
        assert rho_apply_reference(t, f, t.monomial((n,))) == want


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


def test_mahler_indices_are_checked(trunc2, trunc_heis):
    for t, phi in [
            (trunc2, Automorphism.linear_on_log(trunc2.model, [[1, 0], [3, 1]])),
            (trunc_heis, Automorphism.inner(trunc_heis.model,
                                            trunc_heis.model.basis()[0]))]:
        d = t.model.rank
        for alpha in [(-1,) + (0,) * (d - 1), (1,) * (d + 1), (1,) * (d - 1)]:
            for route in (mahler_coeff_aut, mahler_coeff_aut_central):
                with pytest.raises(ValueError, match="bad operator index"):
                    route(t, phi, alpha)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_mahler_coeff_aut_beyond_the_basis(abelian2, heis, data):
    """Indices with an entry above the truncation's largest exponent grow
    the signed-binomial table; the result is the full finite difference."""
    model = data.draw(st.sampled_from([abelian2, heis]))
    t = TruncationSpec(model, 6)  # fresh, so the table starts empty
    p = model.p
    phi = (Automorphism.linear_on_log(model, [
        [int(i == j) + p * data.draw(st.integers(0, p - 1)) for j in range(2)]
        for i in range(2)]) if model.kind == "abelian"
        else Automorphism.inner(model, model.basis()[0]))
    top = max(t.max_exponents)
    for _ in range(3):
        alpha = tuple(data.draw(st.lists(st.integers(0, top + 3), min_size=model.rank,
                                         max_size=model.rank)))
        assert mahler_coeff_aut(t, phi, alpha) == mahler_coeff_aut_reference(t, phi, alpha)
    alpha = (top + 2,) + (0,) * (model.rank - 1)
    assert mahler_coeff_aut(t, phi, alpha) == mahler_coeff_aut_reference(t, phi, alpha)


def test_mahler_coeff_aut_past_the_basis_keeps_distinct_points(abelian2):
    """Past the basis, points below alpha can share a code in the
    truncation's mixed radix: (6, 0) and (0, 1) both have code 6 when the
    largest exponents are (5, 5).  Their terms must not merge."""
    t = TruncationSpec(abelian2, 6)
    assert t.max_exponents == (5, 5)
    phi = Automorphism.linear_on_log(abelian2, [[1, 3], [3, 1]])
    assert mahler_coeff_aut(t, phi, (6, 1)) == mahler_coeff_aut_reference(t, phi, (6, 1))
    assert mahler_coeff_aut(t, phi, (6, 1)).is_zero()


def test_mahler_coeff_aut_past_the_basis_with_more_terms_than_monomials(abelian2, heis):
    """An alpha past the basis whose expansion has more terms than the
    truncation has monomials: the terms of each column are summed in one
    `sum_entries`, with no split of the row, and cancel as the finite
    differences point by point do."""
    for model, W, phi, alpha in [
            (abelian2, 6, Automorphism.linear_on_log(abelian2, [[1, 3], [3, 1]]), (8, 8)),
            (heis, 4, Automorphism.inner(heis, heis.basis()[0]), (4, 4, 1))]:
        t = TruncationSpec(model, W)
        owner, _, _ = t._signed_binomials([alpha])
        assert owner.size > t.size and alpha[0] > t.max_exponents[0]
        assert mahler_coeff_aut(t, phi, alpha) == mahler_coeff_aut_reference(t, phi, alpha)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_expansion_routes_match_oracles(abelian3, heis, u4, data):
    """mahler_coeff_aut, which expands through the array kernel, against
    finite differences point by point."""
    model = data.draw(st.sampled_from([abelian3, heis, u4]))
    t = TruncationSpec(model, 8)  # fresh, so the table starts empty
    d = model.rank
    phi = (Automorphism.linear_on_log(model, [[1, 0, 0], [3, 1, 0], [0, 3, 1]])
           if model.kind == "abelian" else Automorphism.inner(model, model.basis()[0]))
    # up to two nonzero entries, reaching two past the largest basis exponent
    alpha = [0] * d
    for i in data.draw(st.lists(st.integers(0, d - 1), max_size=2)):
        alpha[i] = data.draw(st.integers(0, max(t.max_exponents) + 2))
    assert mahler_coeff_aut(t, phi, alpha) == mahler_coeff_aut_reference(t, phi, alpha)


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


def test_reconstruct_needs_positive_degree(trunc2):
    """The degree of the basis displacements omega(phi(g_i) g_i^-1) - omega_i
    must be positive.  On omega = (1, 5) at M = 1 the checked identity
    reaches the rejection: omega(g_2) reads only as >=2, so `deg_omega`
    leaves g_2 out, and its displacement is the marker bound 1 + 1 - 5,
    which the message names as undecided at this M.  The unchecked phi = 1
    moves g_i to g_i^-1, of exact degree 0."""
    model = load_abelian(3, 2, 1, ["1", "5"])
    with pytest.raises(ModelError, match=re.escape(
            "needs positive degree, got >=-3: omega(phi(g_2) g_2^-1) - omega(g_2) "
            "is at precision M=1 only known to be >=-3, and a larger M would "
            "decide it") + "$"):
        reconstruct_aut(TruncationSpec(model, 3), Automorphism.identity(model), 1)
    trivial = Automorphism(trunc2.model, "linear", ((0, 0), (0, 0)))
    with pytest.raises(ModelError, match="needs positive degree, got 0$"):
        reconstruct_aut(trunc2, trivial, 1)


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
        g = sample_element(t.model, rng)
        emb = group_embed(t, g)
        resid = g.coords[0] % p
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
        f = coset_indicator(3, 2, 1, nu)
        rho_mat = operator_matrix(t, lambda a: rho_apply_reference(t, f, t.monomial(a)))
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
    f = function_from_callable(
        p, d, 1, lambda lam: int(all(lam[i] == v for i, v in zip(mask, nu))))
    rho_mat = operator_matrix(t, lambda a: rho_apply_reference(t, f, t.monomial(a)))
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
