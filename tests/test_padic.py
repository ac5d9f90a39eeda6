"""Residues in digit form, Lucas binomials and the AtLeast marker algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iwacalc import (
    AtLeast, PrecisionError, binom_mod_p, comb_mod, eq_compatible,
    format_padic, ge_provable, gt_provable, is_prime, mi_range,
    mi_weight, multi_binom_mod_p, parse_padic, val_min,
)
from iwacalc.padic import (
    format_poly, lucas_rows, poly_combine, poly_frobenius, poly_product_sum, power,
    signed_binomials, signed_rows,
)
from iwacalc.rng import Pcg32
from oracles import (
    ge_refuted, residue_vp, signed_binomials_reference, val_add, val_sub_exact,
)


def test_is_prime_small():
    primes = [n for n in range(50) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_digit_round_trip():
    rng = Pcg32(11)
    for p, M in [(3, 4), (5, 3), (7, 2)]:
        box = p ** M
        for _ in range(50):
            v = rng.below(box)
            text = format_padic(v, p, M)
            digits = text.split("@")[0].split(".")
            assert len(digits) == M and int(digits[0]) == v % p
            assert parse_padic(text, p, M) == v
    assert parse_padic("-1", 3, 2) == 8
    for r in (-1, 9):
        with pytest.raises(ValueError):
            format_padic(r, 3, 2)


def test_parse_padic_rejects_bad_context():
    with pytest.raises(ValueError):
        parse_padic("1", 4, 2)
    with pytest.raises(ValueError):
        parse_padic("1", 3, 0)


def test_format_and_parse():
    assert format_padic(7, 3, 4) == "1.2.0.0@3^4"
    assert parse_padic("1.2.0.0@3^4", 3, 4) == 7
    assert parse_padic("7", 3, 4) == 7
    assert parse_padic(" 7 ", 3, 4) == 7
    with pytest.raises(ValueError):
        parse_padic("1.2.0.0@3^5", 3, 4)
    with pytest.raises(ValueError):
        parse_padic("1.2.0@3^4", 3, 4)
    with pytest.raises(ValueError):
        parse_padic("1.5.0.0@3^4", 3, 4)


def test_residue_vp():
    assert residue_vp(18, 3, 4) == 2
    assert residue_vp(1, 3, 4) == 0
    v = residue_vp(0, 3, 4)
    assert isinstance(v, AtLeast) and v.bound == 4


def test_val_min_prefers_provable_exact_values():
    assert val_min([3, 5]) == 3
    assert val_min([Fraction(5, 2), AtLeast(Fraction(4))]) == Fraction(5, 2)
    out = val_min([5, AtLeast(Fraction(4))])
    assert isinstance(out, AtLeast) and out.bound == 4
    out = val_min([AtLeast(Fraction(2)), AtLeast(Fraction(7))])
    assert isinstance(out, AtLeast) and out.bound == 2
    with pytest.raises(ValueError):
        val_min([])


def test_val_add_and_sub():
    assert val_add(2, Fraction(1, 2)) == Fraction(5, 2)
    out = val_add(2, AtLeast(Fraction(3)))
    assert isinstance(out, AtLeast) and out.bound == 5
    assert val_sub_exact(AtLeast(Fraction(6)), 2) == AtLeast(Fraction(4))
    assert val_sub_exact(6, 2) == 4
    with pytest.raises(ValueError):
        val_sub_exact(6, AtLeast(Fraction(2)))


def test_provability_predicates():
    assert ge_provable(5, 5)
    assert ge_provable(AtLeast(Fraction(5)), 5)
    assert not ge_provable(AtLeast(Fraction(4)), 5)
    assert not ge_provable(5, AtLeast(Fraction(1)))
    assert gt_provable(AtLeast(Fraction(6)), 5)
    assert not gt_provable(AtLeast(Fraction(5)), 5)
    assert ge_refuted(4, 5)
    assert ge_refuted(4, AtLeast(Fraction(5)))
    assert not ge_refuted(AtLeast(Fraction(1)), 5)
    assert eq_compatible(5, 5)
    assert eq_compatible(AtLeast(Fraction(4)), 5)
    assert not eq_compatible(AtLeast(Fraction(6)), 5)
    assert not eq_compatible(4, 5)
    with pytest.raises(ValueError):
        eq_compatible(4, AtLeast(Fraction(4)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.data())
def test_lucas_matches_integer_binomials(p, M, data):
    lam = data.draw(st.integers(0, p ** M - 1))
    n = data.draw(st.integers(0, p ** M - 1))
    assert binom_mod_p(lam, n, p, M) == math.comb(lam, n) % p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 1000003, 679093949]), st.integers(0, 60), st.data())
def test_lucas_rows_match_lucas_binomials(p, top, data):
    # residues with up to three base-p digits past those that n reaches,
    # within int64
    need = 1
    while p ** need <= top:
        need += 1
    residues = data.draw(st.lists(st.integers(0, min(p ** (need + 3), 2 ** 63) - 1),
                                  max_size=6))
    rows = lucas_rows(residues, top, p)
    assert rows.shape == (len(residues), top + 1) and rows.dtype == np.int64
    assert rows.tolist() == [[binom_mod_p(r, n, p, need + 3) for n in range(top + 1)]
                             for r in residues]


def test_lucas_reads_high_digits():
    # 576 = 2.3^5 + 3^4 + 3^2, so the digit at 3^2 is 1 and at 3^3 is 0
    assert binom_mod_p(576, 9, 3, 6) == 1
    assert binom_mod_p(576, 18, 3, 6) == 0
    assert binom_mod_p(576, 81, 3, 6) == 1


def test_lucas_precision_guard():
    with pytest.raises(PrecisionError):
        binom_mod_p(5, 9, 3, 2)  # n = p^M
    with pytest.raises(ValueError):
        binom_mod_p(5, -1, 3, 2)
    for lam in (-1, 9):  # outside [0, p^M): a bad argument, not a precision limit
        with pytest.raises(ValueError) as err:
            binom_mod_p(lam, 1, 3, 2)
        assert err.type is ValueError


def test_comb_mod():
    assert comb_mod(10, 3, 3) == math.comb(10, 3) % 3
    assert comb_mod(2, 5, 7) == 0
    with pytest.raises(ValueError):
        comb_mod(-1, 0, 3)


def test_multi_binom():
    lams = [4, 7]
    assert multi_binom_mod_p(lams, (1, 2), 3, 3) == \
        math.comb(4, 1) * math.comb(7, 2) % 3
    assert multi_binom_mod_p(lams, (2, 0), 3, 3) == 0  # C(4,2) = 6 = 0 mod 3
    with pytest.raises(ValueError):
        multi_binom_mod_p(lams, (1,), 3, 3)
    with pytest.raises(PrecisionError):
        multi_binom_mod_p(lams, (1, 27), 3, 3)
    with pytest.raises(ValueError):
        multi_binom_mod_p([4, 27], (1, 1), 3, 3)


def test_multi_index_helpers():
    assert mi_weight((2, 3), (Fraction(1), Fraction(1, 2))) == Fraction(7, 2)


def test_mi_range_is_lexicographic():
    assert list(mi_range((1, 2))) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert list(mi_range(())) == [()]


def pascal_table(top, p):
    """The `signed_binomials` table of Pascal's rows 0..top mod p."""
    return signed_rows(lucas_rows(np.arange(top + 1), top, p), p)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]),
       a=st.lists(st.integers(0, 12), max_size=3), extra=st.integers(0, 3))
def test_signed_binomials_match_comb_mod(p, a, extra):
    a = tuple(a)
    want = []
    for c in mi_range(a):
        coeff = 1
        for ai, ci in zip(a, c):
            coeff = coeff * comb_mod(ai, ci, p) % p
        if coeff:
            want.append((c, coeff if (sum(a) - sum(c)) % 2 == 0 else p - coeff))
    # any table reaching max(a) gives the same terms
    rows = pascal_table(max(a, default=0) + extra, p)
    exps = np.array([a], dtype=np.int64).reshape(1, len(a))
    owner, c, coef = signed_binomials(rows, exps, p)
    assert owner.tolist() == [0] * len(want)
    assert list(zip(map(tuple, c.tolist()), coef.tolist())) == want


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 1000003]), rank=st.integers(1, 6), data=st.data())
def test_signed_binomials_block_matches_comb(p, rank, data):
    # entries up to 3p, except at p = 1000003, whose Pascal table that far
    # is out of reach; each row has at most 4096 points c <= a to visit
    high = min(3 * p, 40)
    block = []
    for _ in range(data.draw(st.integers(0, 6))):
        row, points = [], 1
        for _ in range(rank):
            row.append(data.draw(st.integers(0, min(high, 4096 // points - 1))))
            points *= row[-1] + 1
        block.append(data.draw(st.permutations(row)))
    exps = np.array(block, dtype=np.int64).reshape(len(block), rank)
    top = int(exps.max(initial=0))
    owner, c, coef = signed_binomials(
        pascal_table(top + data.draw(st.integers(0, 3)), p), exps, p)
    assert owner.dtype == c.dtype == coef.dtype == np.int64
    assert c.shape == (owner.size, rank) and coef.shape == owner.shape
    want = [(n, c_, s) for n, a in enumerate(block)
            for c_, s in signed_binomials_reference(a, p)]
    assert owner.tolist() == [n for n, _, _ in want]
    assert list(map(tuple, c.tolist())) == [c_ for _, c_, _ in want]
    assert coef.tolist() == [s for _, _, s in want]
    # owners ascend, each row's c is lexicographic, no coefficient is zero
    assert (np.diff(owner) >= 0).all()
    for n in range(len(block)):
        terms = list(map(tuple, c[owner == n].tolist()))
        assert terms == sorted(terms) and len(set(terms)) == len(terms)
    assert ((0 < coef) & (coef < p)).all()
    if top:
        # a table that stops below an entry is refused, not read past its end
        with pytest.raises(ValueError, match="table"):
            signed_binomials(pascal_table(top - 1, p), exps, p)


@pytest.mark.parametrize("p", [2, 3, 5, 1000003])
def test_signed_binomials_edge_blocks(p):
    rows = pascal_table(4, p)
    for rank in (1, 3, 6):
        owner, c, coef = signed_binomials(rows, np.zeros((0, rank), dtype=np.int64), p)
        assert owner.size == coef.size == 0 and c.shape == (0, rank)
        # b^0 = g^0: the single term (0, ..., 0) with coefficient 1
        owner, c, coef = signed_binomials(rows, np.zeros((1, rank), dtype=np.int64), p)
        assert owner.tolist() == [0] and c.tolist() == [[0] * rank]
        assert coef.tolist() == [1]
    with pytest.raises(ValueError, match="table"):
        signed_binomials(rows, np.array([[1, -1]]), p)


def test_sparse_polynomial_kernels():
    f = {(1, 0): 2, (0, 1): 1}
    g = {(1, 0): 1, (0, 0): 4}
    assert poly_combine((1, 1), (f, g), 3) == {(0, 1): 1, (0, 0): 1}
    assert poly_combine((0, 5), (f, g), 5) == {}
    assert poly_product_sum([(f, g), (g, g)], 5) == {
        (2, 0): 3, (1, 1): 1, (1, 0): 1, (0, 1): 4, (0, 0): 1}
    assert poly_frobenius(f, 3, 2) == {(9, 0): 2, (0, 9): 1}
    with pytest.raises(ValueError):
        poly_frobenius(f, 3, -1)
    assert format_poly({}, [], "x") == "0"
    assert format_poly(f, sorted(f), "y") == "y2 + 2*y1"
    assert format_poly({(0, 0): 1, (2, 3): 1}, [(0, 0), (2, 3)], "b") == "1 + b1^2*b2^3"


@pytest.mark.parametrize("k", [0, 1, 2, 5, 8, 13])
def test_power_is_square_and_multiply(k):
    calls = []

    def mul(x, y):
        calls.append(None)
        return x * y % 1009

    assert power(3, k, 1, mul) == pow(3, k, 1009)
    # one product per set bit plus one squaring per further bit
    assert len(calls) == (bin(k).count("1") + k.bit_length() - 1 if k else 0)
    with pytest.raises(ValueError):
        power(3, -1, 1, mul)
