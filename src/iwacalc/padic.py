"""p-adic residues, mod-p binomial coefficients and sparse polynomials.

The one p-adic scalar is a residue mod p^M held as a Python int in
[0, p^M): group coordinates are such ints, and their valuation is the
index of the first nonzero base-p digit.  Lucas' theorem
reads the same digits off the int (`binom_mod_p`, `multi_binom_mod_p`, and
`lucas_rows` for whole rows of binomials of many residues at once),
and reports print a residue as its digit vector, least significant digit
first (`format_padic`), which `parse_padic` reads back.  A residue that is
zero at working precision has vp >= M but nothing sharper can be said;
such values are reported as the marker `AtLeast(M)` rather than a number
(printed by `format_val`), and the marker propagates through every
valuation computed in the package.

Multi-indices (exponent vectors of monomials) are plain int tuples;
`mi_weight` pairs one with the weights of a truncation and `mi_range`
lists a box of them.  A sparse polynomial mod m is a dict {multi-index:
coefficient} with no zero terms, and one set of kernels serves every
such dict in the package: the compiled group laws of
`groups`, the F_p polynomials of `moore` and the truncated series of
`series` all combine (`poly_combine`), multiply (`poly_product_sum`),
raise to p-powers (`poly_frobenius`) and print (`format_poly`) through
them, and `power` is the one square-and-multiply loop.  The signed
binomials (-1)^{|a-c|} C(a, c) of finite differences and of the expansion
b^a = (g - 1)^a come from Pascal's rows mod p (`lucas_rows`), flattened
with their signs into one table (`signed_rows`), and one array kernel
(`signed_binomials`), which expands a whole block of exponent rows at once
by indexing that table with mixed-radix digits.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence, Union

import numpy as np


class PrecisionError(ValueError):
    """A result is not determined at the working precision."""


@functools.lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Trial division, memoised: every model load and parse checks p."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# Valuation values with truncation markers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtLeast:
    """A quantity known only to satisfy `value >= bound` at this precision."""

    bound: Fraction

    def __repr__(self) -> str:
        return f">={self.bound}"


Val = Union[int, Fraction, AtLeast]


def format_val(v: Val) -> str:
    """Report text of a valuation: '>=b' for a marker, else the number."""
    return repr(v) if isinstance(v, AtLeast) else str(v)


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def val_min(values: Sequence[Val]) -> Val:
    """Minimum of exact values and lower bounds.

    The result is exact when some exact value is <= every unresolved bound;
    otherwise only a lower bound survives.
    """
    exacts = [_frac(v) for v in values if not isinstance(v, AtLeast)]
    bounds = [v.bound for v in values if isinstance(v, AtLeast)]
    if exacts and (not bounds or min(exacts) <= min(bounds)):
        return min(exacts)
    if bounds:
        return AtLeast(min(bounds))
    raise ValueError("val_min of an empty collection")


def ge_provable(a: Val, b: Val) -> bool:
    """True iff `a >= b` holds for every value compatible with the markers."""
    if isinstance(b, AtLeast):
        return False
    if isinstance(a, AtLeast):
        return a.bound >= _frac(b)
    return _frac(a) >= _frac(b)


def gt_provable(a: Val, b: Val) -> bool:
    if isinstance(b, AtLeast):
        return False
    if isinstance(a, AtLeast):
        return a.bound > _frac(b)
    return _frac(a) > _frac(b)


def eq_compatible(computed: Val, claimed) -> bool:
    """Is the computed value compatible with an exact claim?

    An `AtLeast(b)` marker is compatible with any claim >= b; an exact value
    must match on the nose.
    """
    if isinstance(claimed, AtLeast):
        raise ValueError("claim must be resolved")
    if isinstance(computed, AtLeast):
        return _frac(claimed) >= computed.bound
    return _frac(computed) == _frac(claimed)


# ---------------------------------------------------------------------------
# Residues mod p^M in digit form
# ---------------------------------------------------------------------------

def format_padic(r: int, p: int, M: int) -> str:
    """Digit form 'd0.d1.d2@p^M' of a residue r in [0, p^M), used in reports."""
    if not 0 <= r < p ** M:
        raise ValueError(f"{r} is not a residue in [0, {p}^{M})")
    digits = []
    for _ in range(M):
        r, d = divmod(r, p)
        digits.append(str(d))
    return ".".join(digits) + f"@{p}^{M}"


def parse_padic(text: str, p: int, M: int) -> int:
    """The residue in [0, p^M) of the digit form or of a plain decimal
    integer; p must be prime and M >= 1."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if M < 1:
        raise ValueError(f"precision M = {M} must be >= 1")
    text = text.strip()
    if "@" in text:
        digit_part, mod_part = text.split("@")
        base, _, prec = mod_part.partition("^")
        if int(base) != p or int(prec) != M:
            raise ValueError(f"modulus {mod_part} does not match context {p}^{M}")
        digits = [int(d) for d in digit_part.split(".")]
        if len(digits) != M or any(d < 0 or d >= p for d in digits):
            raise ValueError(f"bad digit vector {digit_part!r} for p = {p}, M = {M}")
        return sum(d * p ** i for i, d in enumerate(digits))
    return int(text) % p ** M


# ---------------------------------------------------------------------------
# Binomial coefficients mod p
# ---------------------------------------------------------------------------

def comb_mod(m: int, n: int, p: int) -> int:
    """C(m, n) mod p for plain nonnegative integers."""
    if n < 0 or m < 0:
        raise ValueError("comb_mod needs nonnegative arguments")
    if n > m:
        return 0
    return math.comb(m, n) % p


def binom_mod_p(lam: int, n: int, p: int, M: int) -> int:
    """C(lam, n) mod p for a residue lam in [0, p^M), by Lucas' theorem on
    the base-p digits.

    Requires p^M > n so that every base-p digit of n is covered by a known
    digit of lam; otherwise the answer would depend on digits beyond the
    working precision.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    if not 0 <= lam < p ** M:
        raise ValueError(f"{lam} is not a residue in [0, {p}^{M})")
    if n >= p ** M:
        raise PrecisionError(f"binomial needs p^M > n: {p}^{M} = {p ** M} <= {n}")
    out = 1
    while n:
        lam, ld = divmod(lam, p)
        n, nd = divmod(n, p)
        out = out * math.comb(ld, nd) % p
        if out == 0:
            return 0
    return out


def multi_binom_mod_p(lams: Sequence[int], alpha: Sequence[int], p: int, M: int) -> int:
    """Product of the binomials C(lam_i, alpha_i) mod p, one per coordinate."""
    if len(lams) != len(alpha):
        raise ValueError("coordinate count mismatch")
    out = 1
    for lam, a in zip(lams, alpha):
        out = out * binom_mod_p(lam, a, p, M) % p
        if out == 0:
            return 0
    return out


def lucas_rows(residues, top: int, p: int) -> np.ndarray:
    """Row k is C(r, n) mod p for n = 0..top, r the k-th of `residues`: by
    Lucas' theorem, the product over the base-p digits that n reaches of
    C(r_d, n_d), each from one recurrence over y < p for all digits at once,
    C(x, y) = C(x, y - 1) (x - y + 1) / y mod p; exact while p^2 < 2^63."""
    r = np.asarray(residues, dtype=np.int64).reshape(-1, 1)
    places = p ** np.arange(next(d for d in itertools.count(1) if p ** d > top))
    x = r // places % p
    digit = np.ones(x.shape + (min(p - 1, top) + 1,), dtype=np.int64)
    for y in range(1, digit.shape[2]):
        digit[..., y] = digit[..., y - 1] * (x - y + 1) % p * pow(y, -1, p) % p
    n = np.arange(top + 1)[:, None] // places % p
    out = np.ones((r.size, top + 1), dtype=np.int64)
    for d in range(places.size):
        out = out * digit[:, d, n[:, d]] % p
    return out


# ---------------------------------------------------------------------------
# Multi-index helpers and sparse polynomials
# ---------------------------------------------------------------------------

MultiIndex = tuple[int, ...]


def mi_weight(a: MultiIndex, omega: Sequence[Fraction]) -> Fraction:
    return sum((Fraction(x) * w for x, w in zip(a, omega)), Fraction(0))


def mi_range(bounds: Sequence[int]):
    """All multi-indices 0 <= alpha <= bounds, lexicographic order."""
    return itertools.product(*(range(b + 1) for b in bounds))


def signed_rows(pascal: np.ndarray, p: int) -> tuple:
    """The signed binomials (-1)^{a-c} C(a, c) mod p with a nonzero value,
    from Pascal's rows mod p (`lucas_rows` of a = 0..top, row a holding
    C(a, c) for c = 0..top), as one flat table of int64 arrays (start, c,
    coef): row a is entries start[a]:start[a+1] of c and coef, c ascending."""
    a, c = np.nonzero(pascal)
    coef = pascal[a, c]
    return (np.searchsorted(a, np.arange(len(pascal) + 1)), c,
            np.where((a - c) % 2, p - coef, coef))


def signed_binomials(rows: tuple, exps, p: int) -> tuple:
    """The expansion b^a = sum_{c <= a} (-1)^{|a-c|} C(a, c) g^c of every row
    a of the int64 block `exps`, from a `signed_rows` table reaching
    its largest entry, as int64 arrays (owner, c, coef): term n is coef[n]
    g^c[n] in the expansion of row owner[n].  The owners ascend, each row's
    c come in lexicographic order and no coef is zero.  A row's terms are
    numbered in mixed radix, one digit per coordinate in base the length of
    that coordinate's table row; each digit picks one entry of the row, and
    the coefficient is the product of the picked entries, exact while
    (p - 1)^2 < 2^63."""
    start, cs, coefs = rows
    exps = np.asarray(exps, dtype=np.int64)
    n, d = exps.shape
    if exps.size and not 0 <= exps.min() <= exps.max() < start.size - 1:
        raise ValueError(f"exponents must lie in [0, {start.size - 2}], "
                         "the rows of the table")
    first = start[exps]
    count = start[exps + 1] - first
    # stride[:, k] is the product of count[:, k:]: digit k steps once every
    # stride[:, k + 1] terms, and stride[:, 0] terms make up the row
    stride = np.ones((n, d + 1), dtype=np.int64)
    stride[:, :d] = np.cumprod(count[:, ::-1], axis=1)[:, ::-1]
    per = stride[:, 0]
    owner = np.repeat(np.arange(n), per)
    local = np.arange(owner.size) - np.repeat(np.cumsum(per) - per, per)
    at = np.repeat(first, per, axis=0) + (
        local[:, None] // np.repeat(stride[:, 1:], per, axis=0)
        % np.repeat(count, per, axis=0))
    coef = np.ones(owner.size, dtype=np.int64)
    for factor in coefs[at].T:
        coef = coef * factor % p
    return owner, cs[at], coef


def poly_combine(coeffs: Iterable[int], polys: Iterable[dict], m: int) -> dict:
    """sum of c * f over the pairs, mod m."""
    out: dict = {}
    for c, f in zip(coeffs, polys):
        if c % m:
            for k, v in f.items():
                out[k] = out.get(k, 0) + c * v
    return {k: v % m for k, v in out.items() if v % m}


def poly_product_sum(pairs: Iterable[tuple], m: int) -> dict:
    """sum of f * g over the pairs, mod m."""
    out: dict = {}
    for f, g in pairs:
        for a, c in f.items():
            for b, d in g.items():
                k = tuple(map(add, a, b))
                out[k] = out.get(k, 0) + c * d
    return {k: v % m for k, v in out.items() if v % m}


def poly_frobenius(f: dict, p: int, k: int) -> dict:
    """f^{p^k} over F_p, for commuting variables: every exponent is scaled
    by p^k and the coefficients are fixed."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    q = p ** k
    return {tuple(x * q for x in a): c for a, c in f.items()}


def power(x, k: int, one, mul):
    """x^k by square and multiply, for an associative `mul` with unit `one`."""
    if k < 0:
        raise ValueError(f"negative power {k} is undefined here")
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def format_poly(coeffs: dict, order: Iterable[MultiIndex], letter: str) -> str:
    """Canonical text: the terms in `order` as 'c*x1^a1*x2^a2', x = `letter`,
    with ^1 and a leading 1* omitted; '0' when there are none."""
    parts = []
    for a in order:
        factors = [f"{letter}{i + 1}" + (f"^{v}" if v > 1 else "")
                   for i, v in enumerate(a) if v]
        if coeffs[a] != 1 or not factors:
            factors.insert(0, str(coeffs[a]))
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"
