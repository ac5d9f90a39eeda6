"""Truncated elements of the completed group algebra k[[G]], k = F_p.

Fix a model with basis g_1..g_d and put b_i = g_i - 1.  The monomials
b^a = b_1^{a_1} ... b_d^{a_d} (normal order) with weight <a, omega> below
the cutoff W/e form a k-basis of k[[G]] modulo the tail ideal
F_W = {x : w(x) >= W/e}; a TruncatedSeries is a coefficient map on that
basis.  All ring operations are exact mod F_W.

Multiplication needs the group law only for monomial x generator products
b^a * b_j (and b_j * b^a) that are not already in normal order.  Such a
product is computed through the group: b^a is expanded into group elements,
b^a = sum_{c <= a} (-1)^{|a - c|} C(a, c) g^c, each g^c is multiplied by g_j
in the model, and the products are re-expanded by the Mahler formula
g^m = sum_b C(m, b) b^b.  A truncation keeps these products as sparse maps
x -> x*b_j and x -> b_j*x (`TruncationSpec.generator_map`), built on first
use.  On non-abelian models x*y = sum_beta y_beta (x*b^beta), and each
x*b^beta is one sparse apply to x*b^beta', where b^beta = b^beta' * b_j
drops the last letter of the normal-order word.  On abelian models every
map is a shift, and `*` adds exponents directly.  The tests keep the older
route, which multiplies every pair of group elements of the two expansions
(`mul_reference` in tests/oracles.py), as the oracle that `*` is compared
with.

Every accumulation sums at most `size` products of residues, so
`TruncationSpec` rejects primes with size * (p - 1)^2 >= 2^63 and int64
arithmetic stays exact.

The empty series has valuation marker AtLeast(W/e), consistent with the
rest of the package.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Mapping, Optional, Sequence

import numpy as np

from .groups import INT64_LIMIT, Automorphism, GroupElement, GroupModel, ModelError
from .padic import (
    AtLeast, MultiIndex, PrecisionError, Val, binom_mod_p, format_poly, mi_weight,
    poly_combine, poly_frobenius, poly_product_sum, power, signed_binomial_rows,
    signed_binomials,
)


class TruncationSpec:
    """Monomial basis below the cutoff plus the caches shared by all series."""

    def __init__(self, model: GroupModel, W: int):
        if W < 1:
            raise ValueError("cutoff W must be a positive integer (units of 1/e)")
        self.model = model
        self.W = W
        self.e = model.omega.e
        self.precision = model.precision
        self.cutoff = Fraction(W, self.e)
        self.omega = model.omega.values
        # omega lies in (1/e)Z, so e * weight is an integer and the cutoff
        # is W: grow exponent prefixes one coordinate at a time below it
        pairs = [(0, ())]
        for w in (int(w * self.e) for w in self.omega):
            pairs = [(s + k * w, a + (k,)) for s, a in pairs
                     for k in range((W - 1 - s) // w + 1)]
        pairs.sort()
        self.basis: list[MultiIndex] = [a for _, a in pairs]
        self.index = {a: i for i, a in enumerate(self.basis)}
        self.size = len(pairs)
        # e * weight of each basis monomial, ascending
        self._int_weights = np.array([s for s, _ in pairs], dtype=np.int64)
        self._exponents = np.array(self.basis, dtype=np.int64).reshape(
            self.size, model.rank)
        self.max_exponents = tuple(int(m) for m in self._exponents.max(axis=0))
        max_exp = max(self.max_exponents, default=0)
        if model.p ** model.precision <= max_exp:
            need = 1
            while model.p ** need <= max_exp:
                need += 1
            raise PrecisionError(
                f"cutoff W={W} uses exponents up to {max_exp}; coordinate precision "
                f"M={model.precision} is too small (need M >= {need})")
        if self.size * (model.p - 1) ** 2 >= INT64_LIMIT:
            raise ModelError(
                f"p = {model.p} is too large for {self.size} monomials: exact int64 "
                f"sums need size * (p - 1)^2 < 2^63")
        # mixed-radix codes of the exponents, for vectorised index lookup
        self._radix = np.cumprod([1] + [m + 1 for m in self.max_exponents[:-1]],
                                 dtype=np.int64)
        codes = self._exponents @ self._radix
        self._code_order = np.argsort(codes)
        self._sorted_codes = codes[self._code_order]
        self._op_cache: dict = {}
        self._expand_cache: dict = {}
        self._signed_rows: list = []
        self._embed_rows: dict = {}
        self._gel_cache: dict = {}
        self._gen_maps: dict = {}
        self._aut_tables: dict = {}

    # -- basic structure ----------------------------------------------------

    def weight(self, a: MultiIndex) -> Fraction:
        i = self.index.get(a)
        if i is None:
            return mi_weight(a, self.omega)
        return Fraction(int(self._int_weights[i]), self.e)

    def _indices_of(self, exponents: np.ndarray) -> np.ndarray:
        """Basis indices of exponent rows, each of which must be a basis
        monomial."""
        codes = exponents @ self._radix
        return self._code_order[np.searchsorted(self._sorted_codes, codes)]

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def one(self) -> "TruncatedSeries":
        return self.monomial((0,) * self.model.rank)

    def monomial(self, a: Sequence[int], c: int = 1) -> "TruncatedSeries":
        return TruncatedSeries(self, {tuple(a): c})

    def from_dict(self, coeffs: Mapping[MultiIndex, int]) -> "TruncatedSeries":
        return TruncatedSeries(self, dict(coeffs))

    def from_vector(self, vec) -> "TruncatedSeries":
        coeffs = {self.basis[i]: int(v) for i, v in enumerate(vec) if v % self.model.p}
        return TruncatedSeries(self, coeffs)

    # -- expansion caches ---------------------------------------------------

    def _expand(self, a: MultiIndex):
        """b^a as a combination of group elements g^c, c <= a componentwise:
        the coefficient of g^c is prod_i (-1)^{a_i - c_i} C(a_i, c_i) mod p.
        The table of signed binomials reaches the largest basis exponent and
        grows for an a beyond it."""
        hit = self._expand_cache.get(a)
        if hit is None:
            top = max(a)
            if top >= len(self._signed_rows):
                self._signed_rows = signed_binomial_rows(
                    max(self.max_exponents + (top,)), self.model.p)
            hit = self._expand_cache[a] = signed_binomials(
                self._signed_rows, a, self.model.p)
        return hit

    def _group_el(self, c: MultiIndex) -> GroupElement:
        hit = self._gel_cache.get(c)
        if hit is None:
            hit = self.model.element(c)
            self._gel_cache[c] = hit
        return hit

    def _embed_key(self, el: GroupElement):
        return tuple(x.digits for x in el.coords)

    def _embed_row(self, el: GroupElement) -> np.ndarray:
        """C(lam, b) mod p for every basis monomial b, where lam = coords of el:
        one table of C(lam_i, k) per coordinate, gathered at the exponents."""
        key = self._embed_key(el)
        hit = self._embed_rows.get(key)
        if hit is None:
            p = self.model.p
            hit = np.ones(self.size, dtype=np.int64)
            for lam, top, col in zip(el.coords, self.max_exponents, self._exponents.T):
                table = np.array([binom_mod_p(lam, k) for k in range(top + 1)],
                                 dtype=np.int64)
                hit = hit * table[col] % p
            self._embed_rows[key] = hit
        return hit

    # -- generator maps -----------------------------------------------------

    def generator_map(self, j: int, side: str = "right") -> "SparseMap":
        """Sparse map x -> x*b_j (side "right") or x -> b_j*x ("left")."""
        key = (side, j)
        hit = self._gen_maps.get(key)
        if hit is None:
            hit = self._build_generator_map(j, side)
            self._gen_maps[key] = hit
        return hit

    def _build_generator_map(self, j: int, side: str) -> "SparseMap":
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        model = self.model
        p = model.p
        gj = model.basis()[j]
        # b^a*b_j is in normal order iff a has no letter after j, b_j*b^a iff
        # it has none before j; in abelian models every product is
        if model.kind == "abelian":
            outside = ()
        else:
            outside = range(j + 1, model.rank) if side == "right" else range(j)
        rows: dict = {}  # c -> embed(g^c * g_j), or embed(g_j * g^c)

        def bump(a: MultiIndex) -> MultiIndex:
            return a[:j] + (a[j] + 1,) + a[j + 1:]

        def moved_row(c: MultiIndex) -> np.ndarray:
            hit = rows.get(c)
            if hit is None:
                if any(c[k] for k in outside):
                    g = self._group_el(c)
                    el = model.mul(g, gj) if side == "right" else model.mul(gj, g)
                else:
                    el = self._group_el(bump(c))
                hit = rows[c] = self._embed_row(el)
            return hit

        entries = []  # (target, source, coefficient)
        for i, a in enumerate(self.basis):
            if not any(a[k] for k in outside):
                k = self.index.get(bump(a))
                if k is not None:
                    entries.append((k, i, 1))
                continue
            # b^a b_j = sum_c s_c (g^c g_j - g^c) = sum_c s_c embed(g^c g_j) - b^a
            terms = self._expand(a)
            col = _combine_rows([s for _, s in terms],
                                [moved_row(c) for c, _ in terms], self.size, p)
            col[i] = (col[i] - 1) % p
            entries.extend((int(k), i, int(col[k])) for k in np.flatnonzero(col))
        tgt, src, coef = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        return SparseMap(p, self.size, tgt, src, coef)


class SparseMap:
    """A sparse F_p-linear map into `size` coordinates, as int64 arrays.

    Entry n adds coef[n] times source coordinate src[n] to target coordinate
    tgt[n]; the entries are sorted by (target, source).  An apply splits them
    into layers, layer l holding the l-th entry of each target, so that no
    target occurs twice in a layer.  It is then one gather, product and
    scatter-add per layer and one reduction mod p; a 2-D block is applied
    on its transpose, whose rows are the coordinates.  del_i has at most 2
    entries per target and the generator maps few, so an apply takes a few
    layers.  The layers are built on the first apply, since most cached
    divided powers are never applied.  The partial sums are reduced often
    enough that no int64 sum of products of residues reaches 2^63."""

    __slots__ = ("p", "size", "tgt", "src", "coef", "_layers", "_by_source")

    def __init__(self, p: int, size: int, tgt, src, coef):
        self.p = p
        self.size = size
        tgt, src, coef = (np.asarray(a, dtype=np.int64) for a in (tgt, src, coef))
        order = np.lexsort((src, tgt))
        self.tgt = tgt[order]
        self.src = src[order]
        self.coef = coef[order]
        self._layers = None
        self._by_source = None

    def _split(self) -> list:
        """(targets, sources, coefficients) of each layer."""
        n = self.tgt.size
        at = np.arange(n)
        first = np.ones(n, dtype=bool)
        first[1:] = self.tgt[1:] != self.tgt[:-1]
        # position of each entry within the run of its target
        depth = at - np.maximum.accumulate(np.where(first, at, 0))
        order = np.argsort(depth, kind="stable")
        cuts = np.cumsum(np.bincount(depth, minlength=1))[:-1]
        return [(self.tgt[k], self.src[k], self.coef[k])
                for k in np.split(order, cuts) if k.size]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Image of a coefficient vector with entries in [0, p), or of each
        row of a 2-D block of them."""
        if self._layers is None:
            self._layers = self._split()
        p = self.p
        cols = vec.T
        out = np.zeros((self.size,) + cols.shape[1:], dtype=np.int64)
        step = max(1, (INT64_LIMIT - p) // (p - 1) ** 2)
        for k, (tgt, src, coef) in enumerate(self._layers):
            part = cols[src] * (coef if vec.ndim == 1 else coef[:, None])
            if not k:
                out[tgt] = part
                continue
            if k % step == 0:
                out %= p
            out[tgt] += part
        out %= p
        return out if vec.ndim == 1 else out.T

    def apply_sparse(self, vec: Mapping[int, int]) -> dict:
        """Image of the vector {coordinate: coefficient}, without zero entries,
        through per-source lists of (target, coefficient) built on first use."""
        if self._by_source is None:
            self._by_source = {}
            for t, s, c in zip(self.tgt.tolist(), self.src.tolist(), self.coef.tolist()):
                self._by_source.setdefault(s, []).append((t, c))
        out: dict = {}
        for s, x in vec.items():
            for t, c in self._by_source.get(s, ()):
                out[t] = out.get(t, 0) + x * c
        return {t: y % self.p for t, y in out.items() if y % self.p}


def _combine_rows(coeffs: Sequence[int], rows: Sequence[np.ndarray], size: int,
                  p: int) -> np.ndarray:
    """sum_k coeffs[k] * rows[k] mod p over residues, reduced every `size`
    rows so that no partial sum reaches size * (p - 1)^2."""
    acc = np.zeros(size, dtype=np.int64)
    for lo in range(0, len(rows), size):
        part = np.array(coeffs[lo:lo + size], dtype=np.int64) @ np.array(rows[lo:lo + size])
        acc = (acc + part % p) % p
    return acc


class TruncatedSeries:
    """Coefficient map on the monomial basis; immutable by convention."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc: TruncationSpec, coeffs: Mapping[MultiIndex, int]):
        p = trunc.model.p
        clean = {}
        for a, c in coeffs.items():
            a = tuple(int(x) for x in a)
            if len(a) != trunc.model.rank or any(x < 0 for x in a):
                raise ValueError(f"bad monomial exponent {a}")
            c = int(c) % p
            if c and a in trunc.index:
                clean[a] = c
            # monomials at or beyond the cutoff are 0 mod F_W and are dropped
        self.trunc = trunc
        self.coeffs = clean

    # -- ring structure -----------------------------------------------------

    def _check(self, other: "TruncatedSeries") -> None:
        if self.trunc is not other.trunc:
            raise ValueError("series from different truncations")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(self.trunc, poly_combine(
            (1, 1), (self.coeffs, other.coeffs), self.trunc.model.p))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return self.scale(-1)

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries(self.trunc, poly_combine(
            (c,), (self.coeffs,), self.trunc.model.p))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        t = self.trunc
        p = t.model.p
        if t.model.kind == "abelian":
            # every generator map is a shift here, so this is the polynomial
            # product with the monomials beyond the cutoff dropped
            return TruncatedSeries(t, poly_product_sum([(self.coeffs, other.coeffs)], p))
        # x*b^beta = (x*b^beta')*b_j for the normal-order prefix beta'
        prefix: dict = {}
        for beta in other.coeffs:
            while any(beta) and beta not in prefix:
                j = max(i for i, v in enumerate(beta) if v)
                prev = beta[:j] + (beta[j] - 1,) + beta[j + 1:]
                prefix[beta] = (prev, j)
                beta = prev
        multiples = {(0,) * t.model.rank: self.vector()}
        for beta in sorted(prefix, key=t.index.__getitem__):
            prev, j = prefix[beta]
            multiples[beta] = t.generator_map(j).apply(multiples[prev])
        terms = list(other.coeffs.items())
        return t.from_vector(_combine_rows(
            [c for _, c in terms], [multiples[b] for b, _ in terms], t.size, p))

    def pow(self, k: int) -> "TruncatedSeries":
        return power(self, k, self.trunc.one(), mul)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries) and self.trunc is other.trunc
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.trunc), tuple(sorted(self.coeffs.items()))))

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[MultiIndex]:
        """Monomials with nonzero coefficient in (weight, exponent) order,
        which is basis order."""
        return sorted(self.coeffs, key=self.trunc.index.__getitem__)

    def coeff(self, a: Sequence[int]) -> int:
        return self.coeffs.get(tuple(a), 0)

    def valuation(self) -> Val:
        """w(x): least monomial weight, or AtLeast(W/e) for the empty series."""
        if not self.coeffs:
            return AtLeast(self.trunc.cutoff)
        return self.trunc.weight(min(self.coeffs, key=self.trunc.index.__getitem__))

    def vector(self) -> np.ndarray:
        out = np.zeros(self.trunc.size, dtype=np.int64)
        for a, c in self.coeffs.items():
            out[self.trunc.index[a]] = c
        return out

    def __repr__(self) -> str:
        return f"TruncatedSeries({format_series(self)})"


# ---------------------------------------------------------------------------
# Group elements and automorphisms inside the algebra
# ---------------------------------------------------------------------------

def group_embed(trunc: TruncationSpec, el: GroupElement) -> TruncatedSeries:
    """g as a series: g^m = sum_b C(m, b) b^b over the monomial basis."""
    if el.model is not trunc.model:
        raise ModelError("element belongs to a different model")
    return trunc.from_vector(trunc._embed_row(el))


def aut_images_table(trunc: TruncationSpec, phi: Automorphism) -> list[np.ndarray]:
    """Images of every basis monomial under the ring extension of phi.

    phi(b^a) = prod_i (phi(g_i) - 1)^{a_i} in normal order; the table is
    built in graded order so each entry is one series product.
    """
    hit = trunc._aut_tables.get(phi)
    if hit is not None:
        return hit
    if phi.model is not trunc.model:
        raise ModelError("automorphism belongs to a different model")
    one = trunc.one()
    moved = [group_embed(trunc, img) - one for img in phi.images]
    table: list[Optional[TruncatedSeries]] = [None] * trunc.size
    table[trunc.index[(0,) * trunc.model.rank]] = one
    for a in trunc.basis:
        if sum(a) == 0:
            continue
        j = max(i for i, v in enumerate(a) if v)
        prev = list(a)
        prev[j] -= 1
        table[trunc.index[a]] = table[trunc.index[tuple(prev)]] * moved[j]
    rows = [s.vector() for s in table]
    trunc._aut_tables[phi] = rows
    return rows


def aut_extend(trunc: TruncationSpec, phi: Automorphism,
               x: TruncatedSeries) -> TruncatedSeries:
    """Apply the ring extension of phi to x, exactly mod F_W."""
    if x.trunc is not trunc:
        raise ValueError("series from a different truncation")
    rows = aut_images_table(trunc, phi)
    p = trunc.model.p
    acc = np.zeros(trunc.size, dtype=np.int64)
    for a, c in x.coeffs.items():
        acc += c * rows[trunc.index[a]]
    return trunc.from_vector(acc % p)


def relative_normal_form(x: TruncatedSeries, split: int) -> dict:
    """Regroup x = sum_g r_g * c^g with c_i = b_{split+i}.

    Keys are the exponent tuples g on the trailing rank-split coordinates;
    each r_g is a series supported on the leading block (trailing exponents
    zero).  The regrouping is exact because normal order already factors
    every monomial as (leading block) * (trailing block).
    """
    t = x.trunc
    d = t.model.rank
    if not 0 <= split <= d:
        raise ValueError(f"split must be in [0, {d}]")
    out: dict = {}
    for a, c in x.coeffs.items():
        gamma = a[split:]
        head = a[:split] + (0,) * (d - split)
        out.setdefault(gamma, {})[head] = c
    return {gamma: TruncatedSeries(t, coeffs) for gamma, coeffs in out.items()}


def series_frobenius(x: TruncatedSeries, k: int = 1) -> TruncatedSeries:
    """x^{p^k} for commutative models: scale exponents, keep coefficients."""
    if x.trunc.model.kind != "abelian":
        raise ValueError("Frobenius shortcut is only valid on abelian models")
    return TruncatedSeries(x.trunc, poly_frobenius(x.coeffs, x.trunc.model.p, k))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def format_series(x: TruncatedSeries) -> str:
    """Canonical text: terms in basis order, 'c*b1^a1*b2^a2' with ^1 and a
    leading 1* omitted."""
    return format_poly(x.coeffs, x.support(), "b")


def parse_series(trunc: TruncationSpec, text: str) -> TruncatedSeries:
    """Inverse of format_series (whitespace tolerant; accepts explicit 1*)."""
    text = text.strip()
    if not text or text == "0":
        return trunc.zero()
    d = trunc.model.rank
    coeffs: dict = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError("empty term in series literal")
        coeff = 1
        expo = [0] * d
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            if factor[0] == "b":
                name, _, power = factor.partition("^")
                try:
                    idx = int(name[1:])
                except ValueError:
                    raise ValueError(f"bad variable {factor!r}") from None
                if not 1 <= idx <= d:
                    raise ValueError(f"variable {name} out of range 1..{d}")
                k = int(power) if power else 1
                if k < 0:
                    raise ValueError(f"negative exponent in {factor!r}")
                expo[idx - 1] += k
            else:
                coeff = coeff * int(factor)
        key = tuple(expo)
        coeffs[key] = (coeffs.get(key, 0) + coeff) % trunc.model.p
    return TruncatedSeries(trunc, coeffs)
