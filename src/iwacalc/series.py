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
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .groups import INT64_LIMIT, Automorphism, GroupElement, GroupModel, ModelError
from .padic import (
    AtLeast, MultiIndex, PrecisionError, Val, binom_mod_p, comb_mod, mi_range,
    mi_weight,
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
        """b^a as a combination of group elements g^c, c <= a componentwise."""
        hit = self._expand_cache.get(a)
        if hit is not None:
            return hit
        p = self.model.p
        n = sum(a)
        out = []
        for c in mi_range(a):
            coeff = 1
            for ai, ci in zip(a, c):
                coeff = coeff * comb_mod(ai, ci, p) % p
            if coeff and (n - sum(c)) % 2:
                coeff = (p - coeff) % p
            if coeff:
                out.append((c, coeff))
        out = tuple(out)
        self._expand_cache[a] = out
        return out

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
            # published only once complete, so threads sharing this
            # truncation never see a half-built map
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
    """A sparse F_p-linear map on the monomial basis, as int64 arrays.

    Entry n adds coef[n] times source coordinate src[n] to one target
    coordinate.  Entries are sorted by target: targets[k] collects the
    entries from starts[k] up to the next start.  An apply is one gather,
    one product and one reduceat, and each target sums at most `size`
    products of residues."""

    __slots__ = ("p", "size", "src", "coef", "targets", "starts")

    def __init__(self, p: int, size: int, tgt, src, coef):
        self.p = p
        self.size = size
        tgt, src, coef = (np.asarray(a, dtype=np.int64) for a in (tgt, src, coef))
        order = np.lexsort((src, tgt))
        self.src = src[order]
        self.coef = coef[order]
        self.targets, self.starts = np.unique(tgt[order], return_index=True)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Image of a coefficient vector with entries in [0, p), or of each
        row of a 2-D block of them."""
        out = np.zeros(vec.shape, dtype=np.int64)
        if self.src.size:
            out[..., self.targets] = np.add.reduceat(
                vec[..., self.src] * self.coef, self.starts, axis=-1) % self.p
        return out


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
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = (out.get(a, 0) + c) % self.trunc.model.p
        return TruncatedSeries(self.trunc, out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        p = self.trunc.model.p
        return TruncatedSeries(self.trunc, {a: p - c for a, c in self.coeffs.items()})

    def scale(self, c: int) -> "TruncatedSeries":
        c = c % self.trunc.model.p
        return TruncatedSeries(self.trunc, {a: v * c for a, v in self.coeffs.items()})

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        t = self.trunc
        p = t.model.p
        if t.model.kind == "abelian":
            # every generator map is a shift here; this is its closed form
            out: dict = {}
            for a, ca in self.coeffs.items():
                for b, cb in other.coeffs.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    if key in t.index:
                        out[key] = (out.get(key, 0) + ca * cb) % p
            return TruncatedSeries(t, out)
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
        if k < 0:
            raise ValueError("negative series powers are undefined here")
        out = self.trunc.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
    if k < 0:
        raise ValueError("k must be nonnegative")
    step = x.trunc.model.p ** k
    return TruncatedSeries(
        x.trunc, {tuple(v * step for v in a): c for a, c in x.coeffs.items()})


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def format_series(x: TruncatedSeries) -> str:
    """Canonical text: terms in basis order, 'c*b1^a1*b2^a2' with ^1 and a
    leading 1* omitted."""
    if not x.coeffs:
        return "0"
    parts = []
    for a in x.support():
        c = x.coeffs[a]
        factors = []
        for i, v in enumerate(a):
            if v == 1:
                factors.append(f"b{i + 1}")
            elif v > 1:
                factors.append(f"b{i + 1}^{v}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


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
