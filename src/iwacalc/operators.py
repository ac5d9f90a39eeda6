"""Divided-power operators, Mahler calculus and coset idempotents.

Every operator here is a `SparseMap` on a TruncationSpec's monomial space:
(target, source, coefficient) arrays over F_p, sorted by source, applied to
a coefficient vector.  Operators compose (`SparseMap.compose`) and combine
linearly (`SparseMap.combine`) as sparse maps, into canonical maps that
compare equal exactly when the operators are equal.  The divided powers
are cached as such maps (`divided_power_map`), one per truncation and
index, built with numpy from the closed formula below; the coset
idempotents are polynomials in them.

The divided power del^(a) acts by the closed formula

    del^(a) (b^B) = C(B, a) * prod_i (1 + b_i)^{a_i} b_i^{B_i - a_i}

(zero unless a <= B componentwise), acts on embedded group elements as
multiplication by the binomial C(m, a), and has degree exactly -<a, omega>.
`divided_power` applies the cached map to a series; the tests check the
maps against the formula applied term by term.

Mahler coefficients of an automorphism phi are the series <phi, del^(a)>
in the expansion  phi = sum_a  (left mult by <phi, del^(a)>) o del^(a).
The primary computation is always the finite-difference one, over integer
points below a: the group kernel of `series` applied to g |-> phi(g) g^{-1};
the product closed form, valid when phi moves every basis element by a
central factor, is kept separate as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .groups import Automorphism, ModelError, SubgroupSpec, is_trivial_mod_centre
from .linalg import sum_entries
from .padic import (
    AtLeast, MultiIndex, Val, comb_mod, mi_range, power, signed_binomial_rows,
    signed_binomials, val_min, val_sub_exact,
)
from .series import (
    SparseMap, TruncatedSeries, TruncationSpec, group_embed,
)


# ---------------------------------------------------------------------------
# Divided powers
# ---------------------------------------------------------------------------

def _operator_index(trunc: TruncationSpec, alpha: Sequence[int]) -> MultiIndex:
    alpha = tuple(int(v) for v in alpha)
    if len(alpha) != trunc.model.rank or any(v < 0 for v in alpha):
        raise ValueError(f"bad operator index {alpha}")
    return alpha


def divided_power(trunc: TruncationSpec, alpha: Sequence[int],
                  x: TruncatedSeries) -> TruncatedSeries:
    """Apply del^(alpha) to a series through its cached sparse map."""
    if x.trunc is not trunc:
        raise ValueError("series from a different truncation")
    return trunc.from_vector(divided_power_map(trunc, alpha).apply(x.vector()))


def divided_power_map(trunc: TruncationSpec, alpha: Sequence[int]) -> SparseMap:
    """del^(alpha) as a sparse map, built from the closed formula on first
    use and cached on the truncation."""
    alpha = _operator_index(trunc, alpha)
    return trunc.cached_map(("dp", alpha), lambda: _build_divided_power_map(trunc, alpha))


def _build_divided_power_map(trunc: TruncationSpec, alpha: MultiIndex) -> SparseMap:
    p = trunc.model.p
    exps = trunc._exponents
    # C(B, alpha) = prod_i C(B_i, alpha_i), one binomial table per coordinate
    lead = np.ones(trunc.size, dtype=np.int64)
    for a, top, col in zip(alpha, trunc.max_exponents, exps.T):
        table = np.array([comb_mod(m, a, p) for m in range(top + 1)], dtype=np.int64)
        lead = lead * table[col] % p
    src = np.flatnonzero(lead)
    if not src.size:
        # also keeps a large alpha from enumerating the box below it
        return SparseMap(p, trunc.size, [], [], [])
    # (1 + b_i)^{alpha_i} = sum_k C(alpha_i, k) b_i^k, one offset k per term
    offsets = np.array(list(mi_range(alpha)), dtype=np.int64).reshape(-1, len(alpha))
    scale = np.ones(len(offsets), dtype=np.int64)
    for a, col in zip(alpha, offsets.T):
        table = np.array([comb_mod(a, k, p) for k in range(a + 1)], dtype=np.int64)
        scale = scale * table[col] % p
    offsets, scale = offsets[scale != 0], scale[scale != 0]
    # B - alpha + k <= B componentwise, and the basis is closed under
    # lowering exponents, so every target is a basis monomial
    targets = exps[src, None, :] - np.array(alpha) + offsets[None, :, :]
    tgt = trunc._indices_of(targets.reshape(-1, len(alpha)))
    coef = (lead[src, None] * scale[None, :] % p).ravel()
    return SparseMap(p, trunc.size, tgt, np.repeat(src, len(offsets)), coef)


@dataclass(frozen=True)
class DegreeReport:
    """Degree of an operator: exact minimum over columns whose image resolves,
    plus the truncation lower bound contributed by columns that vanish."""

    resolved: Optional[Fraction]
    tail_bound: Optional[Fraction]

    def value(self) -> Val:
        vals: list[Val] = []
        if self.resolved is not None:
            vals.append(self.resolved)
        if self.tail_bound is not None:
            vals.append(AtLeast(self.tail_bound))
        return val_min(vals)


def operator_degree(trunc: TruncationSpec, op: SparseMap) -> DegreeReport:
    """Degree of a sparse map on the truncation, read from its entries: each
    source's least-weight target with a nonzero coefficient."""
    if op.size != trunc.size:
        raise ValueError(f"map on {op.size} monomials, truncation has {trunc.size}")
    w = trunc._int_weights
    none = np.iinfo(np.int64).max
    least = np.full(trunc.size, none)
    # a (target, source) pair may repeat: its sum is tested for zero
    tgt, src, _ = sum_entries(op.tgt, op.src, op.coef, op.p)
    np.minimum.at(least, src, w[tgt])
    hit = least != none
    resolved = tail = None
    if hit.any():
        resolved = Fraction(int((least[hit] - w[hit]).min()), trunc.e)
    if not hit.all():
        tail = Fraction(int(trunc.W - w[~hit].max()), trunc.e)
    return DegreeReport(resolved, tail)


# ---------------------------------------------------------------------------
# Locally constant functions on the group
# ---------------------------------------------------------------------------

# terms of the Mahler box expanded at a time (mahler_coeffs_function)
_SLICE_TERMS = 4096


class LocallyConstantFunction:
    """F_p-valued function on G factoring through coordinates mod p^s."""

    def __init__(self, p: int, rank: int, s: int, table: dict):
        self.p = p
        self.rank = rank
        self.s = s
        self.box = p ** s
        size = self.box ** rank
        if len(table) != size:
            raise ValueError(f"table must cover all {size} residue vectors")
        self.table = {tuple(k): v % p for k, v in table.items()}

    def __call__(self, lam: Sequence[int]) -> int:
        return self.table[tuple(v % self.box for v in lam)]


def mahler_coeffs_function(f: LocallyConstantFunction) -> dict:
    """Forward differences at zero: C_a(f) = sum_{b <= a} (-1)^{|a-b|} C(a,b) f(b).

    The box is expanded in slices of consecutive rows a, each starting a
    new slice once _SLICE_TERMS terms precede it, so that memory follows
    the slice and not the whole (p^s)^rank box."""
    p = f.p
    box = list(mi_range((f.box - 1,) * f.rank))
    values = np.array([f.table[b] for b in box], dtype=np.int64)
    table = signed_binomial_rows(f.box - 1, p)
    exps = np.array(box, dtype=np.int64).reshape(len(box), f.rank)
    # b <= a < box, so its lexicographic code in the box is its place in `box`
    radix = f.box ** np.arange(f.rank - 1, -1, -1, dtype=np.int64)
    # the terms of row a: one per entry of each of its table rows
    terms = np.prod(np.diff(table[0])[exps], axis=1)
    cuts = np.flatnonzero(np.diff((np.cumsum(terms) - terms) // _SLICE_TERMS,
                                  prepend=-1)).tolist() + [len(box)]
    acc = np.zeros(len(box), dtype=np.int64)
    for lo, hi in zip(cuts, cuts[1:]):
        owner, b, signs = signed_binomials(table, exps[lo:hi], p)
        acc[lo:hi] = np.add.reduceat(signs * values[b @ radix] % p,
                                     np.searchsorted(owner, np.arange(hi - lo))) % p
    return {box[n]: int(acc[n]) for n in np.flatnonzero(acc).tolist()}


def function_from_mahler(coeffs: dict, lam: Sequence[int], p: int) -> int:
    """Evaluate sum_a C_a * C(lam, a); inverse of mahler_coeffs_function."""
    acc = 0
    for a, c in coeffs.items():
        term = c
        for li, ai in zip(lam, a):
            term = term * comb_mod(li, ai, p) % p
        acc += term
    return acc % p


def rho_apply(trunc: TruncationSpec, f: LocallyConstantFunction,
              x: TruncatedSeries) -> TruncatedSeries:
    """The multiplier  g |-> f(g) g  extended to the algebra, via the group
    expansion (the reference route)."""
    if x.trunc is not trunc:
        raise ValueError("series from a different truncation")
    if f.rank != trunc.model.rank or f.p != trunc.model.p:
        raise ValueError("function does not match the model")
    p = trunc.model.p
    exps, coefs = list(x.coeffs), np.array(list(x.coeffs.values()), dtype=np.int64)
    owner, c, signs = trunc._signed_binomials(exps)
    # merge the terms per g^c; each c is a basis monomial
    _, first, at = np.unique(c @ trunc._radix, return_index=True, return_inverse=True)
    weights = np.zeros(first.size, dtype=np.int64)
    np.add.at(weights, at, coefs[owner] * signs % p)
    distinct = c[first]
    values = np.array([f(g) for g in distinct.tolist()], dtype=np.int64)
    return trunc.from_vector(weights % p * values % p @ trunc._embed_rows(distinct))


def rho_apply_mahler(trunc: TruncationSpec, f: LocallyConstantFunction,
                     x: TruncatedSeries) -> TruncatedSeries:
    """Same multiplier through the Mahler expansion: sum_a C_a(f) del^(a)(x)."""
    out = trunc.zero()
    for a, c in mahler_coeffs_function(f).items():
        out = out + divided_power(trunc, a, x).scale(c)
    return out


# ---------------------------------------------------------------------------
# Mahler coefficients of automorphisms
# ---------------------------------------------------------------------------

def _mahler_rows(trunc: TruncationSpec, phi: Automorphism, alphas) -> np.ndarray:
    """Row k is <phi, del^(alphas[k])>, the image of b^alpha under the linear
    extension of  g |-> phi(g) g^{-1}: its finite differences over the
    integer points below alpha.  alpha need not lie in the basis."""
    model = phi.model
    return trunc._group_columns(alphas, lambda cs: [
        model.mul(phi.apply(g), model.inv(g)).coords
        for g in map(model.element, cs.tolist())])


def mahler_coeff_aut(trunc: TruncationSpec, phi: Automorphism,
                     alpha: Sequence[int]) -> TruncatedSeries:
    """<phi, del^(alpha)> by finite differences (`_mahler_rows`), the primary
    route for every automorphism."""
    return trunc.from_vector(_mahler_rows(trunc, phi, [_operator_index(trunc, alpha)])[0])


def mahler_coeff_aut_central(trunc: TruncationSpec, phi: Automorphism,
                             alpha: Sequence[int]) -> TruncatedSeries:
    """Closed form  prod_i (phi(g_i) g_i^{-1} - 1)^{a_i},  valid when every
    basis displacement is central.  Kept separate from the finite-difference
    route so the two can be compared."""
    alpha = _operator_index(trunc, alpha)
    model = trunc.model
    if model.kind != "abelian":
        if model.centre is None:
            raise ModelError("need a declared centre to certify the closed form")
        if not is_trivial_mod_centre(phi, model.centre):
            raise ModelError("closed form needs phi trivial mod the centre")
    one = trunc.one()
    out = one
    for i, g in enumerate(model.basis()):
        if not alpha[i]:
            continue
        moved = model.mul(phi.apply(g), model.inv(g))
        factor = group_embed(trunc, moved) - one
        out = out * factor.pow(alpha[i])
    return out


def reconstruct_aut(trunc: TruncationSpec, phi: Automorphism,
                    degree_budget) -> dict:
    """Images of the basis monomials b^B with <B, omega> <= D under the
    partial sum of  (left mult by <phi, del^(a)>) o del^(a),  as
    {B: image of b^B} in basis order.

    Includes every a with <a, omega> <= D whose term can touch these
    columns mod F_W; each omitted term has operator degree at least
    delta * |a| > W/e - D, where delta is the basis displacement degree of
    phi.  Each image then agrees with aut_extend exactly."""
    D = Fraction(degree_budget)
    model = trunc.model
    displacements = []
    for i, g in enumerate(model.basis()):
        moved = model.mul(phi.apply(g), model.inv(g))
        displacements.append(
            val_sub_exact(model.omega_of(moved), model.omega.values[i]))
    delta_val = val_min(displacements)
    delta = delta_val.bound if isinstance(delta_val, AtLeast) else delta_val
    if delta <= 0:
        raise ModelError(f"reconstruction needs positive degree, got {delta_val}")
    w, e = trunc._int_weights, trunc.e
    # the basis is sorted by weight, so the columns of weight <= D are a
    # prefix; del^(a) kills b^B unless a <= B, so the a that matter lie in
    # the same prefix
    cols = trunc.basis[:int(np.searchsorted(w, math.floor(D * e), side="right"))]
    images = {B: trunc.zero() for B in cols}
    alphas = [a for k, a in enumerate(cols)
              if not sum(a) or delta * sum(a) * e + int(w[k]) < trunc.W]
    coeffs = _mahler_rows(trunc, phi, alphas)
    for a, vec in zip(alphas, coeffs):
        if not vec.any():
            continue
        coeff = trunc.from_vector(vec)
        # the columns in `cols` are the leading slice of the map's sources
        d = divided_power_map(trunc, a)
        n = int(np.searchsorted(d.src, len(cols)))
        moved = np.zeros((len(cols), trunc.size), dtype=np.int64)
        np.add.at(moved, (d.src[:n], d.tgt[:n]), d.coef[:n])
        for B, row in zip(cols, moved % trunc.model.p):
            if row.any():
                images[B] = images[B] + coeff * trunc.from_vector(row)
    return images


# ---------------------------------------------------------------------------
# Coset idempotents
# ---------------------------------------------------------------------------

def coset_idempotent(trunc: TruncationSpec, H: SubgroupSpec,
                     nu: Sequence[int]) -> SparseMap:
    """e_nu = prod_{i in mask} (1 - (del_i - nu_i)^{p-1}) for a subgroup whose
    exponent pattern is 0/1; acts on an embedded group element as the
    indicator of the coordinate coset  lam_i = nu_i mod p  over the mask.
    Built by composing sparse maps: each factor from the cached del_i, its
    power by square and multiply."""
    if H.model is not trunc.model:
        raise ModelError("subgroup belongs to a different model")
    if any(n not in (0, 1) for n in H.exponents):
        raise ModelError(f"subgroup shape {H.exponents} unsupported: "
                         "exponents must be 0 or 1")
    mask = [i for i, n in enumerate(H.exponents) if n == 1]
    nu = [int(v) for v in nu]
    if len(nu) != len(mask):
        raise ValueError(f"need {len(mask)} residues for mask {mask}, got {len(nu)}")
    p = trunc.model.p
    if any(not 0 <= v < p for v in nu):
        raise ValueError("residues must lie in [0, p)")
    one = SparseMap.identity(p, trunc.size)
    out = one
    for i, v in zip(mask, nu):
        d_i = divided_power_map(
            trunc, tuple(1 if j == i else 0 for j in range(trunc.model.rank)))
        shifted = SparseMap.combine((1, -v), (d_i, one))
        out = out.compose(SparseMap.combine(
            (1, -1), (one, power(shifted, p - 1, one, SparseMap.compose))))
    return out
