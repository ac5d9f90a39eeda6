"""Divided-power operators, Mahler calculus and coset idempotents.

Every operator here is a `SparseMap` on a TruncationSpec's monomial space:
(target, source, coefficient) arrays over F_p, applied to a coefficient
vector or to each row of a block of them.  Two operators are compared by
their images of the basis monomials, that is, by applying them to the
identity block.  The divided powers are cached as such maps
(`divided_power_map`), one per truncation and index, built with numpy from
the closed formula below; the coset idempotents are polynomials in them.

The divided power del^(a) acts by the closed formula

    del^(a) (b^B) = C(B, a) * prod_i (1 + b_i)^{a_i} b_i^{B_i - a_i}

(zero unless a <= B componentwise), acts on embedded group elements as
multiplication by the binomial C(m, a), and has degree exactly -<a, omega>.
`divided_power` applies the formula term by term to a series; it is kept
as the oracle the sparse maps are tested against.

Mahler coefficients of an automorphism phi are the series <phi, del^(a)>
in the expansion  phi = sum_a  (left mult by <phi, del^(a)>) o del^(a).
The primary computation is always the finite-difference one, over integer
points below a; the product closed form, valid when phi moves every basis
element by a central factor, is kept separate as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .groups import Automorphism, ModelError, SubgroupSpec, is_trivial_mod_centre
from .padic import (
    AtLeast, MultiIndex, Val, comb_mod, mi_range, val_min, val_sub_exact,
)
from .series import (
    SparseMap, TruncatedSeries, TruncationSpec, _combine_rows, group_embed,
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
    """Apply del^(alpha) by the closed formula; exact mod F_W."""
    alpha = _operator_index(trunc, alpha)
    p = trunc.model.p
    out: dict = {}
    for beta, c in x.coeffs.items():
        if not all(a <= b for a, b in zip(alpha, beta)):
            continue
        lead = c
        for a, b in zip(alpha, beta):
            lead = lead * comb_mod(b, a, p) % p
        if not lead:
            continue
        base = tuple(b - a for a, b in zip(alpha, beta))
        for k in mi_range(alpha):
            coeff = lead
            for ai, ki in zip(alpha, k):
                coeff = coeff * comb_mod(ai, ki, p) % p
            if not coeff:
                continue
            key = tuple(x0 + k0 for x0, k0 in zip(base, k))
            if key in trunc.index:
                out[key] = (out.get(key, 0) + coeff) % p
    return TruncatedSeries(trunc, out)


def divided_power_map(trunc: TruncationSpec, alpha: Sequence[int]) -> SparseMap:
    """del^(alpha) as a sparse map, built from the closed formula on first
    use and cached on the truncation."""
    alpha = _operator_index(trunc, alpha)
    key = ("dp", alpha)
    hit = trunc._op_cache.get(key)
    if hit is None:
        hit = _build_divided_power_map(trunc, alpha)
        # published only once complete, so threads sharing this
        # truncation never see a half-built map
        trunc._op_cache[key] = hit
    return hit


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
    if op.src.size:
        tgt = np.repeat(op.targets, np.diff(np.append(op.starts, op.src.size)))
        # entries are sorted by (target, source) and a pair may repeat, so
        # each pair's coefficients are summed before the test for zero
        pair = tgt * op.size + op.src
        first = np.flatnonzero(np.diff(pair, prepend=-1))
        live = first[np.add.reduceat(op.coef, first) % op.p != 0]
        np.minimum.at(least, op.src[live], w[tgt[live]])
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

    @classmethod
    def from_callable(cls, p: int, rank: int, s: int, fn) -> "LocallyConstantFunction":
        box = p ** s
        table = {a: fn(a) for a in mi_range((box - 1,) * rank)}
        return cls(p, rank, s, table)

    @classmethod
    def coset_indicator(cls, p: int, rank: int, s: int,
                        nu: Sequence[int], level: Optional[int] = None
                        ) -> "LocallyConstantFunction":
        """Indicator of the coset {lam : lam = nu mod p^level} (level <= s)."""
        level = s if level is None else level
        if level > s:
            raise ValueError("indicator level exceeds the resolution")
        box = p ** level
        nu = tuple(v % box for v in nu)
        return cls.from_callable(
            p, rank, s, lambda a: 1 if tuple(v % box for v in a) == nu else 0)

    def __call__(self, lam: Sequence[int]) -> int:
        return self.table[tuple(v % self.box for v in lam)]


def mahler_coeffs_function(f: LocallyConstantFunction) -> dict:
    """Forward differences at zero: C_a(f) = sum_{b <= a} (-1)^{|a-b|} C(a,b) f(b)."""
    p = f.p
    out: dict = {}
    top = (f.box - 1,) * f.rank
    for a in mi_range(top):
        acc = 0
        for b in mi_range(a):
            c = 1
            for ai, bi in zip(a, b):
                c = c * comb_mod(ai, bi, p) % p
            if (sum(a) - sum(b)) % 2:
                c = -c
            acc += c * f(b)
        acc %= p
        if acc:
            out[a] = acc
    return out


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
    if f.rank != trunc.model.rank or f.p != trunc.model.p:
        raise ValueError("function does not match the model")
    p = trunc.model.p
    coeffs, rows = [], []
    for a, ca in x.coeffs.items():
        for c, s in trunc._expand(a):
            v = ca * s * f(c) % p
            if v:
                coeffs.append(v)
                rows.append(trunc._embed_row(trunc._group_el(c)))
    return trunc.from_vector(_combine_rows(coeffs, rows, trunc.size, p))


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

def mahler_coeff_aut(trunc: TruncationSpec, phi: Automorphism,
                     alpha: Sequence[int]) -> TruncatedSeries:
    """<phi, del^(alpha)> by finite differences of  g |-> phi(g) g^{-1}  over
    the integer points below alpha.  This is the primary route for every
    automorphism."""
    alpha = tuple(int(v) for v in alpha)
    model = trunc.model
    p = model.p
    acc = np.zeros(trunc.size, dtype=np.int64)
    for beta in mi_range(alpha):
        c = 1
        for ai, bi in zip(alpha, beta):
            c = c * comb_mod(ai, bi, p) % p
        if not c:
            continue
        if (sum(alpha) - sum(beta)) % 2:
            c = p - c
        el = trunc._group_el(beta)
        moved = model.mul(phi.apply(el), model.inv(el))
        acc += c * trunc._embed_row(moved)
    return trunc.from_vector(acc % p)


def mahler_coeff_aut_central(trunc: TruncationSpec, phi: Automorphism,
                             alpha: Sequence[int],
                             centre: Optional[SubgroupSpec] = None) -> TruncatedSeries:
    """Closed form  prod_i (phi(g_i) g_i^{-1} - 1)^{a_i},  valid when every
    basis displacement is central.  Kept separate from the finite-difference
    route so the two can be compared."""
    model = trunc.model
    centre = centre if centre is not None else model.centre
    if model.kind != "abelian":
        if centre is None:
            raise ModelError("need a declared centre to certify the closed form")
        if not is_trivial_mod_centre(phi, centre):
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
    block = np.eye(len(cols), trunc.size, dtype=np.int64)
    for k, a in enumerate(cols):
        if sum(a) and delta * sum(a) * e + int(w[k]) >= trunc.W:
            continue
        coeff = mahler_coeff_aut(trunc, phi, a)
        if coeff.is_zero():
            continue
        moved = divided_power_map(trunc, a).apply(block)
        for B, row in zip(cols, moved):
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
    Built as a sparse map from p - 1 applies of each cached del_i to the
    identity block."""
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
    # row k of the block is the image of b^k under the factors so far
    block = np.eye(trunc.size, dtype=np.int64)
    for i, v in zip(mask, nu):
        d_i = divided_power_map(
            trunc, tuple(1 if j == i else 0 for j in range(trunc.model.rank)))
        shifted = block
        for _ in range(p - 1):
            shifted = (d_i.apply(shifted) - v * shifted) % p
        block = (block - shifted) % p
    src, tgt = np.nonzero(block)
    return SparseMap(p, trunc.size, tgt, src, block[src, tgt])
