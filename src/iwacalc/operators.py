"""Divided-power operators, Mahler coefficients of automorphisms and coset
idempotents.

Every operator here is a `SparseMap` on a TruncationSpec's monomial space:
(target, source, coefficient) arrays over F_p, sorted by (source, target),
applied to a coefficient vector.  Operators compose (`SparseMap.compose`)
and combine linearly (`SparseMap.combine`) as sparse maps, into canonical
maps that compare equal exactly when the operators are equal.  The divided
powers are cached as such maps, one per truncation and index, built a block
at a time from the closed formula below (`divided_power_maps`), and their
degrees are read a block at a time (`operator_degrees`); the coset
idempotents are polynomials in them.

The divided power del^(a) acts by the closed formula

    del^(a) (b^B) = C(B, a) * prod_i (1 + b_i)^{a_i} b_i^{B_i - a_i}

(zero unless a <= B componentwise), acts on embedded group elements as
multiplication by the binomial C(m, a), and has degree exactly -<a, omega>.
`divided_power` applies the cached map to a series; the tests check the
maps against the formula applied term by term.

Mahler coefficients of an automorphism phi are the series <phi, del^(a)>
in the expansion  phi = sum_a  (left mult by <phi, del^(a)>) o del^(a).
They are computed one way, by finite differences over the integer points
below a: the group kernel of `series` applied to g |-> phi(g) g^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .groups import Automorphism, ModelError, SubgroupSpec
from .linalg import SparseMap, sum_entries
from .padic import (
    AtLeast, MultiIndex, Val, power, signed_binomials, val_min, val_sub_exact,
)
from .series import TruncatedSeries, TruncationSpec


# ---------------------------------------------------------------------------
# Divided powers
# ---------------------------------------------------------------------------

_SLICE_TERMS = 2048  # terms built or read at a time, see `_slices`


def _slices(terms) -> list[tuple[int, int]]:
    """Runs (lo, hi) of consecutive items, item k of terms[k] terms, cut where
    the running total passes a multiple of _SLICE_TERMS, so that the memory
    of a divided-power build or a degree pass follows the run."""
    cuts = np.flatnonzero(np.diff((np.cumsum(terms) - terms) // _SLICE_TERMS,
                                  prepend=-1)).tolist() + [len(terms)]
    return list(zip(cuts, cuts[1:]))


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
    """del^(alpha) as a sparse map, cached on the truncation."""
    return divided_power_maps(trunc, [alpha])[0]


def divided_power_maps(trunc: TruncationSpec,
                       alphas: Iterable[Sequence[int]]) -> list[SparseMap]:
    """del^(alpha) for each alpha of `alphas`, cached on the truncation; those
    not cached yet come from one `_divided_powers` call."""
    return trunc.cached_maps([("dp", _operator_index(trunc, a)) for a in alphas],
                             lambda keys: _divided_powers(trunc, [a for _, a in keys]))


def _divided_powers(trunc: TruncationSpec, alphas: list) -> list[SparseMap]:
    """del^(alpha) for each alpha of `alphas` by the closed formula, in slices
    of at most about _SLICE_TERMS entries: the leading factor of each
    (alpha, source) pair from the Pascal table mod p, times each offset of
    its alpha."""
    p, size, exps, pascal = trunc.model.p, trunc.size, trunc._exponents, trunc._pascal
    # past the largest exponent every C(B_i, alpha_i) is 0, as one past it
    A = np.minimum(np.array(alphas, dtype=np.int64), len(pascal) - 1)
    nonzero = pascal != 0
    # a source b^B has B >= alpha, so B - alpha weighs less than the cutoff
    # minus the weight of alpha; each source has one entry per offset
    weights = A @ trunc._int_omega
    bound = np.searchsorted(trunc._int_weights, trunc.W - weights)
    # (1 + b_i)^{alpha_i} = sum_k C(alpha_i, k) b_i^k: the offsets k with
    # C(alpha, k) nonzero, expanded by `signed_binomials` from the nonzero
    # entries of the Pascal table row by row, so with no signs; the slices
    # read only their coefficients, the codes of k - alpha and where each
    # alpha's terms start; an alpha with no source is not expanded
    E = A * (bound > 0)[:, None]
    m, c = np.nonzero(nonzero)
    owner, k, scale = signed_binomials(
        (np.searchsorted(m, np.arange(len(pascal) + 1)), c, pascal[m, c]), E, p)
    k -= E[owner]
    shift = k @ trunc._radix
    starts = np.searchsorted(owner, np.arange(len(A) + 1))
    del owner, k
    maps = []
    # each alpha also holds a row of `size` flags, counted as size / 8 terms
    for lo, hi in _slices(bound * np.diff(starts) + size // 8 + 1):
        # the pairs (alpha, b^B) with C(B, alpha) nonzero mod p
        live = np.ones((hi - lo, size), dtype=bool)
        for a, col in zip(A[lo:hi].T, exps.T):
            live &= nonzero.T[a][:, col]
        at, src = np.nonzero(live)
        at += lo
        lead = np.ones(src.size, dtype=np.int64)
        for col, a in zip(exps[src].T, A[at].T):
            lead = lead * pascal[col, a] % p
        # each pair times each offset of its alpha, as in SparseMap.apply_entries
        count = starts[at + 1] - starts[at]
        n = np.arange(count.sum()) + np.repeat(starts[at] - np.cumsum(count) + count, count)
        src, coef = np.repeat(src, count), np.repeat(lead, count) * scale[n] % p
        # B - alpha + k <= B componentwise, and the basis is closed under
        # lowering exponents, so every target is a basis monomial
        tgt = trunc._indices_of(trunc._codes[src] + shift[n])
        cuts = np.searchsorted(np.repeat(at, count), np.arange(lo, hi + 1)).tolist()
        maps += [SparseMap(p, size, tgt[i:j], src[i:j], coef[i:j])
                 for i, j in zip(cuts, cuts[1:])]
    return maps


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
    """Degree of a sparse map on the truncation (`operator_degrees`)."""
    return operator_degrees(trunc, [op])[0]


def operator_degrees(trunc: TruncationSpec, maps: Sequence[SparseMap]
                     ) -> list[DegreeReport]:
    """Degree of each sparse map on the truncation, read from its entries
    with a nonzero coefficient, in slices of about _SLICE_TERMS entries:
    one sum over the runs of equal (map, source, target) keys and one pass
    of weights each."""
    size, w, e = trunc.size, trunc._int_weights, trunc.e
    for op in maps:
        if op.size != size:
            raise ValueError(f"map on {op.size} monomials, truncation has {size}")
    reports = []
    # each map also holds a row of `size` flags, counted as size / 8 terms
    for lo, hi in _slices([op.coef.size + size // 8 + 1 for op in maps]):
        # a map's entries are sorted by (source, target), so a repeated pair
        # is a run of equal keys, whose sum is tested for zero
        block = maps[lo:hi]
        owner = np.repeat(np.arange(hi - lo), [op.coef.size for op in block])
        keys = ((owner * size + np.concatenate([op.src for op in block])) * size
                + np.concatenate([op.tgt for op in block]))
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        sums = np.add.reduceat(np.concatenate([op.coef for op in block]), first)
        at, src, tgt = np.unravel_index(keys[first[sums % trunc.model.p != 0]],
                                        (hi - lo, size, size))
        least = np.full(hi - lo, trunc.W)  # above every w[tgt] - w[src]
        np.minimum.at(least, at, w[tgt] - w[src])
        hit = np.zeros((hi - lo, size), dtype=bool)
        hit[at, src] = True
        # the basis ascends by weight: the last source missed is the heaviest
        tail = trunc.W - w[size - 1 - np.argmin(hit[:, ::-1], axis=1)]
        reports += [DegreeReport(Fraction(d, e) if some else None,
                                 None if every else Fraction(t, e))
                    for d, t, some, every in zip(least.tolist(), tail.tolist(),
                                                 hit.any(axis=1), hit.all(axis=1))]
    return reports


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
    """<phi, del^(alpha)> by finite differences (`_mahler_rows`)."""
    return trunc.from_vector(_mahler_rows(trunc, phi, [_operator_index(trunc, alpha)])[0])


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
    p, m = trunc.model.p, len(cols)
    alphas = [a for k, a in enumerate(cols)
              if not sum(a) or delta * sum(a) * e + int(w[k]) < trunc.W]
    coeffs = {a: vec for a, vec in zip(alphas, _mahler_rows(trunc, phi, alphas))
              if vec.any()}
    # every product in one block: row k*m + b is <phi, del^(alpha)> times
    # del^(alpha)(b^B), alpha the k-th index and b^B the b-th column; the
    # columns in `cols` are the leading slice of each map's sources
    parts = [np.zeros((3, 0), dtype=np.int64)]
    for k, d in enumerate(divided_power_maps(trunc, coeffs)):
        n = int(np.searchsorted(d.src, m))
        parts.append(np.stack([k * m + d.src[:n], d.tgt[:n], d.coef[:n]]))
    y = sum_entries(*np.concatenate(parts, axis=1), p)
    vecs = np.array(list(coeffs.values()), dtype=np.int64).reshape(-1, trunc.size)
    k, c = np.nonzero(vecs)
    rows = y[0][np.diff(y[0], prepend=-1) != 0]
    x = SparseMap(p, trunc.size, c, k, vecs[k, c]).apply_entries(
        rows, rows // m, np.ones_like(rows))
    at, tgt, coef = trunc.mul_block(x, y)
    # the image of b^B sums the products of its column over every alpha
    at, tgt, coef = sum_entries(at % m, tgt, coef, p)
    cuts = np.searchsorted(at, np.arange(m + 1)).tolist()
    return {B: trunc._series(tgt[lo:hi], coef[lo:hi])
            for B, lo, hi in zip(cols, cuts, cuts[1:])}


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
    units = [tuple(int(j == i) for j in range(trunc.model.rank)) for i in mask]
    for d_i, v in zip(divided_power_maps(trunc, units), nu):
        shifted = SparseMap.combine((1, -v), (d_i, one))
        out = out.compose(SparseMap.combine(
            (1, -1), (one, power(shifted, p - 1, one, SparseMap.compose))))
    return out
