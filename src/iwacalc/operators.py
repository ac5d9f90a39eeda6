"""Divided-power operators, Mahler calculus and coset idempotents.

The operators act on a TruncationSpec's monomial space.  An OperatorMatrix
is a dense matrix over F_p (columns = images of basis monomials), so
composing and comparing operators is plain linear algebra; it is built on
request and never cached.  The divided powers are cached instead as sparse
maps (`divided_power_map`), one per truncation and index, built with numpy
from the closed formula below; their dense form is scattered from the map.

The divided power del^(a) acts by the closed formula

    del^(a) (b^B) = C(B, a) * prod_i (1 + b_i)^{a_i} b_i^{B_i - a_i}

(zero unless a <= B componentwise), acts on embedded group elements as
multiplication by the binomial C(m, a), and has degree exactly -<a, omega>.
`divided_power` applies the formula term by term to a series; it and
`operator_matrix` are kept as the oracle the sparse maps are tested against.

Mahler coefficients of an automorphism phi are the series <phi, del^(a)>
in the expansion  phi = sum_a  (left mult by <phi, del^(a)>) o del^(a).
The primary computation is always the finite-difference one, over integer
points below a; the product closed form, valid when phi moves every basis
element by a central factor, is kept separate as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import Automorphism, ModelError, SubgroupSpec, is_trivial_mod_centre
from .linalg import mat_pow
from .padic import (
    AtLeast, MultiIndex, Val, comb_mod, mi_range, mi_weight,
    val_min, val_sub_exact,
)
from .series import (
    SparseMap, TruncatedSeries, TruncationSpec, _combine_rows, aut_images_table,
    group_embed,
)


@dataclass(frozen=True)
class OperatorMatrix:
    trunc: TruncationSpec
    mat: np.ndarray

    @staticmethod
    def identity(trunc: TruncationSpec) -> "OperatorMatrix":
        return OperatorMatrix(trunc, np.eye(trunc.size, dtype=np.int64))

    @staticmethod
    def zero(trunc: TruncationSpec) -> "OperatorMatrix":
        return OperatorMatrix(trunc, np.zeros((trunc.size, trunc.size), dtype=np.int64))

    def _check(self, other: "OperatorMatrix") -> None:
        if self.trunc is not other.trunc:
            raise ValueError("operators on different truncations")

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        p = self.trunc.model.p
        return OperatorMatrix(self.trunc, (self.mat @ other.mat) % p)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        p = self.trunc.model.p
        return OperatorMatrix(self.trunc, (self.mat + other.mat) % p)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        p = self.trunc.model.p
        return OperatorMatrix(self.trunc, (self.mat - other.mat) % p)

    def scale(self, c: int) -> "OperatorMatrix":
        p = self.trunc.model.p
        return OperatorMatrix(self.trunc, self.mat * (c % p) % p)

    def power(self, k: int) -> "OperatorMatrix":
        return OperatorMatrix(self.trunc, mat_pow(self.mat, k, self.trunc.model.p))

    def apply(self, x: TruncatedSeries) -> TruncatedSeries:
        if x.trunc is not self.trunc:
            raise ValueError("series from a different truncation")
        p = self.trunc.model.p
        return self.trunc.from_vector((self.mat @ x.vector()) % p)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperatorMatrix) and self.trunc is other.trunc
                and np.array_equal(self.mat % self.trunc.model.p,
                                   other.mat % self.trunc.model.p))


def operator_matrix(trunc: TruncationSpec,
                    image: Callable[[MultiIndex], TruncatedSeries]) -> OperatorMatrix:
    """Assemble the matrix of a linear operator from its monomial images."""
    mat = np.zeros((trunc.size, trunc.size), dtype=np.int64)
    for j, a in enumerate(trunc.basis):
        mat[:, j] = image(a).vector()
    return OperatorMatrix(trunc, mat)


def lmul_matrix(trunc: TruncationSpec, s: TruncatedSeries) -> OperatorMatrix:
    return operator_matrix(trunc, lambda a: s * trunc.monomial(a))


def aut_matrix(trunc: TruncationSpec, phi: Automorphism) -> OperatorMatrix:
    rows = aut_images_table(trunc, phi)
    mat = np.zeros((trunc.size, trunc.size), dtype=np.int64)
    for j in range(trunc.size):
        mat[:, j] = rows[j]
    return OperatorMatrix(trunc, mat)


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


def divided_power_matrix(trunc: TruncationSpec, alpha: Sequence[int]) -> OperatorMatrix:
    """Dense form of the cached sparse map; the matrix itself is not cached."""
    return OperatorMatrix(trunc, divided_power_map(trunc, alpha).dense())


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


def operator_degree(op: OperatorMatrix) -> DegreeReport:
    t = op.trunc
    w = t._int_weights
    nz = op.mat != 0
    hit = nz.any(axis=0)
    resolved = tail = None
    if hit.any():
        # the basis is sorted by weight: a column's first nonzero row is its
        # least-weight target
        first = nz.argmax(axis=0)
        resolved = Fraction(int((w[first[hit]] - w[hit]).min()), t.e)
    if not hit.all():
        tail = Fraction(int(t.W - w[~hit].max()), t.e)
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
                    degree_budget) -> OperatorMatrix:
    """Partial sum of  (left mult by <phi, del^(a)>) o del^(a).

    Includes every a with <a, omega> <= D whose term can touch the columns
    of weight <= D mod F_W; each omitted term has operator degree at least
    delta * |a| > W/e - D, where delta is the basis displacement degree of
    phi.  On columns b^B with <B, omega> <= D the result then agrees with
    aut_extend exactly."""
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
    out = OperatorMatrix.zero(trunc)
    for a in mi_range(trunc.max_exponents):
        wa = mi_weight(a, trunc.omega)
        if wa > D:
            continue
        if sum(a) and delta * sum(a) + wa >= trunc.cutoff:
            continue
        coeff = mahler_coeff_aut(trunc, phi, a)
        if coeff.is_zero():
            continue
        out = out + lmul_matrix(trunc, coeff) @ divided_power_matrix(trunc, a)
    return out


# ---------------------------------------------------------------------------
# Coset idempotents
# ---------------------------------------------------------------------------

def coset_idempotent(trunc: TruncationSpec, H: SubgroupSpec,
                     nu: Sequence[int]) -> OperatorMatrix:
    """e_nu = prod_{i in mask} (1 - (del_i - nu_i)^{p-1}) for a subgroup whose
    exponent pattern is 0/1; acts on an embedded group element as the
    indicator of the coordinate coset  lam_i = nu_i mod p  over the mask."""
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
    out = OperatorMatrix.identity(trunc)
    ident = OperatorMatrix.identity(trunc)
    for i, v in zip(mask, nu):
        e_i = tuple(1 if j == i else 0 for j in range(trunc.model.rank))
        shifted = divided_power_matrix(trunc, e_i) - ident.scale(v)
        out = out @ (ident - shifted.power(p - 1))
    return out
