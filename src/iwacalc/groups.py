"""p-valued group models with an ordered basis and coordinates of the second kind.

A model fixes a prime p, an ordered basis g_1..g_d, a p-valuation omega on
the basis, and a coordinate precision M.  Every element is the coordinate
vector (l_1, ..., l_d) of its normal form g_1^{l_1} ... g_d^{l_d}, with each
l_i a residue mod p^M.  Two kinds are implemented:

* abelian: the free Z_p-module of rank d, multiplication adds coordinates;
* unitriangular: subgroups of upper unitriangular n x n matrices over Z_p
  (n < p, p odd) whose generators are congruent to 1 mod p.  Matrices are
  kept mod p^{M+1}: the guard digit is spent when logs are divided by p, so
  coordinate extraction is exact mod p^M.

Matrix log and exp are finite sums here because the strictly upper part is
nilpotent, and the denominators 1..(n-1)! are units mod p since p > n.

Valuations follow the marker convention of `padic`: a quantity pushed past
the precision is reported as AtLeast(bound), never silently as a number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .linalg import mat_pow, rref
from .padic import (
    AtLeast, PadicInt, PrecisionError, Val, eq_compatible, ge_refuted,
    gt_provable, is_prime, padic_make, val_min, val_add, val_sub_exact,
)
from .rng import Pcg32

_VALIDATION_SEED = 0x1A2B3C

# Coordinates mod p^M are drawn by Pcg32 and stored in int64 arrays, and
# F_p sums are accumulated in int64: both need their range below 2^63.
INT64_LIMIT = 1 << 63


class ModelError(ValueError):
    """Model data fails validation at load time."""


def _check_coordinate_range(p: int, precision: int) -> None:
    # p >= 2, so precision > 63 is past the limit without computing p^M
    if precision > 63 or p ** precision > INT64_LIMIT:
        raise ModelError(f"p^M = {p}^{precision} exceeds the coordinate limit 2^63")


@dataclass(frozen=True)
class PValuation:
    """omega on the ordered basis; values live in (1/e)Z and exceed 1/(p-1)."""

    values: tuple[Fraction, ...]
    e: int

    def __post_init__(self):
        if self.e < 1:
            raise ModelError(f"denominator e = {self.e} must be >= 1")
        for v in self.values:
            if (v * self.e).denominator != 1:
                raise ModelError(f"omega value {v} is not a multiple of 1/{self.e}")
            if v <= 0:
                raise ModelError(f"omega value {v} must be positive")

    def check_p(self, p: int) -> None:
        floor = Fraction(1, p - 1)
        for v in self.values:
            if v <= floor:
                raise ModelError(
                    f"omega value {v} violates the bound > 1/(p-1) = {floor}")

    @property
    def min(self) -> Fraction:
        return min(self.values)


def parse_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return Fraction(v[0], v[1])
    raise ModelError(f"cannot read {v!r} as a rational number")


@dataclass(frozen=True)
class GroupElement:
    model: "GroupModel" = field(repr=False)
    coords: tuple[PadicInt, ...]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.model.mul(self, other)

    def inverse(self) -> "GroupElement":
        return self.model.inv(self)

    def power(self, lam) -> "GroupElement":
        return self.model.pow(self, lam)

    def omega(self) -> Val:
        return self.model.omega_of(self)

    def is_identity(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def coord_values(self) -> tuple[int, ...]:
        return tuple(c.value() for c in self.coords)


# ---------------------------------------------------------------------------
# Integer matrix helpers (entries are Python ints reduced mod m)
# ---------------------------------------------------------------------------

def _mat_id(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a, b, m: int):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % m for j in range(n))
        for i in range(n))


def _mat_add(a, b, m: int):
    n = len(a)
    return tuple(tuple((a[i][j] + b[i][j]) % m for j in range(n)) for i in range(n))


def _mat_scale(a, c: int, m: int):
    n = len(a)
    return tuple(tuple(a[i][j] * c % m for j in range(n)) for i in range(n))


def _mat_log_unitriangular(a, m: int, p: int):
    """log(1 + N) = N - N^2/2 + ...; finite because N is nilpotent."""
    n = len(a)
    nil = tuple(tuple((a[i][j] - (1 if i == j else 0)) % m for j in range(n))
                for i in range(n))
    out = nil
    power = nil
    for k in range(2, n):
        power = _mat_mul(power, nil, m)
        coeff = pow(k, -1, m) * (1 if k % 2 else m - 1) % m
        out = _mat_add(out, _mat_scale(power, coeff, m), m)
    return out


def _mat_exp_nilpotent(x, m: int):
    n = len(x)
    out = _mat_id(n)
    term = _mat_id(n)
    fact = 1
    for k in range(1, n):
        term = _mat_mul(term, x, m)
        fact *= k
        out = _mat_add(out, _mat_scale(term, pow(fact, -1, m), m), m)
    return out


def _mat_inv_mod(rows, m: int, p: int):
    """Inverse of a square matrix whose reduction mod p is invertible."""
    n = len(rows)
    a = [list(r) for r in rows]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] % p:
                piv = r
                break
        if piv is None:
            raise ModelError("matrix is singular mod p")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        s = pow(a[col][col], -1, m)
        a[col] = [x * s % m for x in a[col]]
        inv[col] = [x * s % m for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % m for x, y in zip(a[r], a[col])]
                inv[r] = [(x - f * y) % m for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(r) for r in inv)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

class GroupModel:
    """Shared behaviour; concrete models implement the arithmetic core."""

    kind: str
    p: int
    rank: int
    precision: int
    omega: PValuation
    centre: Optional["SubgroupSpec"]

    # -- element plumbing ---------------------------------------------------

    def element(self, coords: Sequence[Union[int, PadicInt]]) -> GroupElement:
        if len(coords) != self.rank:
            raise ModelError(f"expected {self.rank} coordinates, got {len(coords)}")
        fixed = []
        for c in coords:
            if isinstance(c, PadicInt):
                if c.p != self.p or c.precision != self.precision:
                    raise PrecisionError(
                        f"coordinate {c!r} does not match p={self.p}, M={self.precision}")
                fixed.append(c)
            else:
                fixed.append(padic_make(int(c), self.p, self.precision))
        return GroupElement(self, tuple(fixed))

    def identity(self) -> GroupElement:
        return self.element([0] * self.rank)

    def basis(self) -> list[GroupElement]:
        out = []
        for i in range(self.rank):
            coords = [0] * self.rank
            coords[i] = 1
            out.append(self.element(coords))
        return out

    def _lam(self, lam) -> int:
        if isinstance(lam, PadicInt):
            if lam.p != self.p:
                raise ValueError("exponent has the wrong prime")
            return lam.value()
        return int(lam)

    def omega_of(self, el: GroupElement) -> Val:
        terms = [val_add(w, lam.vp())
                 for w, lam in zip(self.omega.values, el.coords)]
        return val_min(terms)

    def commutator(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def sample_element(self, rng: Pcg32) -> GroupElement:
        box = self.p ** self.precision
        return self.element([rng.below(box) for _ in range(self.rank)])

    # -- validation ---------------------------------------------------------

    def _validate_common(self, samples: int = 8) -> None:
        if not is_prime(self.p):
            raise ModelError(f"p = {self.p} is not prime")
        if self.precision < 1:
            raise ModelError("precision must be >= 1")
        if len(self.omega.values) != self.rank:
            raise ModelError("omega must assign a value to each basis element")
        self.omega.check_p(self.p)
        basis = self.basis()
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                comm = self.commutator(basis[i], basis[j])
                bound = self.omega.values[i] + self.omega.values[j]
                value = self.omega_of(comm)
                if not gt_provable(value, bound):
                    why = ""
                    if isinstance(value, AtLeast):
                        why = (f": at precision M={self.precision} it is only "
                               f"known to be {value}, and a larger M would "
                               f"decide it")
                    raise ModelError(
                        f"omega([g_{i + 1}, g_{j + 1}]) is not provably above "
                        f"omega(g_{i + 1}) + omega(g_{j + 1}) = {bound}{why}")
        rng = Pcg32(_VALIDATION_SEED, stream=17)
        for _ in range(samples):
            x = self.sample_element(rng)
            y = self.sample_element(rng)
            wx, wy = self.omega_of(x), self.omega_of(y)
            lower = val_min([wx, wy])
            if ge_refuted(self.omega_of(self.mul(x, self.inv(y))), lower):
                raise ModelError(f"omega(x y^-1) >= min fails on x={x.coord_values()}, "
                                 f"y={y.coord_values()}")
            if ge_refuted(self.omega_of(self.commutator(x, y)), val_add(wx, wy)):
                raise ModelError("omega([x, y]) >= omega(x) + omega(y) fails on a sample")
            if not isinstance(wx, AtLeast):
                if not eq_compatible(self.omega_of(self.pow(x, self.p)), wx + 1):
                    raise ModelError("omega(x^p) = omega(x) + 1 fails on a sample")
        if self.centre is not None:
            for h in self.centre.generators():
                for g in basis:
                    if not self.mul(h, g).coords == self.mul(g, h).coords:
                        raise ModelError("declared centre does not commute with the basis")


class AbelianModel(GroupModel):
    kind = "abelian"

    def __init__(self, p: int, rank: int, precision: int, omega: PValuation,
                 centre_exponents: Optional[Sequence[int]] = None):
        _check_coordinate_range(p, precision)
        self.p = p
        self.rank = rank
        self.precision = precision
        self.omega = omega
        self.centre = None
        self._validate_common()
        if centre_exponents is not None:
            self.centre = subgroup_from_exponents(self, centre_exponents)
            self._validate_common(samples=0)

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement(self, tuple(x + y for x, y in zip(a.coords, b.coords)))

    def inv(self, a: GroupElement) -> GroupElement:
        return GroupElement(self, tuple(-x for x in a.coords))

    def pow(self, a: GroupElement, lam) -> GroupElement:
        s = self._lam(lam)
        return GroupElement(self, tuple(x.scale(s) for x in a.coords))

    def first_kind_coords(self, a: GroupElement) -> tuple[PadicInt, ...]:
        return a.coords

    def from_first_kind(self, mu: Sequence[PadicInt]) -> GroupElement:
        return self.element(list(mu))

    def with_precision(self, precision: int) -> "AbelianModel":
        centre = self.centre.exponents if self.centre else None
        return AbelianModel(self.p, self.rank, precision, self.omega, centre)


class UnitriangularModel(GroupModel):
    """Group generated by unitriangular matrices 1 + N, N = 0 mod p."""

    kind = "unitriangular"

    def __init__(self, p: int, size: int, precision: int,
                 generators: Sequence[Sequence[Sequence[int]]],
                 omega: PValuation,
                 centre_exponents: Optional[Sequence[int]] = None):
        _check_coordinate_range(p, precision)
        if p % 2 == 0:
            raise ModelError("unitriangular models need an odd prime")
        if p <= size:
            raise ModelError(f"need p > n for integral log/exp; got p={p}, n={size}")
        self.p = p
        self.size = size
        self.rank = len(generators)
        self.precision = precision
        self.omega = omega
        self.centre = None
        self._mod = p ** (precision + 1)
        self._gens = tuple(self._check_matrix(g) for g in generators)
        self._logs = tuple(_mat_log_unitriangular(g, self._mod, p) for g in self._gens)
        self._positions = [(i, j) for i in range(size) for j in range(i + 1, size)]
        self._setup_solver()
        self._native_cache: dict = {}
        self._theta_cache: dict = {}
        self._mul_cache: dict = {}
        self._validate_common()
        if centre_exponents is not None:
            self.centre = subgroup_from_exponents(self, centre_exponents)
            self._validate_common(samples=0)

    def _check_matrix(self, rows):
        n = self.size
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ModelError(f"generator matrix is not {n} x {n}")
        mat = tuple(tuple(int(x) % self._mod for x in r) for r in rows)
        for i in range(n):
            if mat[i][i] != 1:
                raise ModelError("generator is not unitriangular (diagonal != 1)")
            for j in range(n):
                if j < i and mat[i][j]:
                    raise ModelError("generator is not upper triangular")
                if j > i and mat[i][j] % self.p:
                    raise ModelError("off-diagonal entries must be divisible by p")
        return mat

    def _setup_solver(self) -> None:
        """Express logs in first-kind coordinates: pick d pivot positions whose
        d x d submatrix of (log g_k)/p is invertible mod p."""
        pm = self.p ** self.precision
        v = [[(self._logs[k][i][j] // self.p) % pm for k in range(self.rank)]
             for (i, j) in self._positions]
        self._vmatrix = v
        vt = np.array(v, dtype=np.int64).T % self.p
        _, pivots = rref(vt, self.p)
        if len(pivots) < self.rank:
            raise ModelError("generator logs are dependent mod p; not an ordered basis")
        self._pivot_rows = pivots
        sub = [[v[r][k] for k in range(self.rank)] for r in pivots]
        self._solver = _mat_inv_mod(sub, pm, self.p)

    def _first_kind_of_log(self, logmat) -> list[int]:
        pm = self.p ** self.precision
        target = []
        for (i, j) in self._positions:
            entry = logmat[i][j]
            if entry % self.p:
                raise ModelError("log entry not divisible by p; element outside the group")
            target.append((entry // self.p) % pm)
        mu = [sum(self._solver[k][t] * target[r] for t, r in enumerate(self._pivot_rows)) % pm
              for k in range(self.rank)]
        for r, row in enumerate(self._vmatrix):
            if sum(row[k] * mu[k] for k in range(self.rank)) % pm != target[r]:
                raise ModelError("matrix is not in the span of the basis logs")
        return mu

    def native(self, a: GroupElement):
        """The matrix g_1^{l_1} ... g_d^{l_d} mod p^{M+1}."""
        key = tuple(c.digits for c in a.coords)
        hit = self._native_cache.get(key)
        if hit is not None:
            return hit
        out = _mat_id(self.size)
        for lam, ell in zip(a.coords, self._logs):
            out = _mat_mul(out, _mat_exp_nilpotent(
                _mat_scale(ell, lam.value(), self._mod), self._mod), self._mod)
        self._native_cache[key] = out
        return out

    def theta_coords(self, mat) -> GroupElement:
        """Coordinates of the second kind, by peeling one basis power at a time."""
        mat = tuple(tuple(int(x) % self._mod for x in r) for r in mat)
        hit = self._theta_cache.get(mat)
        if hit is not None:
            return GroupElement(self, hit)
        current = mat
        coords = []
        for i in range(self.rank):
            mu = self._first_kind_of_log(_mat_log_unitriangular(current, self._mod, self.p))
            lam = padic_make(mu[i], self.p, self.precision)
            coords.append(lam)
            undo = _mat_exp_nilpotent(
                _mat_scale(self._logs[i], -lam.value() % self._mod, self._mod), self._mod)
            current = _mat_mul(undo, current, self._mod)
        if current != _mat_id(self.size):
            raise ModelError("basis powers do not exhaust the matrix; "
                             "ordering is not compatible with the descending series")
        out = tuple(coords)
        self._theta_cache[mat] = out
        return GroupElement(self, out)

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        key = (tuple(c.digits for c in a.coords), tuple(c.digits for c in b.coords))
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self.theta_coords(
                _mat_mul(self.native(a), self.native(b), self._mod)).coords
            self._mul_cache[key] = hit
        return GroupElement(self, hit)

    def inv(self, a: GroupElement) -> GroupElement:
        logm = _mat_log_unitriangular(self.native(a), self._mod, self.p)
        return self.theta_coords(
            _mat_exp_nilpotent(_mat_scale(logm, self._mod - 1, self._mod), self._mod))

    def pow(self, a: GroupElement, lam) -> GroupElement:
        s = self._lam(lam) % (self.p ** self.precision)
        logm = _mat_log_unitriangular(self.native(a), self._mod, self.p)
        return self.theta_coords(
            _mat_exp_nilpotent(_mat_scale(logm, s, self._mod), self._mod))

    def first_kind_coords(self, a: GroupElement) -> tuple[PadicInt, ...]:
        mu = self._first_kind_of_log(
            _mat_log_unitriangular(self.native(a), self._mod, self.p))
        return tuple(padic_make(x, self.p, self.precision) for x in mu)

    def from_first_kind(self, mu: Sequence[PadicInt]) -> GroupElement:
        acc = None
        for lam, ell in zip(mu, self._logs):
            term = _mat_scale(ell, self._lam(lam), self._mod)
            acc = term if acc is None else _mat_add(acc, term, self._mod)
        return self.theta_coords(_mat_exp_nilpotent(acc, self._mod))

    def with_precision(self, precision: int) -> "UnitriangularModel":
        centre = self.centre.exponents if self.centre else None
        return UnitriangularModel(self.p, self.size, precision, self._gens,
                                  self.omega, centre)


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupSpec:
    """Open subgroup with ordered basis {g_i^{p^{n_i}}}.

    An exponent n_i >= M makes g_i^{p^{n_i}} indistinguishable from the
    identity at working precision, so such a direction is simply absent;
    this is how non-open subgroups (a centre, say) are declared.
    """

    model: GroupModel = field(repr=False)
    exponents: tuple[int, ...]

    def generators(self) -> list[GroupElement]:
        out = []
        for i, n in enumerate(self.exponents):
            if n < self.model.precision:
                coords = [0] * self.model.rank
                coords[i] = self.model.p ** n
                out.append(self.model.element(coords))
        return out

    def contains(self, el: GroupElement) -> bool:
        for lam, n in zip(el.coords, self.exponents):
            need = min(n, self.model.precision)
            if any(lam.digits[:need]):
                return False
        return True

    def direction_mask(self) -> list[int]:
        """Directions whose basis power is a proper p-power (the 'moved' block)."""
        return [i for i, n in enumerate(self.exponents)
                if 0 < n < self.model.precision]


def subgroup_from_exponents(model: GroupModel, exponents: Sequence[int],
                            samples: int = 6) -> SubgroupSpec:
    exps = tuple(int(n) for n in exponents)
    if len(exps) != model.rank:
        raise ModelError("one exponent per basis direction is required")
    if any(n < 0 for n in exps):
        raise ModelError("exponents must be naturals")
    spec = SubgroupSpec(model, exps)
    gens = spec.generators()
    for a in gens:
        for b in gens:
            if not spec.contains(model.mul(a, b)):
                raise ModelError(f"exponents {exps} do not span a subgroup: "
                                 "generator product escapes")
            if not spec.contains(model.commutator(a, b)):
                raise ModelError(f"exponents {exps} do not span a subgroup: "
                                 "commutator escapes")
    rng = Pcg32(_VALIDATION_SEED, stream=23)
    box = model.p ** model.precision
    for _ in range(samples):
        coords = [rng.below(box) * model.p ** min(n, model.precision) for n in exps]
        x = model.element(coords)
        coords = [rng.below(box) * model.p ** min(n, model.precision) for n in exps]
        y = model.element(coords)
        if not (spec.contains(model.mul(x, y)) and spec.contains(model.inv(x))):
            raise ModelError(f"exponents {exps} do not span a subgroup at precision")
    return spec


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Automorphism:
    """Inner or linear-on-log automorphism with cached basis images.

    Linear-on-log means: act on first-kind coordinates by a matrix A, i.e.
    log x = sum mu_i log g_i  |->  sum (A mu)_i log g_i.  Construction checks
    the homomorphism property on all basis pairs and membership in the
    omega-compatible group (degree > 1/(p-1)); both failures raise.
    """

    model: GroupModel = field(repr=False)
    kind: str
    matrix: Optional[tuple[tuple[int, ...], ...]] = None
    conjugator: Optional[GroupElement] = None
    images: tuple[GroupElement, ...] = ()

    @staticmethod
    def identity(model: GroupModel) -> "Automorphism":
        return Automorphism.linear_on_log(
            model, [[1 if i == j else 0 for j in range(model.rank)]
                    for i in range(model.rank)])

    @staticmethod
    def inner(model: GroupModel, h: GroupElement) -> "Automorphism":
        hi = model.inv(h)
        images = tuple(model.mul(model.mul(h, g), hi) for g in model.basis())
        phi = Automorphism(model, "inner", None, h, images)
        phi._check_degree()
        return phi

    @staticmethod
    def linear_on_log(model: GroupModel, rows) -> "Automorphism":
        pm = model.p ** model.precision
        mat = tuple(tuple(int(x) % pm for x in r) for r in rows)
        if len(mat) != model.rank or any(len(r) != model.rank for r in mat):
            raise ModelError(f"matrix must be {model.rank} x {model.rank}")
        phi = Automorphism(model, "linear", mat, None, ())
        images = tuple(phi._apply_linear(g) for g in model.basis())
        object.__setattr__(phi, "images", images)
        basis = model.basis()
        for i, gi in enumerate(basis):
            for gj in basis:
                left = phi.apply(model.mul(gi, gj))
                right = model.mul(phi.apply(gi), phi.apply(gj))
                if left.coords != right.coords:
                    raise ModelError(
                        "matrix does not preserve brackets at precision "
                        f"(homomorphism check failed on basis pair {i + 1})")
        phi._check_degree()
        return phi

    def _check_degree(self) -> None:
        floor = Fraction(1, self.model.p - 1)
        est = deg_omega(self)
        if not gt_provable(est, floor):
            raise ModelError(
                f"automorphism degree {est} is not provably above 1/(p-1) = {floor}")

    def _apply_linear(self, el: GroupElement) -> GroupElement:
        mu = self.model.first_kind_coords(el)
        nu = []
        for i in range(self.model.rank):
            acc = padic_make(0, self.model.p, self.model.precision)
            for j in range(self.model.rank):
                acc = acc + mu[j].scale(self.matrix[i][j])
            nu.append(acc)
        return self.model.from_first_kind(nu)

    def apply(self, el: GroupElement) -> GroupElement:
        if el.model is not self.model:
            raise ModelError("element belongs to a different model")
        if self.kind == "inner":
            h, hi = self.conjugator, self.model.inv(self.conjugator)
            return self.model.mul(self.model.mul(h, el), hi)
        return self._apply_linear(el)

    def power(self, k: int) -> "Automorphism":
        if k < 0:
            raise ValueError("negative automorphism powers are not needed here")
        if self.kind == "inner":
            return Automorphism.inner(self.model, self.model.pow(self.conjugator, k))
        # Python ints: entries mod p^M overflow int64 products
        pm = self.model.p ** self.model.precision
        out = mat_pow(np.array(self.matrix, dtype=object), k, pm)
        return Automorphism.linear_on_log(self.model, out.tolist())


def deg_omega(phi: Automorphism, samples: int = 24, seed: int = _VALIDATION_SEED) -> Val:
    """Estimated omega-degree: min of omega(phi(g) g^-1) - omega(g).

    The minimum runs over the basis plus a seeded sample.  For automorphisms
    that are trivial mod the centre the basis already attains the true
    degree; in general this is an upper estimate of the infimum and is
    documented as such.
    """
    model = phi.model
    candidates = list(model.basis())
    rng = Pcg32(seed, stream=29)
    for _ in range(samples):
        candidates.append(model.sample_element(rng))
    terms = []
    for g in candidates:
        wg = model.omega_of(g)
        if isinstance(wg, AtLeast):
            continue
        moved = model.mul(phi.apply(g), model.inv(g))
        terms.append(val_sub_exact(model.omega_of(moved), wg))
    if not terms:
        raise ModelError("degree estimate needs at least one non-identity sample")
    return val_min(terms)


def is_trivial_mod_centre(phi: Automorphism, centre: SubgroupSpec) -> bool:
    """Does phi move every basis element by a central factor only?"""
    model = phi.model
    for g in model.basis():
        if not centre.contains(model.mul(phi.apply(g), model.inv(g))):
            return False
    return True


def z_of_automorphism(phi: Automorphism, r: int) -> list[GroupElement]:
    """p^r-th root of g |-> phi^{p^r}(g) g^{-1}, one image per basis element.

    The root divides coordinates by p^r, so the images live in a copy of the
    model at precision M - r; r <= M - 1 is required, and a coordinate that
    is not divisible by p^r raises PrecisionError.
    """
    model = phi.model
    if r < 0 or r > model.precision - 1:
        raise PrecisionError(f"need 0 <= r <= M - 1 = {model.precision - 1}, got {r}")
    reduced = model.with_precision(model.precision - r) if r else model
    power = phi.power(model.p ** r)
    out = []
    for g in model.basis():
        c = model.mul(power.apply(g), model.inv(g))
        coords = [lam.div_pow_p(r) for lam in c.coords]
        out.append(reduced.element(coords))
    return out


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_abelian(p: int, rank: int, precision: int, omega, e: int = 1,
                 centre_exponents=None) -> AbelianModel:
    vals = PValuation(tuple(parse_fraction(v) for v in omega), e)
    return AbelianModel(p, rank, precision, vals, centre_exponents)


def load_unitriangular(p: int, size: int, precision: int, generators, omega,
                       e: int = 1, centre_exponents=None) -> UnitriangularModel:
    vals = PValuation(tuple(parse_fraction(v) for v in omega), e)
    return UnitriangularModel(p, size, precision, generators, vals, centre_exponents)


def load_model(config: dict) -> GroupModel:
    """Build a model from a config mapping (the CLI schema)."""
    kind = config.get("kind")
    p = config["p"]
    precision = config["precision"]
    omega = config["omega"]
    e = config.get("e", 1)
    centre = config.get("centre")
    if kind == "abelian":
        return load_abelian(p, config["rank"], precision, omega, e, centre)
    if kind == "unitriangular":
        return load_unitriangular(p, config["size"], precision,
                                  config["generators"], omega, e, centre)
    raise ModelError(f"unknown model kind {kind!r}")
