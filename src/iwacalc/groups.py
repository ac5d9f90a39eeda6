"""p-valued group models with an ordered basis and coordinates of the second kind.

A model fixes a prime p, an ordered basis g_1..g_d, a p-valuation omega on
the basis, and a coordinate precision M.  Every element is the coordinate
vector (l_1, ..., l_d) of its normal form g_1^{l_1} ... g_d^{l_d}, with each
l_i a residue mod p^M, held as a Python int in [0, p^M).  Two kinds are
implemented:

* abelian: the free Z_p-module of rank d, multiplication adds coordinates;
* unitriangular: subgroups of upper unitriangular n x n matrices over Z_p
  (n < p, p odd) whose generators are congruent to 1 mod p.

A unitriangular group law is compiled once, at load, to polynomials: the
coordinates of x*y are d polynomials mod p^M in x_1..x_d, y_1..y_d (Hall's
collection polynomials).  They come from the matrix route run over
matrices whose entries are polynomials mod p^{M+1}.  The normal form
NF(x) = exp(x_1 log g_1) ... exp(x_d log g_d) is built once, on d symbols;
the first-kind coordinates of its log (log x = sum mu_k log g_k) are the
first-kind law.  Its inverse peels exp(sum x_k log g_k): it reads one
coordinate from the first-kind coordinates of a matrix log and divides off
that basis power, d times.  The product law is mu(x, y), the first-kind
coordinates of log(NF(x) NF(y)), put into that inverse; NF(y) is NF(x)
with its exponents moved to the y symbols.  After load, `mul` evaluates
polynomials, `pow` scales first-kind coordinates (x^s = exp(s log x)) and
`inv` is the power -1; no matrix is built.  The generator logs are the
constant case of the same polynomial log.

Evaluation is exact mod p^M.  log and exp are finite sums because the
strictly upper part is nilpotent, and their denominators 1..(n-1)! are
units mod p since p > n, so each step is a ring operation mod p^{M+1} and
the polynomial identities hold for every value of the symbols.  The guard
digit is spent when logs are divided by p, which is why matrices are kept
mod p^{M+1} and coordinates mod p^M.  The checks of the compile -- each
log entry divisible by p, each log in the span of the basis logs, the
basis powers exhausting the matrix -- run on the polynomials at load,
where a failure raises ModelError; once they pass they hold for every
element.  The product is not peeled; its exhaust check follows from two
that run: log(NF(x) NF(y)) is in the span of the basis logs, so NF(x)
NF(y) = exp(sum mu_k log g_k), which the peel exhausts for symbolic x.

Some load checks are proofs and some are seeded samples.  On abelian
models the p-valuation axioms and the closure of every exponent subgroup
(the declared centre included) are proofs, written out in
`AbelianModel._check_omega_axioms` and `subgroup_from_exponents`: an
abelian model or subgroup is accepted with no group product and no sample.
On unitriangular models the proofs are the compiled-law checks above and
omega([g_i, g_j]) > omega_i + omega_j for every pair of basis elements, and
the samples come from one validation seed, one stream per check, each set
drawn by one `Pcg32.below_many` call:
* the p-valuation axioms omega(x y^-1) >= min(omega(x), omega(y)),
  omega([x, y]) >= omega(x) + omega(y) and omega(x^p) = omega(x) + 1, on 8
  pairs;
* the closure of a subgroup (`subgroup_from_exponents`, the declared centre
  included), on 6 pairs, after every product and commutator of two of its
  generators.
On both kinds, the degree of a linear-on-log automorphism is estimated
(`deg_omega`) over the basis and 24 samples; an inner automorphism and
the identity pass that check by proof (`Automorphism.inner`,
`Automorphism.identity`).

Every check reads omega as an integer in units of 1/e, with a flag that
says whether it is exact (`GroupModel._omega_units`).  A `Val` is built
only for a caller that asks for one (`deg_omega`) and for error text.
Valuations follow the marker convention of `padic`: a quantity pushed past
the precision is reported as AtLeast(bound), never silently as a number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import factorial, inf
from typing import Optional, Sequence

from .linalg import is_integer
from .padic import (
    AtLeast, Val, gt_provable, is_prime, poly_combine, poly_product_sum, power,
)
from .rng import Pcg32

_VALIDATION_SEED = 0x1A2B3C

# Coordinates mod p^M are drawn by Pcg32 and stored in int64 arrays, and
# F_p sums are accumulated in int64: both need their range below 2^63.
INT64_LIMIT = 1 << 63


class ModelError(ValueError):
    """Model data fails validation at load time."""


def _check_shape(p: int, precision: int, rank: int) -> None:
    if rank < 1:
        raise ModelError("the basis is empty: a model needs rank >= 1")
    # p >= 2, so precision > 63 is past the limit without computing p^M
    if precision > 63 or p ** precision > INT64_LIMIT:
        raise ModelError(f"p^M = {p}^{precision} exceeds the coordinate limit 2^63")


@dataclass(frozen=True)
class PValuation:
    """omega on the ordered basis; values live in (1/e)Z and exceed 1/(p-1).

    `units` holds e * omega_i, the integers every check compares."""

    values: tuple[Fraction, ...]
    e: int
    units: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.e < 1:
            raise ModelError(f"denominator e = {self.e} must be >= 1")
        for v in self.values:
            if (v * self.e).denominator != 1:
                raise ModelError(f"omega value {v} is not a multiple of 1/{self.e}")
            if v <= 0:
                raise ModelError(f"omega value {v} must be positive")
        object.__setattr__(self, "units", tuple(int(v * self.e) for v in self.values))
        if max(self.units, default=0) >= INT64_LIMIT:
            raise ModelError(f"e * omega = {max(self.units)} does not fit in int64: "
                             "it must be below 2^63")

    def check_p(self, p: int) -> None:
        for u, v in zip(self.units, self.values):
            if u * (p - 1) <= self.e:
                raise ModelError(f"omega value {v} violates the bound > 1/(p-1) "
                                 f"= {Fraction(1, p - 1)}")

    def val(self, units: int, exact: bool) -> Val:
        """The valuation units/e, or the marker AtLeast(units/e)."""
        f = Fraction(units, self.e)
        return f if exact else AtLeast(f)


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
    coords: tuple[int, ...]  # residues in [0, p^M)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.model.mul(self, other)


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


def _rref_mod(rows, m: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod m, a power of p, of a matrix of Python
    ints, pivoting on units (entries nonzero mod p): (pivot rows, pivot
    columns).  Exact for any p; the pivot columns are those mod p."""
    a, pivots = [[x % m for x in r] for r in rows], []
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] % p), None)
        if piv is not None:
            a[r], a[piv] = a[piv], a[r]
            s = pow(a[r][col], -1, m)
            a[r] = [x * s % m for x in a[r]]
            a = [row if i == r else [(x - row[col] * y) % m for x, y in zip(row, a[r])]
                 for i, row in enumerate(a)]
            pivots.append(col)
    return a[:len(pivots)], pivots


# ---------------------------------------------------------------------------
# Matrices of polynomials mod m (the sparse dicts of `padic`): tuples of
# rows, the empty dict being the zero entry.
# ---------------------------------------------------------------------------

def _pmat_mul(a, b, m: int):
    n = len(a)
    return tuple(
        tuple(poly_product_sum([(a[i][k], b[k][j]) for k in range(n)
                                 if a[i][k] and b[k][j]], m) for j in range(n))
        for i in range(n))


def _pmat_combine(coeffs, mats, m: int):
    """sum of c * A over the pairs, mod m."""
    n = len(mats[0])
    return tuple(tuple(poly_combine(coeffs, [a[i][j] for a in mats], m)
                       for j in range(n)) for i in range(n))


def _pmat_id(n: int, one: tuple):
    """The identity matrix; `one` is the constant monomial."""
    return tuple(tuple({one: 1} if i == j else {} for j in range(n))
                 for i in range(n))


def _pmat_log(a, m: int):
    """log(1 + N) = N - N^2/2 + ... for unitriangular a; the sum is finite
    because N is nilpotent, and 1/k is a unit mod m for k < n < p."""
    n = len(a)
    nil = tuple(tuple({} if i == j else a[i][j] for j in range(n))
                for i in range(n))
    powers = [nil]
    for _ in range(2, n):
        powers.append(_pmat_mul(powers[-1], nil, m))
    coeffs = [pow(k, -1, m) * (1 if k % 2 else -1) for k in range(1, n)]
    return _pmat_combine(coeffs, powers, m)


def _pmat_exp(x, m: int, one: tuple):
    """exp(x) = 1 + x + x^2/2! + ... for strictly upper triangular x."""
    n = len(x)
    powers = [_pmat_id(n, one), x]
    for _ in range(2, n):
        powers.append(_pmat_mul(powers[-1], x, m))
    coeffs = [pow(factorial(k), -1, m) for k in range(len(powers))]
    return _pmat_combine(coeffs, powers, m)


def _symbols(nvars: int):
    """The polynomials x_1..x_nvars and the constant monomial."""
    one = (0,) * nvars
    return [{one[:v] + (1,) + one[v + 1:]: 1} for v in range(nvars)], one


def _compiled(polys) -> tuple:
    """Polynomials as evaluation tables: per polynomial, (coefficient,
    variable indices with repetition) for each term."""
    return tuple(
        tuple((c, tuple(v for v, e in enumerate(k) for _ in range(e)))
              for k, c in sorted(f.items()))
        for f in polys)


def _substitute(law, polys, one: tuple, m: int) -> list[dict]:
    """The polynomials mod m of a compiled law with polys[v] for variable v."""
    def term(c, variables):
        return reduce(lambda f, v: poly_product_sum([(f, polys[v])], m), variables,
                      {one: c})
    return [poly_combine([1] * len(terms), [term(*t) for t in terms], m) for terms in law]


def _evaluate(law, values, m: int) -> list[int]:
    out = []
    for terms in law:
        acc = 0
        for c, variables in terms:
            for v in variables:
                c *= values[v]
            acc += c
        out.append(acc % m)
    return out


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

class GroupModel:
    """Shared behaviour; concrete models implement the arithmetic core."""

    kind: str
    p: int
    rank: int
    precision: int
    _pm: int  # p^M
    omega: PValuation
    centre: Optional["SubgroupSpec"]

    # -- element plumbing ---------------------------------------------------

    def element(self, coords: Sequence[int]) -> GroupElement:
        """The element with these coordinates, Python or numpy integers
        reduced mod p^M."""
        if len(coords) != self.rank:
            raise ModelError(f"expected {self.rank} coordinates, got {len(coords)}")
        for i, c in enumerate(coords):
            if not is_integer(c):
                raise ValueError(f"coordinate {i + 1} = {c!r} is not an integer")
        return GroupElement(self, tuple(int(c) % self._pm for c in coords))

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
        if not is_integer(lam):
            raise ValueError(f"exponent {lam!r} is not an integer")
        return int(lam)

    def _omega_units(self, coords: Sequence[int]) -> tuple[int, bool]:
        """(e * omega, exact) of the element with these coordinates: the
        minimum over i of e * (omega_i + v_p(l_i)), where a zero coordinate
        gives only the bound e * (omega_i + M).  The minimum is exact iff a
        nonzero coordinate attains it, as in `padic.val_min`."""
        p, e = self.p, self.omega.e
        exact = bound = inf
        for u, lam in zip(self.omega.units, coords):
            if not lam:
                bound = min(bound, u + e * self.precision)
                continue
            while not lam % p:
                lam //= p
                u += e
            exact = min(exact, u)
        return min(exact, bound), exact <= bound

    def commutator(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def _samples(self, stream: int, count: int, scale=None) -> list[GroupElement]:
        """`count` elements of the validation seed's `stream`, their
        coordinates the values of successive `Pcg32.below(p^M)` calls, drawn
        by one `below_many` call; coordinate i is multiplied by scale[i], if
        given."""
        rank, pm = self.rank, self._pm
        draws = Pcg32(_VALIDATION_SEED, stream).below_many([pm] * (count * rank)).tolist()
        if scale is not None:
            draws = [v * s % pm for v, s in zip(draws, scale * count)]
        return [GroupElement(self, tuple(draws[k:k + rank]))
                for k in range(0, len(draws), rank)]

    # -- validation ---------------------------------------------------------

    def _validate_common(self, centre_exponents: Optional[Sequence[int]]) -> None:
        """Check the basis and omega, then the p-valuation axioms
        (`_check_omega_axioms`, which each kind implements), then declare
        the centre, if one is given, and check that it is central."""
        if not is_prime(self.p):
            raise ModelError(f"p = {self.p} is not prime")
        if self.precision < 1:
            raise ModelError("precision must be >= 1")
        if len(self.omega.values) != self.rank:
            raise ModelError("omega must assign a value to each basis element")
        self.omega.check_p(self.p)
        self._check_omega_axioms()
        if centre_exponents is not None:
            self.centre = subgroup_from_exponents(self, centre_exponents)
            if not self.centre.is_central():
                raise ModelError("declared centre does not commute with the basis")


class AbelianModel(GroupModel):
    kind = "abelian"

    def __init__(self, p: int, rank: int, precision: int, omega: PValuation,
                 centre_exponents: Optional[Sequence[int]] = None):
        _check_shape(p, precision, rank)
        self.p = p
        self.rank = rank
        self.precision = precision
        self._pm = p ** precision
        self.omega = omega
        self.centre = None
        self._validate_common(centre_exponents)

    def _check_omega_axioms(self) -> None:
        """Nothing to sample: on the free Z_p-module the three axioms hold
        for every pair, read as the unitriangular checks read them
        (`_omega_units`: each term omega_i + v_p(x_i), a zero coordinate
        read as v = M and giving only a bound; a lower bound is refuted
        only by an exact value below it).

        * [x, y] is the identity.  Its coordinates are all zero, so its
          omega is never an exact value and the commutator check cannot
          refute.
        * x y^-1 has coordinates x_i - y_i, and v_p(x_i - y_i) >=
          min(v_p x_i, v_p y_i), a zero coordinate read as v = M.  So every
          term of omega(x y^-1), exact or a bound, is at least
          min(omega(x), omega(y)).
        * x^p has coordinates p x_i.  The term of a nonzero x_i of
          valuation below M - 1 becomes exactly 1 larger, and one of
          valuation M - 1 becomes the bound omega_i + M, also 1 larger; a
          zero stays the bound it was.  If omega(x) is exact, attained at x_j, every exact
          term of x^p is at least omega(x) + 1 and the term of x_j is at
          most that: omega(x^p) is either exactly omega(x) + 1, or only
          bounded at or below it, and the check accepts both.

        `tests/test_groups.py` runs the three checks on drawn pairs of
        small abelian models through the `Val` route."""

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement(self, tuple((x + y) % self._pm
                                        for x, y in zip(a.coords, b.coords)))

    def inv(self, a: GroupElement) -> GroupElement:
        return GroupElement(self, tuple(-x % self._pm for x in a.coords))

    def pow(self, a: GroupElement, lam) -> GroupElement:
        s = self._lam(lam)
        return GroupElement(self, tuple(x * s % self._pm for x in a.coords))

    def first_kind_coords(self, a: GroupElement) -> tuple[int, ...]:
        return a.coords

    def from_first_kind(self, mu: Sequence[int]) -> GroupElement:
        return self.element(list(mu))


class UnitriangularModel(GroupModel):
    """Group generated by unitriangular matrices 1 + N, N = 0 mod p.

    The group law, first-kind coordinates and their inverse are compiled
    to polynomials at load (see the module docstring)."""

    kind = "unitriangular"

    def __init__(self, p: int, size: int, precision: int,
                 generators: Sequence[Sequence[Sequence[int]]],
                 omega: PValuation,
                 centre_exponents: Optional[Sequence[int]] = None):
        _check_shape(p, precision, len(generators))
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
        self._pm = p ** precision
        self._mod = p * self._pm
        self._gens = tuple(self._check_matrix(g) for g in generators)
        # the generator logs are the constant case of the polynomial log
        self._logs = tuple(
            tuple(tuple(entry.get((), 0) for entry in row) for row in _pmat_log(
                tuple(tuple({(): x} if x else {} for x in row) for row in g),
                self._mod))
            for g in self._gens)
        self._positions = [(i, j) for i in range(size) for j in range(i + 1, size)]
        self._setup_solver()
        self._mul_law, self._first_kind_law, self._from_first_kind_law = (
            self._compile_laws())
        self._validate_common(centre_exponents)

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
        """Express logs in first-kind coordinates: pick the first d positions
        whose d x d submatrix S of v = (log g_k)/p is invertible mod p, and
        S^-1 mod p^M.  One elimination of [v^T | 1] does both: it ends in
        [E v^T | E] with E = (S^T)^-1, so S^-1 is the transpose of E."""
        pm, d = self._pm, self.rank
        v = [[(self._logs[k][i][j] // self.p) % pm for k in range(d)]
             for (i, j) in self._positions]
        self._vmatrix = v
        rows, pivots = _rref_mod([list(col) + [int(j == k) for j in range(d)]
                                  for k, col in enumerate(zip(*v))], pm, self.p)
        if any(c >= len(v) for c in pivots):
            raise ModelError("generator logs are dependent mod p; not an ordered basis")
        self._pivot_rows = pivots
        self._solver = tuple(zip(*(r[len(v):] for r in rows)))

    def _check_omega_axioms(self) -> None:
        """omega([g_i, g_j]) > omega_i + omega_j on every pair of basis
        elements, a proof; then the three p-valuation axioms on 8 pairs of
        the validation seed's stream 17, a sample."""
        basis, units, e = self.basis(), self.omega.units, self.omega.e
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                value, exact = self._omega_units(
                    self.commutator(basis[i], basis[j]).coords)
                # provably above the sum: the value, or a marker's bound, is
                if value <= units[i] + units[j]:
                    why = ""
                    if not exact:
                        why = (f": at precision M={self.precision} it is only "
                               f"known to be {self.omega.val(value, exact)}, and "
                               f"a larger M would decide it")
                    raise ModelError(
                        f"omega([g_{i + 1}, g_{j + 1}]) is not provably above "
                        f"omega(g_{i + 1}) + omega(g_{j + 1}) = "
                        f"{self.omega.values[i] + self.omega.values[j]}{why}")
        # a sample refutes a lower bound only with an exact value below it,
        # and omega(x^p) = omega(x) + 1 is compatible with an exact value
        # equal to it or a marker at or below it
        samples = self._samples(17, 16)
        for x, y in zip(samples[::2], samples[1::2]):
            wx, x_exact = self._omega_units(x.coords)
            wy, _ = self._omega_units(y.coords)
            w, exact = self._omega_units(self.mul(x, self.inv(y)).coords)
            if exact and w < min(wx, wy):
                raise ModelError(f"omega(x y^-1) >= min fails on x={x.coords}, "
                                 f"y={y.coords}")
            w, exact = self._omega_units(self.commutator(x, y).coords)
            if exact and w < wx + wy:
                raise ModelError("omega([x, y]) >= omega(x) + omega(y) fails on a sample")
            if x_exact:
                w, exact = self._omega_units(self.pow(x, self.p).coords)
                if w != wx + e if exact else w > wx + e:
                    raise ModelError("omega(x^p) = omega(x) + 1 fails on a sample")

    # -- compilation: the matrix route over polynomial entries --------------

    def _compile_laws(self) -> tuple:
        """(mul, first-kind, from-first-kind) laws; see the module docstring."""
        mod, x, one = self._mod, *_symbols(self.rank)
        nf = self._normal_form(x, one)
        from_first_kind = self._peel(_pmat_exp(self._log_matrix(x), mod, one), one)
        # NF(x) and NF(y) in 2d symbols: each exponent key moved to one side
        nfx, nfy = ([[{side(k): c for k, c in f.items()} for f in row] for row in nf]
                    for side in (lambda k: k + one, lambda k: one + k))
        mu = self._first_kind_of_log(_pmat_log(_pmat_mul(nfx, nfy, mod), mod))
        return (_compiled(_substitute(from_first_kind, mu, one + one, self._pm)),
                _compiled(self._first_kind_of_log(_pmat_log(nf, mod))), from_first_kind)

    def _log_matrix(self, polys):
        """sum_k f_k log g_k for polynomials f_k."""
        n = self.size
        return tuple(
            tuple(poly_combine([log[i][j] for log in self._logs], polys, self._mod)
                  for j in range(n)) for i in range(n))

    def _normal_form(self, symbols, one):
        """g_1^{s_1} ... g_d^{s_d} for polynomials s_k."""
        out = _pmat_id(self.size, one)
        for k, s in enumerate(symbols):
            out = _pmat_mul(out, _pmat_exp(self._log_matrix(
                [s if j == k else {} for j in range(self.rank)]), self._mod, one),
                self._mod)
        return out

    def _first_kind_of_log(self, logmat) -> list[dict]:
        """First-kind coordinates mod p^M of a log matrix kept mod p^{M+1}."""
        target = []
        for (i, j) in self._positions:
            entry = logmat[i][j]
            if any(c % self.p for c in entry.values()):
                raise ModelError("log entry not divisible by p; element outside the group")
            target.append({k: c // self.p for k, c in entry.items()})
        sources = [target[r] for r in self._pivot_rows]
        mu = [poly_combine(row, sources, self._pm) for row in self._solver]
        for r, row in enumerate(self._vmatrix):
            if poly_combine(row, mu, self._pm) != target[r]:
                raise ModelError("matrix is not in the span of the basis logs")
        return mu

    def _peel(self, mat, one) -> tuple:
        """Second-kind coordinates of mat, peeling one basis power at a time."""
        coords = []
        for i in range(self.rank):
            lam = self._first_kind_of_log(_pmat_log(mat, self._mod))[i]
            coords.append(lam)
            undo = _pmat_exp(self._log_matrix(
                [poly_combine([-1], [lam], self._mod) if k == i else {}
                 for k in range(self.rank)]), self._mod, one)
            mat = _pmat_mul(undo, mat, self._mod)
        if mat != _pmat_id(self.size, one):
            raise ModelError("basis powers do not exhaust the matrix; "
                             "ordering is not compatible with the descending series")
        return _compiled(coords)

    # -- arithmetic: evaluation of the compiled polynomials -----------------

    def _mul_values(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Coordinates of g^a * g^b, from plain coordinates in [0, p^M)."""
        return _evaluate(self._mul_law, list(a) + list(b), self._pm)

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement(self, tuple(self._mul_values(a.coords, b.coords)))

    def inv(self, a: GroupElement) -> GroupElement:
        return self.pow(a, -1)

    def pow(self, a: GroupElement, lam) -> GroupElement:
        """a^s = exp(s log a): scale the first-kind coordinates by s."""
        s = self._lam(lam)
        return self.from_first_kind([s * x for x in self.first_kind_coords(a)])

    def first_kind_coords(self, a: GroupElement) -> tuple[int, ...]:
        return tuple(_evaluate(self._first_kind_law, a.coords, self._pm))

    def from_first_kind(self, mu: Sequence[int]) -> GroupElement:
        return GroupElement(self, tuple(_evaluate(
            self._from_first_kind_law, [x % self._pm for x in mu], self._pm)))


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
        p, M = self.model.p, self.model.precision
        return all(lam % p ** min(n, M) == 0
                   for lam, n in zip(el.coords, self.exponents))

    def is_central(self) -> bool:
        """Do the generators commute with every basis element?  On an
        abelian model they do, and no product is made."""
        model = self.model
        return model.kind == "abelian" or all(
            model.mul(h, g).coords == model.mul(g, h).coords
            for h in self.generators() for g in model.basis())


def subgroup_from_exponents(model: GroupModel,
                            exponents: Sequence[int]) -> SubgroupSpec:
    """The subgroup H with ordered basis {g_i^{p^{n_i}}} (`SubgroupSpec`),
    once the exponents are checked to span one.

    On an abelian model H is accepted by proof, with no group product and
    no sample: H = {x : p^min(n_i, M) divides x_i} is a Z_p-submodule, so
    it holds every product (a sum of coordinates), every inverse (their
    negatives) and every commutator (the identity).  On a unitriangular
    model every product and commutator of two generators, and the product
    x y and the inverse x^-1 of 6 pairs of H drawn from the validation
    seed's stream 23, must lie in H; the samples are not a proof."""
    exps = tuple(int(n) for n in exponents)
    if len(exps) != model.rank:
        raise ModelError("one exponent per basis direction is required")
    if any(n < 0 for n in exps):
        raise ModelError("exponents must be naturals")
    spec = SubgroupSpec(model, exps)
    if model.kind == "abelian":
        return spec
    gens = spec.generators()
    for a in gens:
        for b in gens:
            if not spec.contains(model.mul(a, b)):
                raise ModelError(f"exponents {exps} do not span a subgroup: "
                                 "generator product escapes")
            if not spec.contains(model.commutator(a, b)):
                raise ModelError(f"exponents {exps} do not span a subgroup: "
                                 "commutator escapes")
    samples = model._samples(23, 12, [model.p ** min(n, model.precision) for n in exps])
    for x, y in zip(samples[::2], samples[1::2]):
        if not (spec.contains(model.mul(x, y)) and spec.contains(model.inv(x))):
            raise ModelError(f"exponents {exps} do not span a subgroup at precision")
    return spec


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Automorphism:
    """Inner or linear-on-log automorphism.

    Inner means x |-> h x h^{-1}, h the conjugator, whose inverse is kept
    beside it.  Linear-on-log means: act on first-kind coordinates by a
    matrix A, i.e.  log x = sum mu_i log g_i  |->  sum (A mu)_i log g_i.
    Construction of a linear-on-log automorphism checks the homomorphism
    property on all basis pairs and membership in the omega-compatible
    group (degree > 1/(p-1)); both failures raise.  An inner automorphism
    and the identity pass both by proof (`inner`, `identity`).
    """

    model: GroupModel = field(repr=False)
    kind: str
    matrix: Optional[tuple[tuple[int, ...], ...]] = None
    conjugator: Optional[GroupElement] = None
    conjugator_inv: Optional[GroupElement] = field(default=None, repr=False)

    @staticmethod
    def identity(model: GroupModel) -> "Automorphism":
        """The identity, on first-kind coordinates the identity matrix,
        without the checks of `linear_on_log`, which it passes by proof: it
        keeps every bracket, and phi(g) g^-1 = 1 for every g, so its degree
        is infinite.  The sampled estimate `deg_omega` can read only a
        marker at low precision, as for `inner`."""
        return Automorphism(model, "linear", _mat_id(model.rank))

    @staticmethod
    def inner(model: GroupModel, h: GroupElement) -> "Automorphism":
        """x |-> h x h^-1, without the degree check, which it passes by
        proof: phi(g) g^-1 = h g h^-1 g^-1 = [h^-1, g^-1] in the a^-1 b^-1 a b
        convention of `GroupModel.commutator`, so the commutator axiom gives
        omega(phi(g) g^-1) >= omega(h) + omega(g), a degree of at least
        omega(h) >= min_i omega_i, which `PValuation.check_p` puts above
        1/(p-1).  The sampled estimate `deg_omega` can read less at low
        precision, where a displacement is only a marker: on abelian p = 3,
        omega = (1, 2), M = 1 it reads >=0."""
        return Automorphism(model, "inner", None, h, model.inv(h))

    @staticmethod
    def linear_on_log(model: GroupModel, rows) -> "Automorphism":
        pm = model.p ** model.precision
        mat = tuple(tuple(int(x) % pm for x in r) for r in rows)
        if len(mat) != model.rank or any(len(r) != model.rank for r in mat):
            raise ModelError(f"matrix must be {model.rank} x {model.rank}")
        phi = Automorphism(model, "linear", mat)
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
        return self.model.from_first_kind(
            [sum(a * x for a, x in zip(row, mu)) for row in self.matrix])

    def apply(self, el: GroupElement) -> GroupElement:
        if el.model is not self.model:
            raise ModelError("element belongs to a different model")
        if self.kind == "inner":
            return self.model.mul(self.model.mul(self.conjugator, el),
                                  self.conjugator_inv)
        return self._apply_linear(el)

    def power(self, k: int) -> "Automorphism":
        """phi^k, without the checks of construction, which phi passed.

        A power of a homomorphism is a homomorphism: x |-> h^k x h^-k, and
        on first-kind coordinates the matrix A^k.  Its degree is no lower:
        phi^k(g) g^-1 = phi^(k-1)(phi(g) g^-1) * phi^(k-1)(g) g^-1, where
        phi^(k-1) keeps omega, phi(g) g^-1 has omega at least
        omega(g) + deg(phi), and by induction so has phi^(k-1)(g) g^-1;
        hence deg(phi^k) >= deg(phi) > 1/(p-1)."""
        if k < 0:
            raise ValueError("negative automorphism powers are not needed here")
        model = self.model
        if self.kind == "inner":
            h = model.pow(self.conjugator, k)
            return Automorphism(model, "inner", None, h, model.inv(h))
        # square and multiply on Python ints: entries mod p^M overflow int64
        pm = model.p ** model.precision
        return Automorphism(model, "linear", power(
            self.matrix, k, _mat_id(model.rank), lambda a, b: _mat_mul(a, b, pm)))


def deg_omega(phi: Automorphism) -> Val:
    """Estimated omega-degree: min of omega(phi(g) g^-1) - omega(g).

    The minimum runs over the basis plus a seeded sample, on integers in
    units of 1/e; only the result is a `Val`.  For automorphisms
    that are trivial mod the centre the basis already attains the true
    degree; in general this is an upper estimate of the infimum and is
    documented as such.
    """
    model = phi.model
    terms = []
    for g in model.basis() + model._samples(29, 24):
        wg, exact = model._omega_units(g.coords)
        if exact:
            w, w_exact = model._omega_units(model.mul(phi.apply(g), model.inv(g)).coords)
            terms.append((w - wg, w_exact))
    if not terms:
        raise ModelError("degree estimate needs at least one non-identity sample")
    # as in `padic.val_min`: exact iff an exact term attains the minimum
    low = min(w for w, _ in terms)
    return model.omega.val(low, (low, True) in terms)


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
