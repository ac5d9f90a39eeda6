"""Reference routes the tests compare the library's kernels against.

None of this is used by `iwacalc` itself.  `OperatorMatrix` is the dense
form of an operator on a truncation's monomial space (columns = images of
basis monomials), so composing and comparing operators is plain linear
algebra; it is built on request and never cached.  `mul_reference`
multiplies series through the group, every pair of group elements of the
two expansions.  `dense` scatters a `SparseMap` into its matrix.
`divided_power_reference` applies the closed formula for del^(alpha) term
by term, `rref_reference` row-reduces by scanning columns for pivots,
`reduce_block` reduces a block of dense vectors against an rref basis at
once, `DenseRowSpace` keeps a growing span fully reduced in a dense array
and `dense_closure` closes a span under maps of dense vectors with it,
`mat_pow` raises a matrix to a power by square and multiply, and
`escapes_reference` tests a span for del_i-stability on every column.
`format_reference` writes a sparse polynomial term by term, and
`mahler_coeff_aut_reference` takes finite differences over every point of
the box below alpha with one `comb_mod` per coordinate.  `MatrixRoute`
computes a unitriangular group law with numeric matrix logs
and exps, element by element, where the model evaluates polynomials
compiled at load."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from iwacalc.groups import (
    Automorphism, UnitriangularModel, _mat_id, _mat_inv_mod, _mat_mul,
)
from iwacalc.control import IdealSpan
from iwacalc.linalg import rref
from iwacalc.operators import _operator_index, divided_power_map
from iwacalc.padic import MultiIndex, comb_mod, mi_range
from iwacalc.series import (
    SparseMap, TruncatedSeries, TruncationSpec, _combine_rows, aut_images_table,
)


def mat_pow(a: np.ndarray, k: int, p: int) -> np.ndarray:
    """a^k mod p in a's dtype; object arrays of Python ints stay exact for
    any modulus."""
    if k < 0:
        raise ValueError("negative matrix power")
    out = np.eye(a.shape[0], dtype=a.dtype)
    base = a % p
    while k:
        if k & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        k >>= 1
    return out


def rref_reference(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        a = a.reshape(1, -1)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if a[i, c]:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        for i in range(nrows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r].copy(), pivots


def reduce_block(rows: np.ndarray, pivots, block, p: int) -> np.ndarray:
    """Residual of each row of block after elimination against a fully
    reduced rref basis (rows[k] is 1 at pivots[k] and 0 at every other pivot).

    The residual of v is v - sum_k v[pivots[k]] * rows[k].  It is zero at the
    pivots, so the product is formed only for the basis rows some v needs,
    and only on the columns where one of those rows is nonzero off its
    pivot; a monomial basis has no such columns.  The basis rows are taken
    in chunks small enough that no int64 sum of products of residues
    reaches 2^63, so the result is exact whenever (p - 1)^2 + p < 2^63.
    """
    out = np.asarray(block, dtype=np.int64) % p
    pivots = np.asarray(pivots, dtype=np.intp)
    step = max(1, ((1 << 63) - p) // (p - 1) ** 2)
    coeffs = out[:, pivots]
    used = np.flatnonzero(coeffs.any(axis=0))
    if not used.size:
        return out
    coeffs, basis = coeffs[:, used], rows[used]
    out[:, pivots[used]] = 0
    off = basis.any(axis=0)
    off[pivots] = False
    cols = np.flatnonzero(off)
    for lo in range(0, used.size if cols.size else 0, step):
        part = coeffs[:, lo:lo + step] @ basis[lo:lo + step][:, cols]
        out[:, cols] = (out[:, cols] - part) % p
    return out


class DenseRowSpace:
    """Incrementally maintained rref basis of a growing span.

    Rows are kept fully reduced in one preallocated array, in insertion
    order; `matrix()` and `pivots` sort them by pivot, so they are the
    canonical representative of the span regardless of the insertion order.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self._rows = np.zeros((ncols, ncols), dtype=np.int64)
        self._pivots = np.zeros(ncols, dtype=np.intp)
        self.dim = 0

    def residual(self, vec) -> np.ndarray:
        k = self.dim
        block = np.reshape(vec, (1, -1))
        return reduce_block(self._rows[:k], self._pivots[:k], block, self.p)[0]

    def add(self, vec) -> bool:
        """Insert vec into the span; True iff the dimension grew."""
        v = self.residual(vec)
        nz = v.nonzero()[0]
        if not nz.size:
            return False
        c = int(nz[0])
        if v[c] != 1:
            v = v * pow(int(v[c]), -1, self.p) % self.p
        k = self.dim
        stored = self._rows[:k]
        hit = np.flatnonzero(stored[:, c])
        if hit.size:
            stored[hit] = (stored[hit] - stored[hit, c][:, None] * v) % self.p
        self._rows[k] = v
        self._pivots[k] = c
        self.dim = k + 1
        return True

    @property
    def pivots(self) -> list[int]:
        return sorted(int(c) for c in self._pivots[:self.dim])

    def matrix(self) -> np.ndarray:
        order = np.argsort(self._pivots[:self.dim])
        return self._rows[order]


def dense_closure(p: int, size: int, seeds, maps) -> DenseRowSpace:
    """Span of the dense seed vectors closed under the maps: the image of
    every vector that grew the span under every map is pushed in turn."""
    space = DenseRowSpace(p, size)
    queue = list(seeds)
    while queue:
        v = queue.pop()
        if space.add(v):
            queue.extend(m(v) for m in maps)
    return space


def divided_power_reference(trunc: TruncationSpec, alpha: Sequence[int],
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


def dense(m: SparseMap) -> np.ndarray:
    """The size x size matrix of the map (column j = image of b^j), the
    coefficients of a repeated (target, source) pair summed mod p."""
    mat = np.zeros((m.size, m.size), dtype=np.int64)
    np.add.at(mat, (m.tgt, m.src), m.coef)
    return mat % m.p


def divided_power_matrix(trunc: TruncationSpec, alpha: Sequence[int]) -> OperatorMatrix:
    """Dense form of the cached sparse map; the matrix itself is not cached."""
    return OperatorMatrix(trunc, dense(divided_power_map(trunc, alpha)))


def mul_reference(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """Product via the group: expand, multiply elements, re-expand.

    This is the reference algorithm for every model kind, kept as the oracle
    that the tests compare `*` with; it multiplies every pair of group
    elements of the two expansions.
    """
    t = x.trunc
    if t is not y.trunc:
        raise ValueError("series from different truncations")
    p = t.model.p
    xg: dict = {}
    for a, ca in x.coeffs.items():
        for c, s in t._expand(a):
            v = (xg.get(c, 0) + ca * s) % p
            if v:
                xg[c] = v
            else:
                xg.pop(c, None)
    yg: dict = {}
    for a, ca in y.coeffs.items():
        for c, s in t._expand(a):
            v = (yg.get(c, 0) + ca * s) % p
            if v:
                yg[c] = v
            else:
                yg.pop(c, None)
    prod: dict = {}  # embed key -> [group element, coefficient]
    for c1, v1 in xg.items():
        g1 = t._group_el(c1)
        for c2, v2 in yg.items():
            el = t.model.mul(g1, t._group_el(c2))
            slot = prod.setdefault(t._embed_key(el), [el, 0])
            slot[1] = (slot[1] + v1 * v2) % p
    terms = [(el, v) for el, v in prod.values() if v]
    return t.from_vector(_combine_rows(
        [v for _, v in terms], [t._embed_row(el) for el, _ in terms], t.size, p))


def format_reference(coeffs: dict, order, letter: str) -> str:
    """Text form of a sparse polynomial: the terms in `order` as
    'c*x1^a1*x2^a2' with x = `letter`, ^1 and a leading 1* omitted."""
    if not coeffs:
        return "0"
    parts = []
    for a in order:
        c = coeffs[a]
        factors = []
        for i, v in enumerate(a):
            if v == 1:
                factors.append(f"{letter}{i + 1}")
            elif v > 1:
                factors.append(f"{letter}{i + 1}^{v}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


def mahler_coeff_aut_reference(trunc: TruncationSpec, phi: Automorphism,
                               alpha: Sequence[int]) -> TruncatedSeries:
    """<phi, del^(alpha)> = sum_{beta <= alpha} (-1)^{|alpha-beta|}
    C(alpha, beta) embed(phi(g^beta) g^-beta), over every beta in the box."""
    alpha = _operator_index(trunc, alpha)
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
        el = model.element(beta)
        moved = model.mul(phi.apply(el), model.inv(el))
        acc = (acc + c * trunc._embed_row(moved)) % p
    return trunc.from_vector(acc)


def escapes_reference(I: IdealSpan, i: int) -> np.ndarray:
    """Residuals of del_i(row) against the span, one per row of I: the dense
    del_i applied to every row, and the whole block reduced at full width."""
    t = I.trunc
    p = t.model.p
    d_i = dense(divided_power_map(t, tuple(int(j == i) for j in range(t.model.rank))))
    return reduce_block(I.rows, I.pivots, I.rows @ d_i.T % p, p)


def map_matrix(trunc: TruncationSpec, m: SparseMap) -> OperatorMatrix:
    """The dense operator of a sparse map on the truncation."""
    return OperatorMatrix(trunc, dense(m))


def sparse_of(op: OperatorMatrix) -> SparseMap:
    """A dense operator as a sparse map, one entry per nonzero entry."""
    tgt, src = np.nonzero(op.mat % op.trunc.model.p)
    return SparseMap(op.trunc.model.p, op.trunc.size, tgt, src,
                     op.mat[tgt, src] % op.trunc.model.p)


def _mat_add(a, b, m: int):
    n = len(a)
    return tuple(tuple((a[i][j] + b[i][j]) % m for j in range(n)) for i in range(n))


def _mat_scale(a, c: int, m: int):
    n = len(a)
    return tuple(tuple(a[i][j] * c % m for j in range(n)) for i in range(n))


def _mat_log_unitriangular(a, m: int):
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


class MatrixRoute:
    """A unitriangular model's group law by matrix log and exp mod p^{M+1}.

    An element is the matrix g_1^{l_1} ... g_d^{l_d} (`native`); its
    coordinates are read back by peeling one basis power at a time, each
    from the first-kind coordinates of a matrix log (`theta_coords`).  The
    route builds its own generator logs and first-kind solver from the
    model's generator matrices.  Coordinates go in and come out as ints."""

    def __init__(self, model: UnitriangularModel):
        p, n, d = model.p, model.size, model.rank
        self.p, self.size, self.rank = p, n, d
        self.pm = p ** model.precision
        self.mod = p * self.pm
        self.logs = [_mat_log_unitriangular(g, self.mod) for g in model._gens]
        self.positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.vmatrix = [[self.logs[k][i][j] // p % self.pm for k in range(d)]
                        for (i, j) in self.positions]
        _, self.pivots = rref(np.array(self.vmatrix, dtype=np.int64).T % p, p)
        self.solver = _mat_inv_mod(
            [self.vmatrix[r] for r in self.pivots], self.pm, p)

    def first_kind_of_log(self, logmat) -> list[int]:
        target = []
        for (i, j) in self.positions:
            if logmat[i][j] % self.p:
                raise ValueError("log entry not divisible by p")
            target.append(logmat[i][j] // self.p % self.pm)
        mu = [sum(self.solver[k][t] * target[r] for t, r in enumerate(self.pivots))
              % self.pm for k in range(self.rank)]
        for r, row in enumerate(self.vmatrix):
            if sum(row[k] * mu[k] for k in range(self.rank)) % self.pm != target[r]:
                raise ValueError("matrix is not in the span of the basis logs")
        return mu

    def native(self, coords):
        out = _mat_id(self.size)
        for lam, ell in zip(coords, self.logs):
            out = _mat_mul(out, _mat_exp_nilpotent(
                _mat_scale(ell, lam, self.mod), self.mod), self.mod)
        return out

    def theta_coords(self, mat) -> tuple[int, ...]:
        coords = []
        for i in range(self.rank):
            lam = self.first_kind_of_log(_mat_log_unitriangular(mat, self.mod))[i]
            coords.append(lam)
            undo = _mat_exp_nilpotent(
                _mat_scale(self.logs[i], -lam % self.mod, self.mod), self.mod)
            mat = _mat_mul(undo, mat, self.mod)
        if mat != _mat_id(self.size):
            raise ValueError("basis powers do not exhaust the matrix")
        return tuple(coords)

    def mul(self, x, y) -> tuple[int, ...]:
        return self.theta_coords(
            _mat_mul(self.native(x), self.native(y), self.mod))

    def pow(self, x, s: int) -> tuple[int, ...]:
        logm = _mat_log_unitriangular(self.native(x), self.mod)
        return self.theta_coords(_mat_exp_nilpotent(
            _mat_scale(logm, s % self.pm, self.mod), self.mod))

    def inv(self, x) -> tuple[int, ...]:
        return self.pow(x, -1)

    def first_kind_coords(self, x) -> tuple[int, ...]:
        return tuple(self.first_kind_of_log(
            _mat_log_unitriangular(self.native(x), self.mod)))

    def from_first_kind(self, mu) -> tuple[int, ...]:
        acc = _mat_scale(self.logs[0], 0, self.mod)
        for lam, ell in zip(mu, self.logs):
            acc = _mat_add(acc, _mat_scale(ell, lam, self.mod), self.mod)
        return self.theta_coords(_mat_exp_nilpotent(acc, self.mod))
