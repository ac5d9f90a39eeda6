"""Reference routes the tests compare the library's kernels against.

None of this is used by `iwacalc` itself.  `OperatorMatrix` is the dense
form of an operator on a truncation's monomial space (columns = images of
basis monomials), so composing and comparing operators is plain linear
algebra; it is built on request and never cached.  `mul_reference`
multiplies series through the group, every pair of group elements of the
two expansions, which `signed_binomials_reference` writes one tuple per
term from `math.comb`.  `aut_images_reference` builds the ring extension
of an automorphism column by column from products of the moved generators
phi(g_i) - 1, and `aut_matrix` is its dense operator.  `dense` scatters a
`SparseMap` into its matrix, and `apply_entries_reference` applies one to
a block by two binary searches per column, without the offsets the map
keeps.
`group_columns_reference` is the group kernel on dense blocks: the
images' embed rows and its output each have `size` columns, and each
row is one product of its signs with their embed rows.
`divided_power_reference` applies the closed formula for del^(alpha) term
by term.  `rref` writes the reduced basis of a `RowSpace` fed the rows of
a matrix as a dense array (`space_matrix`), `intersect_coordinate_subspace`
intersects a row space with a coordinate subspace through it, and
`rref_reference` row-reduces by scanning columns for pivots;
`reduce_block` reduces a block of dense vectors against an rref basis at
once, `DenseRowSpace` keeps a growing span fully reduced in a dense array
and `dense_closure` closes a span under maps of dense vectors with it,
`mat_pow` raises a matrix to a power by square and multiply,
`mat_inv_mod` inverts one mod p^k by Gauss-Jordan, and
`escapes_reference` tests a span for del_i-stability on every column;
`close_span_reference` closes a span under sparse maps a frontier at a
time, with no block of monomial multiples.
`format_reference` writes a sparse polynomial term by term, and
`mahler_coeff_aut_reference` takes finite differences over every point of
the box below alpha with one `comb_mod` per coordinate;
`mahler_coeff_aut_central` is the closed form of the same coefficients,
a product of series, for an automorphism that `is_trivial_mod_centre`.
`rho_apply_reference` applies the multiplier g |-> f(g) g of a
`LocallyConstantFunction` f, expanding through
`signed_binomials_reference` one term at a time, so it shares no kernel
with the coset idempotents; `coset_indicator` tabulates the indicator of a
coset mod p^level with `function_from_callable`.  `z_of_automorphism`
takes the p^r-th root of g |-> phi^{p^r}(g) g^{-1} coordinate by
coordinate, in a model loaded afresh at precision M - r.
`zeta_numerator_reference` is the numerator det(M_r)·ζ_r^{(i)}(x) of one
test series from `aut_extend` and series products, and `block_series`
reads the rows of a block as series.  `MatrixRoute`
computes a unitriangular group law with numeric matrix logs
and exps, element by element, where the model evaluates polynomials
compiled at load, and `compiled_laws_reference` compiles those
polynomials by peeling the product of two normal forms on 2d symbols;
`laws_or_message` reads a compile's laws or its rejection.
`induced_filtration_reference` reads the induced filtration of a central
prime on `Val`s, one part r_gamma of the
`relative_normal_form` at a time through `tau_reference`, which
substitutes b_j <- u term by term; `verify_valuation_reference` and
`completely_prime_probe_reference` are the two sampled checks one sample
at a time, each drawn by `random_series_reference`.
`verify_operators_reference` and `idempotents_reference` are the two
operator checks of the CLI one sample at a time, with one composition,
combination and apply per sample and `Val` comparisons.
`residue_vp`, `val_add`, `val_sub_exact` and `ge_refuted` are `Val`
arithmetic for the reference routes.  `sample_element` draws one group
element, a `below` call per coordinate.  `omega_of` reads a model's
omega of an element as a `Val`; `omega_of_reference` and
`deg_omega_reference` compute omega and the degree estimate on `Val`s,
a `val_add` per coordinate and a `val_min` over the terms, where the
models compare integers in units of 1/e."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from iwacalc.groups import (
    _VALIDATION_SEED, Automorphism, GroupElement, GroupModel, ModelError,
    SubgroupSpec, UnitriangularModel, _compiled, _mat_id, _mat_mul, _pmat_exp,
    _pmat_log, _pmat_mul, _symbols, load_abelian, load_unitriangular,
    subgroup_from_exponents,
)
from iwacalc.control import CentralPrimeSpec, IdealSpan
from iwacalc.moore import ZetaExperiment
from iwacalc.linalg import RowSpace, _runs, integer_array
from iwacalc.operators import (
    _operator_index, coset_idempotent, divided_power, divided_power_map,
    divided_power_maps, operator_degrees,
)
from iwacalc.padic import (
    AtLeast, MultiIndex, PrecisionError, Val, comb_mod, format_val, ge_provable,
    mi_range, mi_weight, multi_binom_mod_p, val_min,
)
from iwacalc.rng import Pcg32
from iwacalc.series import (
    SparseMap, TruncatedSeries, TruncationSpec, aut_extend, format_series,
    group_embed,
)


def residue_vp(r: int, p: int, M: int) -> Val:
    """p-adic valuation of a residue r in [0, p^M): the index of its first
    nonzero base-p digit, or AtLeast(M) for zero."""
    if not r:
        return AtLeast(Fraction(M))
    v = 0
    while not r % p:
        r //= p
        v += 1
    return v


def val_add(a: Val, b: Val) -> Val:
    """a + b, a marker if either is one."""
    if isinstance(a, AtLeast) or isinstance(b, AtLeast):
        ba = a.bound if isinstance(a, AtLeast) else Fraction(a)
        bb = b.bound if isinstance(b, AtLeast) else Fraction(b)
        return AtLeast(ba + bb)
    return Fraction(a) + Fraction(b)


def val_sub_exact(a: Val, b) -> Val:
    """a - b where b must be exact."""
    if isinstance(b, AtLeast):
        raise ValueError("subtrahend must be resolved")
    if isinstance(a, AtLeast):
        return AtLeast(a.bound - Fraction(b))
    return Fraction(a) - Fraction(b)


def ge_refuted(a: Val, b: Val) -> bool:
    """True iff `a >= b` is provably false (needs an upper bound on a)."""
    if isinstance(a, AtLeast):
        return False
    return Fraction(a) < (b.bound if isinstance(b, AtLeast) else Fraction(b))


def sample_element(model: GroupModel, rng: Pcg32) -> GroupElement:
    """One element whose coordinates are successive `rng.below(p^M)` draws."""
    return model.element([rng.below(model.p ** model.precision)
                          for _ in range(model.rank)])


def omega_of(model: GroupModel, el: GroupElement) -> Val:
    """omega of an element as a `Val`, read off the model's integers
    (`GroupModel._omega_units`)."""
    return model.omega.val(*model._omega_units(el.coords))


def omega_of_reference(model: GroupModel, el: GroupElement) -> Val:
    """omega(el) = min_i (omega_i + v_p(l_i)) on `Val`s: a zero coordinate
    gives the marker AtLeast(omega_i + M)."""
    terms = [val_add(w, residue_vp(lam, model.p, model.precision))
             for w, lam in zip(model.omega.values, el.coords)]
    return val_min(terms)


def deg_omega_reference(phi: Automorphism) -> Val:
    """The degree estimate min of omega(phi(g) g^-1) - omega(g) over the
    basis and 24 elements of the validation seed's stream 29, drawn one at
    a time, skipping every g whose omega is a marker."""
    model = phi.model
    candidates = list(model.basis())
    rng = Pcg32(_VALIDATION_SEED, stream=29)
    for _ in range(24):
        candidates.append(sample_element(model, rng))
    terms = []
    for g in candidates:
        wg = omega_of_reference(model, g)
        if isinstance(wg, AtLeast):
            continue
        moved = model.mul(phi.apply(g), model.inv(g))
        terms.append(val_sub_exact(omega_of_reference(model, moved), wg))
    if not terms:
        raise ModelError("degree estimate needs at least one non-identity sample")
    return val_min(terms)


def mat_inv_mod(rows, m: int, p: int):
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
            raise ValueError("matrix is singular mod p")
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


def space_matrix(space: RowSpace) -> np.ndarray:
    """The reduced row echelon basis of a `RowSpace`, rows sorted by pivot,
    as a dense dim x ncols int64 array."""
    R = space.basis
    mat = np.zeros((space.dim, space.ncols), dtype=np.int64)
    mat[R.src, R.tgt] = R.coef
    return mat


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form through a `RowSpace`; returns (nonzero rows,
    pivot columns).  A 1-D input is one row of integers."""
    a = np.asarray(integer_array(mat) % p, dtype=np.int64)
    if a.ndim != 2:
        a = a.reshape(1, -1)
    space = RowSpace(p, a.shape[1])
    at, cols = np.nonzero(a)
    space.add(at, cols, a[at, cols])
    return space_matrix(space), space.pivots


def intersect_coordinate_subspace(rows, p: int, keep: list[int]) -> np.ndarray:
    """Basis (rref) of rowspace(rows) intersected with span{e_j : j in keep}.

    Works by eliminating the complement columns first: rows of the permuted
    rref whose pivot lands in the kept block have zero complement part, and
    those rows are exactly a basis of the intersection.
    """
    a = np.asarray(rows, dtype=np.int64)
    if a.size == 0:
        return np.zeros((0, a.shape[1] if a.ndim == 2 else 0), dtype=np.int64)
    ncols = a.shape[1]
    keep_set = set(keep)
    drop = [c for c in range(ncols) if c not in keep_set]
    order = drop + list(keep)
    reduced, pivots = rref(a[:, order], p)
    cut = len(drop)
    hits = [i for i, c in enumerate(pivots) if c >= cut]
    final, _ = rref(reduced[hits][:, np.argsort(order)], p)
    return final


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


def function_from_callable(p: int, rank: int, s: int, fn) -> LocallyConstantFunction:
    """The function lam -> fn(lam mod p^s), tabulated on the box."""
    box = p ** s
    return LocallyConstantFunction(p, rank, s, {a: fn(a) for a in mi_range((box - 1,) * rank)})


def coset_indicator(p: int, rank: int, s: int, nu: Sequence[int],
                    level: int | None = None) -> LocallyConstantFunction:
    """Indicator of the coset {lam : lam = nu mod p^level} (level <= s)."""
    level = s if level is None else level
    if level > s:
        raise ValueError("indicator level exceeds the resolution")
    box = p ** level
    nu = tuple(v % box for v in nu)
    return function_from_callable(
        p, rank, s, lambda a: 1 if tuple(v % box for v in a) == nu else 0)


def rref_reference(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).
    The scan runs on Python ints, so it is exact for any p below 2^63."""
    a = np.array(mat, dtype=object) % p
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
    return a[:r].astype(np.int64), pivots


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


def aut_images_reference(trunc: TruncationSpec, phi: Automorphism) -> np.ndarray:
    """The matrix of the ring extension of phi (column j = image of b^j):
    phi(b^a) = prod_i (phi(g_i) - 1)^{a_i} in normal order, built in graded
    order so that each column is one series product of an earlier one."""
    one = trunc.one()
    moved = [group_embed(trunc, phi.apply(g)) - one for g in trunc.model.basis()]
    images = {(0,) * trunc.model.rank: one}
    mat = np.zeros((trunc.size, trunc.size), dtype=np.int64)
    for k, a in enumerate(trunc.basis):
        if any(a):
            j = max(i for i, v in enumerate(a) if v)
            images[a] = images[a[:j] + (a[j] - 1,) + a[j + 1:]] * moved[j]
        mat[:, k] = images[a].vector()
    return mat


def aut_matrix(trunc: TruncationSpec, phi: Automorphism) -> OperatorMatrix:
    return OperatorMatrix(trunc, aut_images_reference(trunc, phi))


def dense(m: SparseMap) -> np.ndarray:
    """The size x size matrix of the map (column j = image of b^j), the
    coefficients of a repeated (target, source) pair summed mod p."""
    mat = np.zeros((m.size, m.size), dtype=np.int64)
    np.add.at(mat, (m.tgt, m.src), m.coef)
    return mat % m.p


def apply_entries_reference(m: SparseMap, rows: np.ndarray, cols: np.ndarray,
                            coefs: np.ndarray) -> tuple:
    """`SparseMap.apply_entries` by two binary searches of the map's sorted
    sources per column, where the kernel reads the offsets the map keeps."""
    lo = m.src.searchsorted(cols)
    at, pos = _runs(lo, m.src.searchsorted(cols, side="right") - lo)
    return rows[at], m.tgt[pos], coefs[at] * m.coef[pos] % m.p


def group_columns_reference(t: TruncationSpec, exps, image, start=None,
                            labels=None) -> np.ndarray:
    """Row k is the image of b^a, a the k-th row of `exps`, as
    `TruncationSpec._group_columns` sums it, as one dense row of `size`
    columns: the signs of its expansion times the dense embed rows of its
    images, 0 before start[k]."""
    p, step = t.model.p, t.size
    exps = np.asarray(exps, dtype=np.int64).reshape(-1, t.model.rank)
    owner, c, signs = t._signed_binomials(exps)
    labels = np.zeros(len(exps), dtype=np.int64) if labels is None else labels
    labels = labels[owner]
    # codes in the block's own radix, the label its top digit: a row past
    # the basis has exponents whose codes in `_radix` collide
    radix = np.cumprod(np.concatenate(([1], c.max(axis=0, initial=0) + 1)))
    _, first, at = np.unique(c @ radix[:-1] + labels * radix[-1],
                             return_index=True, return_inverse=True)
    rows = t._embed_rows(image(labels[first], c[first]))
    cuts = np.searchsorted(owner, np.arange(len(exps) + 1)).tolist()
    start = [0] * len(exps) if start is None else start.tolist()
    out = np.zeros((len(exps), t.size), dtype=np.int64)
    for k, s in enumerate(start):
        lo, hi = cuts[k], cuts[k + 1]
        # a row inside the basis has at most `size` terms, its c being
        # distinct basis monomials; a row past it sums `size` at a time
        if hi - lo <= step:
            out[k, s:] = signs[lo:hi] @ rows[at[lo:hi], s:]
        else:
            out[k, s:] = sum(signs[n:min(n + step, hi)] @
                             rows[at[n:min(n + step, hi)], s:] % p
                             for n in range(lo, hi, step))
    out %= p
    return out


def divided_power_matrix(trunc: TruncationSpec, alpha: Sequence[int]) -> OperatorMatrix:
    """Dense form of the cached sparse map; the matrix itself is not cached."""
    return OperatorMatrix(trunc, dense(divided_power_map(trunc, alpha)))


def signed_binomials_reference(a: Sequence[int], p: int) -> tuple:
    """b^a = sum_{c <= a} (-1)^{|a-c|} C(a, c) g^c as the (c, coefficient)
    pairs with a nonzero coefficient mod p, c in lexicographic order: one
    tuple per term, each factor from `math.comb`."""
    rows = [[(c, (-1) ** (x - c) * math.comb(x, c) % p) for c in range(x + 1)]
            for x in a]
    out = []
    for terms in itertools.product(*rows):
        coeff = 1
        for _, s in terms:
            coeff = coeff * s % p
        if coeff:
            out.append((tuple(c for c, _ in terms), coeff))
    return tuple(out)


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
    yg: dict = {}
    for series, expansion in ((x, xg), (y, yg)):
        for a, ca in series.coeffs.items():
            for c, s in signed_binomials_reference(a, p):
                v = (expansion.get(c, 0) + ca * s) % p
                if v:
                    expansion[c] = v
                else:
                    expansion.pop(c, None)
    el = {c: t.model.element(c) for c in set(xg) | set(yg)}
    prod: dict = {}  # coordinates -> coefficient
    for c1, v1 in xg.items():
        for c2, v2 in yg.items():
            lam = t.model.mul(el[c1], el[c2]).coords
            prod[lam] = (prod.get(lam, 0) + v1 * v2) % p
    # more products than monomials may meet here, so sum in Python ints
    rows = t._embed_rows(list(prod)).astype(object)
    return t.from_vector(np.array(list(prod.values()), dtype=object) @ rows)


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
        acc = (acc + c * group_embed(trunc, moved).vector()) % p
    return trunc.from_vector(acc)


def rho_apply_reference(trunc: TruncationSpec, f, x: TruncatedSeries) -> TruncatedSeries:
    """The multiplier g |-> f(g) g on x, term by term: each b^a expanded into
    group elements g^c, each weighted by f(c) and embedded by the Mahler
    formula g^c = sum_b C(c, b) b^b with one `comb_mod` per coordinate."""
    p = trunc.model.p
    acc = [0] * trunc.size
    for a, ca in x.coeffs.items():
        for c, s in signed_binomials_reference(a, p):
            w = ca * s * f(c) % p
            for k, b in enumerate(trunc.basis):
                acc[k] += w * math.prod(comb_mod(ci, bi, p) for ci, bi in zip(c, b))
    return trunc.from_vector(np.array([v % p for v in acc], dtype=np.int64))


def is_trivial_mod_centre(phi: Automorphism, centre: SubgroupSpec) -> bool:
    """Does phi move every basis element by a central factor only?"""
    model = phi.model
    for g in model.basis():
        if not centre.contains(model.mul(phi.apply(g), model.inv(g))):
            return False
    return True


def mahler_coeff_aut_central(trunc: TruncationSpec, phi: Automorphism,
                             alpha: Sequence[int]) -> TruncatedSeries:
    """Closed form  prod_i (phi(g_i) g_i^{-1} - 1)^{a_i},  valid when every
    basis displacement is central: a product of series, where
    `mahler_coeff_aut` takes finite differences."""
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


def z_of_automorphism(phi: Automorphism, r: int) -> list[GroupElement]:
    """p^r-th root of g |-> phi^{p^r}(g) g^{-1}, one image per basis element.

    The root divides coordinates by p^r, so the images live in a copy of the
    model at precision M - r, loaded afresh; r <= M - 1 is required, and a
    coordinate that is not divisible by p^r raises PrecisionError.
    """
    model = phi.model
    if r < 0 or r > model.precision - 1:
        raise PrecisionError(f"need 0 <= r <= M - 1 = {model.precision - 1}, got {r}")
    reduced = model
    if r:
        centre = model.centre.exponents if model.centre else None
        omega, e, M = model.omega.values, model.omega.e, model.precision - r
        reduced = (load_abelian(model.p, model.rank, M, omega, e, centre)
                   if model.kind == "abelian" else
                   load_unitriangular(model.p, model.size, M, model._gens, omega, e, centre))
    q = model.p ** r
    power = phi.power(q)
    out = []
    for g in model.basis():
        c = model.mul(power.apply(g), model.inv(g))
        if any(lam % q for lam in c.coords):
            raise PrecisionError(f"coordinates {c.coords} are not divisible by p^{r}")
        out.append(reduced.element([lam // q for lam in c.coords]))
    return out


def zeta_numerator_reference(exp: ZetaExperiment, i: int, r: int,
                             x: TruncatedSeries) -> TruncatedSeries:
    """sum_j adj(M_r)_{ij} (phi^{p^{r+j}}(x) - x) over j from 0, one series
    product per j."""
    t = exp.trunc
    _, _, adj = exp.matrices(r)
    out = t.zero()
    for j in range(exp.m):
        moved = aut_extend(t, exp.phi_power(t.model.p ** (r + j)), x)
        out = out + adj[i - 1][j] * (moved - x)
    return out


def block_series(trunc: TruncationSpec, block, n: int) -> list[TruncatedSeries]:
    """The n rows of a block (see `TruncationSpec.mul_block`) as series."""
    rows, cols, coefs = block
    return [trunc.from_dict({trunc.basis[c]: v for c, v in
                             zip(cols[rows == k].tolist(), coefs[rows == k].tolist())})
            for k in range(n)]


def escapes_reference(I: IdealSpan, i: int) -> np.ndarray:
    """Residuals of del_i(row) against the span, one per row of I: the dense
    del_i applied to every row, and the whole block reduced at full width."""
    t = I.trunc
    p = t.model.p
    d_i = dense(divided_power_map(t, tuple(int(j == i) for j in range(t.model.rank))))
    return reduce_block(I.rows, I.pivots, I.rows @ d_i.T % p, p)


def close_span_reference(trunc: TruncationSpec, generators, maps: list[SparseMap],
                         sided: str) -> IdealSpan:
    """Span of the generators closed under the maps, a frontier at a time:
    the rows a frontier stored go through all n maps in one gather, the
    maps stacked with map k's targets offset by k*size, and the image of
    row r under map k is row r*n + k of the next frontier.  Under the right
    generator maps this is the right ideal, under those of both sides the
    two-sided one, and under x -> x*b_j^(p^n_j) the right ideal of a
    subalgebra; no block of monomial multiples is formed."""
    p, size, n = trunc.model.p, trunc.size, len(maps)
    parts = [np.zeros((3, 0), dtype=np.int64)] + [
        np.stack([m.tgt + k * size, m.src, m.coef]) for k, m in enumerate(maps)]
    stacked = SparseMap(p, n * size, *np.concatenate(parts, axis=1))
    gens = np.array([g.vector() for g in generators], dtype=np.int64).reshape(-1, size)
    space = RowSpace(p, size)
    front = space.add(*np.nonzero(gens), gens[gens != 0])
    while front[0].size:
        at, tgt, coefs = stacked.apply_entries(*front)
        front = space.add(at * n + tgt // size, tgt % size, coefs)
    return IdealSpan(trunc, space.basis, space.pivots, sided)


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
        self.solver = mat_inv_mod(
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


def compiled_laws_reference(model: UnitriangularModel) -> tuple:
    """(mul, first-kind, from-first-kind) laws of a unitriangular model by
    the two-peel route: the product of two normal forms built on 2d
    symbols, peeled one basis power at a time."""
    d, mod = model.rank, model._mod
    xy, one2 = _symbols(2 * d)
    mul = model._peel(_pmat_mul(model._normal_form(xy[:d], one2),
                                model._normal_form(xy[d:], one2), mod), one2)
    x, one = _symbols(d)
    first_kind = _compiled(model._first_kind_of_log(
        _pmat_log(model._normal_form(x, one), mod)))
    return mul, first_kind, model._peel(
        _pmat_exp(model._log_matrix(x), mod, one), one)


def laws_or_message(compile_laws: Callable, model: UnitriangularModel):
    """The laws that `compile_laws(model)` returns, or the text of the
    ModelError it raises."""
    try:
        return compile_laws(model)
    except ModelError as err:
        return str(err)


# ---------------------------------------------------------------------------
# Central primes and the sampled checks, term by term and sample by sample
# ---------------------------------------------------------------------------

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


def tau_reference(P: CentralPrimeSpec, r: TruncatedSeries) -> TruncatedSeries:
    """The quotient map on the central subalgebra, term by term: b_j <- u,
    each power of u by repeated products (identity for the zero prime)."""
    if P.kind == "zero":
        return r
    t = P.trunc
    j = P.target
    p = t.model.p
    pows = [t.one()]
    plain: dict = {}
    acc = t.zero()
    for a, cf in r.coeffs.items():
        k = a[j]
        if k == 0:
            plain[a] = (plain.get(a, 0) + cf) % p
        else:
            while len(pows) <= k:
                pows.append(pows[-1] * P.u)
            base = a[:j] + (0,) + a[j + 1:]
            acc = acc + t.monomial(base, cf) * pows[k]
    return acc + TruncatedSeries(t, plain)


def induced_filtration_reference(x: TruncatedSeries, P: CentralPrimeSpec) -> Val:
    """min over gamma of v(tau(r_gamma)) + w(c^gamma) on `Val`s, one relative
    normal form part at a time, with resolved values at or past W/e demoted
    to AtLeast(W/e)."""
    t = x.trunc
    c = P.central_block
    parts = relative_normal_form(x, c)
    if not parts:
        return AtLeast(t.cutoff)
    tail_omega = t.omega[c:]
    vals = []
    for gamma, r in parts.items():
        term = val_add(tau_reference(P, r).valuation(), mi_weight(gamma, tail_omega))
        if not isinstance(term, AtLeast) and term >= t.cutoff:
            term = AtLeast(t.cutoff)
        vals.append(term)
    return val_min(vals)


def random_series_reference(trunc: TruncationSpec, rng: Pcg32,
                            terms: int = 3) -> TruncatedSeries:
    """One sampled series: `terms` monomials drawn uniformly, each with a
    coefficient drawn from [1, p)."""
    p = trunc.model.p
    coeffs: dict = {}
    for _ in range(terms):
        a = trunc.basis[rng.below(trunc.size)]
        coeffs[a] = (coeffs.get(a, 0) + 1 + rng.below(p - 1)) % p
    return TruncatedSeries(trunc, coeffs)


def verify_valuation_reference(t: TruncationSpec, rng: Pcg32, samples: int) -> tuple:
    """(status, metrics, witnesses) of the verify-valuation task, one sample
    at a time with `*` and `Val` arithmetic."""
    witnesses = []
    checked = skipped = 0
    for _ in range(samples):
        x = random_series_reference(t, rng)
        y = random_series_reference(t, rng)
        wx, wy = x.valuation(), y.valuation()
        if isinstance(wx, AtLeast) or isinstance(wy, AtLeast):
            skipped += 1
            continue
        if Fraction(wx) + Fraction(wy) >= t.cutoff:
            skipped += 1
            continue
        checked += 1
        wxy = (x * y).valuation()
        if isinstance(wxy, AtLeast) or Fraction(wxy) != Fraction(wx) + Fraction(wy):
            witnesses.append({"kind": "multiplicativity",
                              "x": format_series(x), "y": format_series(y),
                              "got": format_val(wxy),
                              "expected": str(Fraction(wx) + Fraction(wy))})
        ws = (x + y).valuation()
        floor = min(Fraction(wx), Fraction(wy))
        if not isinstance(ws, AtLeast) and Fraction(ws) < floor:
            witnesses.append({"kind": "ultrametric",
                              "x": format_series(x), "y": format_series(y),
                              "got": format_val(ws), "floor": str(floor)})
    status = "pass" if not witnesses else "fail"
    return status, {"checked": checked, "skipped": skipped}, witnesses


def completely_prime_probe_reference(P: CentralPrimeSpec, rng: Pcg32,
                                     samples: int = 100) -> dict:
    """The report of `completely_prime_probe`, one sample at a time with `*`
    and `induced_filtration_reference`."""
    t = P.trunc
    checked = skipped = kernel_checked = 0
    witnesses: list[dict] = []
    gen = P.generator() if P.kind == "graph" else None
    for _ in range(samples):
        x = random_series_reference(t, rng)
        y = random_series_reference(t, rng)
        fx = induced_filtration_reference(x, P)
        fy = induced_filtration_reference(y, P)
        fxy = induced_filtration_reference(x * y, P)
        lower = val_add(fx, fy)
        if ge_refuted(fxy, lower):
            witnesses.append({
                "kind": "superadditivity",
                "x": format_series(x), "y": format_series(y),
                "f_x": str(fx), "f_y": str(fy), "f_xy": str(fxy),
            })
        resolved = not (isinstance(fx, AtLeast) or isinstance(fy, AtLeast))
        if resolved and Fraction(fx) + Fraction(fy) < t.cutoff:
            checked += 1
            if isinstance(fxy, AtLeast) or Fraction(fxy) != Fraction(fx) + Fraction(fy):
                witnesses.append({
                    "kind": "multiplicativity",
                    "x": format_series(x), "y": format_series(y),
                    "f_x": str(fx), "f_y": str(fy), "f_xy": str(fxy),
                })
        else:
            skipped += 1
        if gen is not None:
            gx = gen * x
            for z in (gx, gx * y):
                kernel_checked += 1
                fz = induced_filtration_reference(z, P)
                if not isinstance(fz, AtLeast):
                    witnesses.append({
                        "kind": "kernel", "element": format_series(z), "f": str(fz),
                    })
    return {
        "samples": samples,
        "checked": checked,
        "skipped": skipped,
        "kernel_checked": kernel_checked,
        "violations": len(witnesses),
        "witnesses": witnesses[:5],
        "status": "pass" if not witnesses else "fail",
    }


def verify_operators_reference(ctx, params: dict, stream: int) -> tuple:
    """(status, metrics, witnesses) of the verify-operators task, one sample
    at a time: per pair one composition, one combination and one comparison
    of maps; per element one divided power of its embedding; per basis
    index one `DegreeReport` compared as a `Val`."""
    t, model = ctx.trunc, ctx.model
    p = model.p
    samples = params.get("samples", 20)
    rng = Pcg32(ctx.seed, stream=stream)
    witnesses = []
    pairs = eigen = 0
    # operators are compared as canonical sparse maps
    for _ in range(samples):
        a = t.basis[rng.below(t.size)]
        b = t.basis[rng.below(t.size)]
        d_a, d_b = divided_power_maps(t, [a, b])
        lhs = d_a.compose(d_b)
        terms = {}
        for c in mi_range(tuple(x + y for x, y in zip(a, b))):
            if any(v < max(x, y) for v, x, y in zip(c, a, b)):
                continue
            if c not in t.index:
                continue
            coeff = 1
            for v, x, y in zip(c, a, b):
                coeff = coeff * comb_mod(v, x, p) * comb_mod(x, x + y - v, p) % p
            if coeff:
                terms[c] = coeff
        rhs = SparseMap.combine(list(terms.values()), divided_power_maps(t, terms)) \
            if terms else SparseMap(p, t.size, [], [], [])
        pairs += 1
        if lhs != rhs:
            witnesses.append({"kind": "product-rule", "alpha": list(a),
                              "beta": list(b)})
    for _ in range(samples):
        g = sample_element(model, rng)
        emb = group_embed(t, g)
        alpha = t.basis[rng.below(t.size)]
        lam = multi_binom_mod_p(g.coords, alpha, p, model.precision)
        eigen += 1
        diff = divided_power(t, alpha, emb) - emb.scale(lam)
        # the dropped tail of embed(g) re-enters below the cutoff under
        # del^(alpha); equality holds mod F at the alpha-shifted cutoff
        if not ge_provable(diff.valuation(), t.cutoff - t.weight(alpha)):
            witnesses.append({"kind": "eigen", "alpha": list(alpha),
                              "element": list(g.coords)})
    alphas = [a for a in t.basis if any(a)]
    for a, report in zip(alphas, operator_degrees(t, divided_power_maps(t, alphas))):
        if not ge_provable(report.value(), -t.weight(a)):
            witnesses.append({"kind": "degree", "alpha": list(a),
                              "value": format_val(report.value())})
    status = "pass" if not witnesses else "fail"
    return status, {"pairs": pairs, "eigen": eigen, "degrees": len(alphas)}, witnesses


def idempotents_reference(ctx, params: dict, stream: int) -> tuple:
    """(status, metrics, witnesses) of the idempotents task, one coset and
    one sample at a time: per coset one composition and one comparison of
    maps, per (sample, coset) one apply and one `Val` comparison."""
    t, model = ctx.trunc, ctx.model
    p = model.p
    directions = params["directions"]
    H = subgroup_from_exponents(model, directions)
    mask = [i for i, n in enumerate(directions) if n == 1]
    samples = params.get("samples", 20)
    witnesses = []
    idems = [(nu, coset_idempotent(t, H, nu))
             for nu in mi_range((p - 1,) * len(mask))]
    # operators are compared as canonical sparse maps
    for nu, e in idems:
        if e.compose(e) != e:
            witnesses.append({"kind": "idempotent", "nu": list(nu)})
    if SparseMap.combine([1] * len(idems), [e for _, e in idems]) != \
            SparseMap.identity(p, t.size):
        witnesses.append({"kind": "partition-of-unity"})
    rng = Pcg32(ctx.seed, stream=stream)
    actions = 0
    # the coset projection has degree -(p-1)*omega_i per masked direction,
    # so on truncated embeds the indicator action holds below a shifted cutoff
    bound = t.cutoff - (p - 1) * sum(t.omega[i] for i in mask)
    for _ in range(samples):
        g = sample_element(model, rng)
        emb = group_embed(t, g)
        resid = tuple(c % p for i, c in enumerate(g.coords) if i in mask)
        for nu, e in idems:
            expect = emb if nu == resid else t.zero()
            actions += 1
            diff = t.from_vector(e.apply(emb.vector())) - expect
            if not ge_provable(diff.valuation(), bound):
                witnesses.append({"kind": "indicator", "nu": list(nu),
                                  "element": list(g.coords)})
    status = "pass" if not witnesses else "fail"
    return status, {"cosets": len(idems), "actions": actions}, witnesses
