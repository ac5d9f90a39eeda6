"""Dense linear algebra over F_p.

Everything here is exact integer arithmetic on numpy int64 arrays reduced
mod p after each operation.  Row reduction always scans columns left to
right and picks the first usable pivot row, so the reduced form of a row
space is canonical and span comparisons are plain array comparisons.

`rref` reduces a whole matrix.  Every other elimination goes through one
residual kernel, `reduce_block`: against a fully reduced basis the residual
of v is v - sum_k v[c_k] R_k, computed for a block of vectors at once.
`reduce_against` is its one-row case, and `RowSpace` keeps a growing span
fully reduced with it.
"""

from __future__ import annotations

import numpy as np


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


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


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
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
        a[r] = a[r] * inv_mod(a[r, c], p) % p
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
    pivots, so the product is formed only for the basis rows some v needs and
    on the columns where one of them is nonzero off its pivot; a monomial
    basis has no such columns.  Each entry sums at most `ncols` products of
    residues.
    """
    out = np.array(block, dtype=np.int64) % p
    if not len(pivots):
        return out
    pivots = np.asarray(pivots, dtype=np.intp)
    coeffs = out[:, pivots]
    used = np.flatnonzero(coeffs.any(axis=0))
    if not used.size:
        return out
    coeffs, basis = coeffs[:, used], rows[used]
    out[:, pivots[used]] = 0
    off = basis.any(axis=0)
    off[pivots] = False
    cols = np.flatnonzero(off)
    if cols.size:
        out[:, cols] = (out[:, cols] - coeffs @ basis[:, cols]) % p
    return out


def reduce_against(rows: np.ndarray, pivots, vec, p: int) -> np.ndarray:
    """Residual of one vector: the one-row case of `reduce_block`."""
    return reduce_block(rows, pivots, np.reshape(vec, (1, -1)), p)[0]


class RowSpace:
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
        return reduce_against(self._rows[:k], self._pivots[:k], vec, self.p)

    def contains(self, vec) -> bool:
        return not self.residual(vec).any()

    def add(self, vec) -> bool:
        """Insert vec into the span; True iff the dimension grew."""
        v = self.residual(vec)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = v * inv_mod(int(v[c]), self.p) % self.p
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
    out = np.zeros((len(hits), ncols), dtype=np.int64)
    inverse = np.argsort(order)
    for k, i in enumerate(hits):
        out[k] = reduced[i][inverse]
    final, _ = rref(out, p)
    return final
