"""Dense linear algebra over F_p.

Everything here is exact integer arithmetic on numpy int64 arrays reduced
mod p after each operation.  A span is held as its reduced row echelon
basis, which is unique, so span comparisons are plain array comparisons.

Every elimination goes through one residual kernel, `reduce_block`: against
a fully reduced basis the residual of v is v - sum_k v[c_k] R_k, computed
for a block of vectors at once.  A block is reduced only on the columns
where the basis rows it uses are nonzero off their pivots; one row, the
case `reduce_against` and every `RowSpace.add` take, is reduced on all
columns, which is cheaper than finding those.  `RowSpace` keeps a growing
span fully reduced with it, and `rref` is a `RowSpace` fed the rows of a
matrix.
"""

from __future__ import annotations

import numpy as np


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).
    A 1-D input is one row."""
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        a = a.reshape(1, -1)
    space = RowSpace(p, a.shape[1])
    for row in a:
        space.add(row)
    return space.matrix(), space.pivots


def reduce_block(rows: np.ndarray, pivots, block, p: int) -> np.ndarray:
    """Residual of each row of block after elimination against a fully
    reduced rref basis (rows[k] is 1 at pivots[k] and 0 at every other pivot).

    The residual of v is v - sum_k v[pivots[k]] * rows[k].  It is zero at the
    pivots, so the product is formed only for the basis rows some v needs.
    For a block of rows it is also formed only on the columns where one of
    those rows is nonzero off its pivot; a monomial basis has no such
    columns.  For one row that search would cost as much as the product it
    saves, so the product covers every column.  The basis rows are taken in
    chunks small enough that no int64 sum of products of residues reaches
    2^63, so the result is exact whenever (p - 1)^2 + p < 2^63.
    """
    out = np.asarray(block, dtype=np.int64) % p
    if not len(pivots):
        return out
    pivots = np.asarray(pivots, dtype=np.intp)
    step = max(1, ((1 << 63) - p) // (p - 1) ** 2)
    if out.shape[0] == 1:
        coeffs = out[0, pivots]
        used = coeffs.nonzero()[0]
        for lo in range(0, used.size, step):
            part = used[lo:lo + step]
            out = (out - coeffs[part] @ rows[part]) % p
        return out
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
        nz = v.nonzero()[0]
        if not nz.size:
            return False
        c = int(nz[0])
        if v[c] != 1:
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
    final, _ = rref(reduced[hits][:, np.argsort(order)], p)
    return final
