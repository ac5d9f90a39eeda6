"""Dense linear algebra over F_p.

Everything here is exact integer arithmetic on numpy int64 arrays reduced
mod p after each operation.  Row reduction always scans columns left to
right and picks the first usable pivot row, so the reduced form of a row
space is canonical and span comparisons are plain array comparisons.
"""

from __future__ import annotations

import bisect

import numpy as np


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def mat_pow(a: np.ndarray, k: int, p: int) -> np.ndarray:
    if k < 0:
        raise ValueError("negative matrix power")
    out = np.eye(a.shape[0], dtype=np.int64)
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


def reduce_against(rows: np.ndarray, pivots: list[int], vec, p: int) -> np.ndarray:
    """Residual of vec after elimination against an rref basis."""
    v = np.array(vec, dtype=np.int64) % p
    for row, c in zip(rows, pivots):
        if v[c]:
            v = (v - v[c] * row) % p
    return v


class RowSpace:
    """Incrementally maintained rref basis of a growing span.

    Rows are kept fully reduced with pivots in increasing column order, so
    `matrix()` is the canonical representative of the span regardless of the
    insertion order.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def residual(self, vec) -> np.ndarray:
        v = np.array(vec, dtype=np.int64) % self.p
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                v = (v - v[c] * row) % self.p
        return v

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
        for i, row in enumerate(self.rows):
            if row[c]:
                self.rows[i] = (row - row[c] * v) % self.p
        k = bisect.bisect_left(self.pivots, c)
        self.rows.insert(k, v)
        self.pivots.insert(k, c)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.ncols), dtype=np.int64)
        return np.array(self.rows, dtype=np.int64)


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
