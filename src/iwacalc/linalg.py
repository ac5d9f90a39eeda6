"""Linear algebra over F_p: one incremental sparse echelon, `RowSpace`,
and one block residual kernel, `reduce_block`.

A span is grown only by a `RowSpace`, whose rows are dicts in Python ints,
so it is exact for any p; `rref` feeds it the rows of a matrix.  Its
`matrix()` is the reduced row echelon basis as an int64 array, which is
unique, so span comparisons are plain array comparisons.  `reduce_block`
reduces a block of dense vectors against such a basis at once.
"""

from __future__ import annotations

import heapq

import numpy as np


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).
    A 1-D input is one row."""
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        a = a.reshape(1, -1)
    space = RowSpace(p, a.shape[1])
    for row in a:
        space.add({int(c): int(row[c]) for c in np.flatnonzero(row)})
    return space.matrix(), space.pivots


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


class RowSpace:
    """Echelon basis of a growing span in F_p^ncols, held as sparse rows.

    A row is a dict {column: coefficient} with 1 at its pivot, its least
    column.  A vector is reduced in increasing column order, a heap giving
    the next column, so each step touches only the row it subtracts; a new
    row is reduced only up to its pivot.  `matrix()` back-substitutes once
    to the reduced row echelon form, which does not depend on the order of
    the adds.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}  # pivot -> row
        self.dim = 0

    def _reduce(self, vec: dict, rows: dict, stop: bool) -> dict:
        """vec less the multiples of rows that clear it at their pivots; with
        stop, only up to the first column that no row clears."""
        p = self.p
        v = {c: x % p for c, x in vec.items() if x % p}
        heap = list(v)
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            x, row = v.get(c), rows.get(c)
            if x is None:
                continue  # cancelled, or a repeated heap entry
            if row is None:
                if stop:
                    break
                continue
            for k, y in row.items():
                z = (v.get(k, 0) - x * y) % p
                if not z:
                    v.pop(k, None)
                    continue
                if k not in v:
                    heapq.heappush(heap, k)
                v[k] = z
        return v

    def add(self, vec: dict) -> bool:
        """Insert {column: coefficient} into the span; True iff it grew."""
        v = self._reduce(vec, self._rows, stop=True)
        if not v:
            return False
        c = min(v)
        inv = pow(v[c], -1, self.p)
        self._rows[c] = {k: x * inv % self.p for k, x in v.items()}
        self.dim += 1
        return True

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def matrix(self) -> np.ndarray:
        """The reduced row echelon basis, rows sorted by pivot."""
        done: dict[int, dict[int, int]] = {}
        # a row meets only rows of larger pivots, which are reduced first
        for c in sorted(self._rows, reverse=True):
            done[c] = self._reduce(self._rows[c], done, stop=False)
        mat = np.zeros((len(done), self.ncols), dtype=np.int64)
        for i, c in enumerate(sorted(done)):
            mat[i, list(done[c])] = list(done[c].values())
        return mat


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
