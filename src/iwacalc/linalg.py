"""Linear algebra over F_p: one sparse elimination, `reduce_sparse`, and
the incremental echelon `RowSpace` built on it.

Rows and vectors are dicts {column: coefficient} in Python ints, so the
arithmetic is exact for any p.  A span is grown only by a `RowSpace`;
`rref` feeds it the rows of a matrix.  Its `matrix()` is the reduced row
echelon basis as an int64 array, which is unique, so span comparisons are
plain array comparisons.  The residual of a vector against such a basis,
held as sparse rows, is `reduce_sparse` again.
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


def reduce_sparse(vec: dict, rows: dict, p: int, stop: bool = False) -> dict:
    """vec less the multiples of rows that clear it at their pivots, without
    zero entries; with stop, only up to the first column that no row clears.

    rows maps each pivot to its row {column: coefficient}, which is 1 at the
    pivot and 0 before it.  The columns are cleared in increasing order, a
    heap giving the next one, so each step touches only the row it
    subtracts.  Against a fully reduced basis (each row 0 at every other
    pivot) the result is the unique residual, zero at the pivots.
    """
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


class RowSpace:
    """Echelon basis of a growing span in F_p^ncols, held as sparse rows.

    A row is a dict {column: coefficient} with 1 at its pivot, its least
    column.  A new vector is reduced by `reduce_sparse` only up to its
    pivot.  `matrix()` back-substitutes once to the reduced row echelon
    form, which does not depend on the order of the adds.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}  # pivot -> row
        self.dim = 0

    def add(self, vec: dict) -> bool:
        """Insert {column: coefficient} into the span; True iff it grew."""
        v = reduce_sparse(vec, self._rows, self.p, stop=True)
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
            done[c] = reduce_sparse(self._rows[c], done, self.p)
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
