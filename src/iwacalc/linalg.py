"""Linear algebra over F_p: one sparse elimination, `reduce_sparse`, and
the incremental echelon `RowSpace` built on it.

Rows and vectors are dicts {column: coefficient} in Python ints, so the
arithmetic is exact for any p.  A span is grown only by a `RowSpace`, one
vector at a time.  `reduced()` back-substitutes once to the reduced row
echelon basis, which is unique, as sparse entries; a finished span
(`control.IdealSpan`) keeps them sparse and takes residuals against them
as block products, with no further elimination.  No dense matrix is
formed here: `integer_array` only checks that array input holds integers.
"""

from __future__ import annotations

import heapq

import numpy as np


def is_integer(x) -> bool:
    """Is x a Python or numpy integer?  A bool is not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def integer_array(values) -> np.ndarray:
    """`np.asarray(values)`, which must hold integers: floats, complex
    numbers and bools (also inside an object array) raise ValueError rather
    than be cut down to integers.  An empty array holds no values and
    passes."""
    a = np.asarray(values)
    if a.size and not (a.dtype.kind in "iu" or a.dtype.kind == "O" and all(
            map(is_integer, a.flat))):
        raise ValueError(f"expected an array of integers, got dtype {a.dtype}")
    return a


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
    pivot.  `reduced()` back-substitutes once to the reduced row echelon
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

    def reduced(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The reduced row echelon basis as int64 entry arrays (row, column,
        coefficient), rows numbered in pivot order."""
        done: dict[int, dict[int, int]] = {}
        # a row meets only rows of larger pivots, which are reduced first
        for c in sorted(self._rows, reverse=True):
            done[c] = reduce_sparse(self._rows[c], done, self.p)
        rows = [done[c] for c in sorted(done)]
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        at = np.repeat(np.arange(len(rows)), lengths)
        cols = np.array([c for r in rows for c in r], dtype=np.int64)
        coefs = np.array([x for r in rows for x in r.values()], dtype=np.int64)
        return at, cols, coefs
