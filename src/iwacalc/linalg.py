"""Linear algebra over F_p: one sparse elimination, `reduce_sparse`, and
the incremental echelon `RowSpace` built on it.

Blocks of vectors pass between layers as int64 entry arrays (row, column,
coefficient), whose repeats `sum_entries` sums mod p.  Only inside this
module are rows dicts {column: coefficient} in Python ints, exact for any
p.  A span grows only in a `RowSpace`, a block at a time; `reduced()`
back-substitutes once to the unique reduced row echelon basis, which a
finished span (`control.IdealSpan`) keeps sparse.
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


def sum_entries(rows: np.ndarray, cols: np.ndarray, coefs: np.ndarray, p: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (row, column, coefficient) with repeats summed mod p and
    zeros dropped, sorted by row, then column."""
    width = int(cols.max()) + 1 if cols.size else 1
    keys, at = np.unique(rows * width + cols, return_inverse=True)
    sums = np.zeros(keys.size, dtype=np.int64)
    np.add.at(sums, at, coefs)
    live = sums % p != 0
    return keys[live] // width, keys[live] % width, sums[live] % p


def _entries(rows: list[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dict rows as int64 entry arrays, rows numbered in list order."""
    at = np.repeat(np.arange(len(rows), dtype=np.int64), [len(r) for r in rows])
    cols = np.array([c for r in rows for c in r], dtype=np.int64)
    coefs = np.array([x for r in rows for x in r.values()], dtype=np.int64)
    return at, cols, coefs


class RowSpace:
    """Echelon basis of a growing span in F_p^ncols, held as sparse rows.

    A row is a dict {column: coefficient} with 1 at its pivot, its least
    column.  `add` reduces each new vector by `reduce_sparse` only up to its
    pivot.  `reduced()` back-substitutes once to the reduced row echelon
    form, which does not depend on the order of the adds.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}  # pivot -> row
        self.dim = 0

    def add(self, rows: np.ndarray, cols: np.ndarray, coefs: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insert the rows of the block with entries (row, column, coefficient),
        repeats summed, in row order; return the entries of the rows stored,
        numbered in the order stored, so none if the span did not grow."""
        block: dict[int, dict[int, int]] = {}
        for k, c, x in zip(rows.tolist(), cols.tolist(), coefs.tolist()):
            v = block.setdefault(k, {})
            v[c] = v.get(c, 0) + x
        stored = []
        for k in sorted(block):
            v = reduce_sparse(block[k], self._rows, self.p, stop=True)
            if v:
                c = min(v)
                inv = pow(v[c], -1, self.p)
                row = self._rows[c] = {j: y * inv % self.p for j, y in v.items()}
                stored.append(row)
        self.dim += len(stored)
        return _entries(stored)

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
        return _entries([done[c] for c in sorted(done)])
