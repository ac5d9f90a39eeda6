"""Linear algebra over F_p on int64 entry arrays: one residual kernel,
`residual`, and the growing span `RowSpace` built on it.

Blocks of vectors pass between layers as entry arrays (row, column,
coefficient), whose repeats `sum_entries` sums mod p, and a linear map is a
`SparseMap`, its entries sorted by source: it maps a block through the
offsets of its sources, where the entries of each source start, kept from
its first apply (row-offset or CSR storage).  A span is its reduced row
echelon basis R, a `SparseMap` from rows to columns, with its pivots; every
reduction against it, also while a `RowSpace` grows it, is the residual
B - B[:, pivots]·R, one gather through R.  A `RowSpace` takes a block a
lead at a time: a pass stores the first row of each distinct lead and
reduces the others against them, so its elimination never sees two rows
with one lead.  A product of two residues
must fit in int64, so a `RowSpace` refuses p with (p - 1)^2 >= 2^63;
`series.TruncationSpec` bounds size·(p - 1)^2.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .padic import power


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


def sum_entries(rows: np.ndarray, cols: np.ndarray, coefs: np.ndarray, p: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (row, column, coefficient) with repeats summed mod p and
    zeros dropped, sorted by row, then column."""
    width = int(cols.max()) + 1 if cols.size else 1
    keys = rows * width + cols
    order = keys.argsort()
    first = _bounds(keys[order])[:-1]
    sums = np.add.reduceat(coefs[order], first) % p if first.size else coefs[:0]
    keys = keys[order[first[sums != 0]]]
    return keys // width, keys % width, sums[sums != 0]


def _bounds(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts, and its end."""
    edge = np.empty(keys.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    return edge.nonzero()[0]


def _runs(lo: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs lo[k], ..., lo[k] + n[k] - 1 laid end to end, as (at, pos):
    item i is position pos[i], in run at[i]."""
    at = np.arange(n.size).repeat(n)
    return at, np.arange(at.size) + (lo + n - n.cumsum()).repeat(n)


class SparseMap:
    """A sparse F_p-linear map into `size` coordinates, as int64 arrays.

    Entry n adds coef[n], a residue in [0, p), times source coordinate
    src[n] to target coordinate tgt[n].  The entries are kept sorted by
    source, so the entries of one source are one slice; a pair may repeat,
    its coefficients then adding up.  The constructor copies the entries and
    sorts those that come out of (source, target) order; `_trusted` keeps
    arrays that a kernel made sorted by source.  Two kernels read them.
    `apply` maps a coefficient vector: one gather, one product mod p and
    one scatter-add.  `apply_entries` maps a block held as entries
    (row, column, coefficient) through the offsets of the sources:
    `_starts[s]` is the first entry of source s, for every s up to one past
    the last source, so the slice of column c is
    `_starts[c]:_starts[c + 1]`, two gathers.  The offsets are built on the
    first `apply_entries` and kept; no kernel changes a map's entries.
    `compose` and `combine` build new maps on `apply_entries` and
    `sum_entries`; their results are canonical, each pair once and no zero
    coefficient.  Maps are equal (`==`) when they are the same linear map."""

    __slots__ = ("p", "size", "tgt", "src", "coef", "_starts")

    def __init__(self, p: int, size: int, tgt, src, coef):
        self.p = p
        self.size = size
        # copies, so that a map made of slices does not keep their whole arrays
        tgt, src, coef = (np.array(a, dtype=np.int64) for a in (tgt, src, coef))
        key = src * size + tgt
        if (key[1:] < key[:-1]).any():
            order = key.argsort(kind="stable")
            tgt, src, coef = tgt[order], src[order], coef[order]
        self.tgt, self.src, self.coef = tgt, src, coef
        self._starts = None

    @classmethod
    def _trusted(cls, p: int, size: int, tgt, src, coef) -> "SparseMap":
        """A map on int64 entry arrays already sorted by source, kept as they
        are: no copy and no check.  `apply_entries` reads only that order,
        and its entries of one source come in the map's order."""
        out = object.__new__(cls)
        out.p, out.size, out.tgt, out.src, out.coef = p, size, tgt, src, coef
        out._starts = None
        return out

    @staticmethod
    def identity(p: int, size: int) -> "SparseMap":
        ident = np.arange(size, dtype=np.int64)
        return SparseMap(p, size, ident, ident, np.ones_like(ident))

    @staticmethod
    def combine(scalars: Sequence[int], maps: Sequence["SparseMap"]) -> "SparseMap":
        """sum_k scalars[k] * maps[k] for at least one map, canonical."""
        p, size = maps[0].p, maps[0].size
        if any(m.p != p or m.size != size for m in maps):
            raise ValueError("maps on different spaces")
        coefs = [c % p * m.coef % p for c, m in zip(scalars, maps, strict=True)]
        src, tgt, coef = sum_entries(np.concatenate([m.src for m in maps]),
                                     np.concatenate([m.tgt for m in maps]),
                                     np.concatenate(coefs), p)
        return SparseMap._trusted(p, size, tgt, src, coef)

    @staticmethod
    def stack(maps: Sequence["SparseMap"]) -> "SparseMap":
        """The maps side by side: source k*size + s of the result is source
        s of maps[k], so that one `apply_entries` applies each map to the
        columns offset into its range."""
        p, size = maps[0].p, maps[0].size
        return SparseMap._trusted(
            p, size, np.concatenate([m.tgt for m in maps]),
            np.concatenate([m.src + k * size for k, m in enumerate(maps)]),
            np.concatenate([m.coef for m in maps]))

    def compose(self, other: "SparseMap") -> "SparseMap":
        """self o other, other applied first, canonical."""
        if other.p != self.p or other.size != self.size:
            raise ValueError("maps on different spaces")
        src, tgt, coef = sum_entries(
            *self.apply_entries(other.src, other.tgt, other.coef), self.p)
        return SparseMap._trusted(self.p, self.size, tgt, src, coef)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMap):
            return NotImplemented
        return (self.p, self.size) == (other.p, other.size) and not \
            SparseMap.combine((1, -1), (self, other)).coef.size

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Image of a coefficient vector with entries in [0, p)."""
        if vec.shape != (self.size,):
            raise ValueError(f"vector of shape {vec.shape}, expected ({self.size},)")
        out = np.zeros(self.size, dtype=np.int64)
        np.add.at(out, self.tgt, vec[self.src] * self.coef % self.p)
        return out % self.p

    def apply_entries(self, rows: np.ndarray, cols: np.ndarray, coefs: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Image of the block with entries (row, column, coefficient in
        [0, p)), the columns being sources: one entry (row, target, product
        mod p) per pair of a block entry and a map entry from its column, not
        summed.  A column past the last source has no entries."""
        starts = self._starts
        if starts is None:
            # one past the last source and one more, so that a column past
            # it, read as that source, finds an empty slice
            top = int(self.src[-1]) + 2 if self.src.size else 1
            starts = self._starts = self.src.searchsorted(np.arange(top + 1))
        cols = np.minimum(cols, starts.size - 2)
        lo = starts[cols]
        at, pos = _runs(lo, starts[cols + 1] - lo)
        return rows[at], self.tgt[pos], coefs[at] * self.coef[pos] % self.p


def residual(rows: np.ndarray, cols: np.ndarray, coefs: np.ndarray,
             basis: SparseMap, pivots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B - B[:, pivots]·R for the block B with entries (row, column,
    coefficient), repeats summed, and the basis R whose source k is a row
    that is 1 at pivots[k]: its entries sorted by row, then column, with
    coefficients in [1, p).  Where R is also 0 at every other pivot, this is
    the unique residual of each row of B, zero at the pivots."""
    p = basis.p
    position = np.full(basis.size, -1, dtype=np.int64)
    position[np.asarray(pivots, dtype=np.int64)] = np.arange(len(pivots))
    k = position[cols]
    hit = k >= 0
    more = basis.apply_entries(rows[hit], k[hit], -coefs[hit] % p)
    return sum_entries(*(np.concatenate(pair) for pair in
                         zip((rows, cols, coefs), more)), p)


class RowSpace:
    """A growing span in F_p^ncols as its reduced row echelon basis R
    (`basis`): source k is the row 1 at `pivots[k]` and 0 at every other
    pivot, the same whatever the order of the adds.  `add` takes a block B
    a lead at a time, in passes, each two `residual`s: the first pass's
    residual is r = B - B[:, P]·R.  A pass stores the heads of r, the first
    row of each distinct lead, as rows N with new pivots Q (`_echelon`),
    and clears R at them, R <- R - R[:, Q]·N; the next pass's residual is
    that of the other rows of r against N.  Refuses p with
    (p - 1)^2 >= 2^63, where a product of two residues wraps in int64."""

    def __init__(self, p: int, ncols: int):
        if (p - 1) ** 2 >= 1 << 63:
            raise ValueError(f"p = {p}: (p - 1)^2 passes 2^63, so products of "
                             "residues do not fit in int64")
        self.p = p
        self.ncols = ncols
        self.basis = SparseMap(p, ncols, [], [], [])
        self._pivots = np.zeros(0, dtype=np.int64)

    @property
    def dim(self) -> int:
        return self._pivots.size

    @property
    def pivots(self) -> list[int]:
        return self._pivots.tolist()

    def add(self, rows: np.ndarray, cols: np.ndarray, coefs: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insert the rows of the block with entries (row, column, coefficient),
        repeats summed; return the entries of the rows stored, each 1 at its
        least column, a new pivot, and numbered in pivot order, so none if
        the span did not grow.

        A pass stores at least one row, the head of the least lead, so the
        passes end.  The rows left after a pass are 0 at every pivot of R
        but Q, and N is 0 at every pivot but its own, so their residual
        against N alone is their residual against the grown R: it removes
        every stored lead in one gather."""
        r = residual(rows, cols, coefs, self.basis, self._pivots)
        if not r[0].size:
            # nothing new: R, its pivots and the `basis` object stay as they are
            return r
        old = self._pivots
        while r[0].size:
            rows, cols, coefs = r
            edge = _bounds(rows)
            first = edge[:-1]
            # the first row of each lead: a stable sort keeps rows in order
            order = cols[first].argsort(kind="stable")
            head = np.zeros(first.size, dtype=bool)
            head[order[_bounds(cols[first[order]])[:-1]]] = True
            head = head.repeat(np.diff(edge))
            N, lead = self._echelon(rows[head], cols[head], coefs[head])
            self._store(N, lead)
            r = residual(rows[~head], cols[~head], coefs[~head], N, lead)
        new = np.ones(self.dim, dtype=bool)
        new[self._pivots.searchsorted(old)] = False
        R = self.basis
        mine = new[R.src]
        return (np.cumsum(new) - 1)[R.src[mine]], R.tgt[mine], R.coef[mine]

    def _store(self, N: SparseMap, lead: np.ndarray) -> None:
        """R <- R - R[:, Q]·N, with the rows N, pivots Q = `lead`, merged in."""
        R = self.basis
        at, tgt, coef = residual(R.src, R.tgt, R.coef, N, lead)
        pivots = np.sort(np.concatenate([self._pivots, lead]))
        rank = pivots.searchsorted(self._pivots)
        self.basis = SparseMap(self.p, self.ncols, np.concatenate([tgt, N.tgt]),
                               np.concatenate([rank[at], pivots.searchsorted(lead)[N.src]]),
                               np.concatenate([coef, N.coef]))
        self._pivots = pivots

    def _echelon(self, rows: np.ndarray, cols: np.ndarray, coefs: np.ndarray
                 ) -> tuple[SparseMap, np.ndarray]:
        """(N, Q) for a block of rows with distinct leads, its entries sorted
        by row, then column, with coefficients in [1, p): the reduced echelon
        basis N of its span, whose source k is 1 at Q[k].  Each row is scaled
        to 1 at its lead.  A back round is then the residual of the rows, off
        their leads, against themselves; it squares what is left at Q, so
        few rounds end it."""
        p = self.p
        edge = _bounds(rows)
        first, n = edge[:-1], np.diff(edge)
        # c^(p - 2) = 1/c for every lead coefficient c
        inverse = power(coefs[first], p - 2, np.ones_like(first), lambda a, b: a * b % p)
        lead = np.sort(cols[first])
        N = SparseMap(p, self.ncols, cols, lead.searchsorted(cols[first]).repeat(n),
                      coefs * inverse.repeat(n) % p)
        at_lead = np.zeros(self.ncols, dtype=bool)
        at_lead[lead] = True
        while True:
            off = N.tgt != lead[N.src]
            if not at_lead[N.tgt[off]].any():
                return N, lead
            at, tgt, coef = residual(N.src[off], N.tgt[off], N.coef[off], N, lead)
            N = SparseMap(p, self.ncols, np.concatenate([lead, tgt]),
                          np.concatenate([np.arange(lead.size), at]),
                          np.concatenate([np.ones_like(lead), coef]))
