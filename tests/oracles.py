"""Reference routes the tests compare the library's kernels against.

None of this is used by `iwacalc` itself.  `OperatorMatrix` is the dense
form of an operator on a truncation's monomial space (columns = images of
basis monomials), so composing and comparing operators is plain linear
algebra; it is built on request and never cached.  `mul_reference`
multiplies series through the group, every pair of group elements of the
two expansions.  `dense` scatters a `SparseMap` into its matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from iwacalc.groups import Automorphism
from iwacalc.linalg import mat_pow
from iwacalc.operators import divided_power_map
from iwacalc.padic import MultiIndex
from iwacalc.series import (
    SparseMap, TruncatedSeries, TruncationSpec, _combine_rows, aut_images_table,
)


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
    """The size x size matrix of the map (column j = image of b^j).  Each
    (target, source) pair is written once, so a map with repeated pairs
    needs `apply` instead."""
    mat = np.zeros((m.size, m.size), dtype=np.int64)
    counts = np.diff(np.append(m.starts, m.src.size))
    mat[np.repeat(m.targets, counts), m.src] = m.coef
    return mat


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


def map_matrix(trunc: TruncationSpec, m: SparseMap) -> OperatorMatrix:
    """The dense operator of a sparse map on the truncation."""
    return OperatorMatrix(trunc, dense(m))


def sparse_of(op: OperatorMatrix) -> SparseMap:
    """A dense operator as a sparse map, one entry per nonzero entry."""
    tgt, src = np.nonzero(op.mat % op.trunc.model.p)
    return SparseMap(op.trunc.model.p, op.trunc.size, tgt, src,
                     op.mat[tgt, src] % op.trunc.model.p)
