"""Reference computations made apart from iwacalc.

Nothing here imports the program.  Series are plain dicts from exponent
tuples to coefficients in [1, p); vectors are numpy rows whose columns are
labelled by a list of exponent tuples.  Binomials come from math.comb,
products from the closed-form group law or from polynomial multiplication,
and ranks from the elimination below.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Sequence

import numpy as np

Monomial = tuple[int, ...]


def monomials_below(omega: Sequence[int], W: int) -> set[Monomial]:
    """Every exponent tuple a with <a, omega> < W (integral omega, e = 1)."""
    bounds = [range((W - 1) // w + 1) for w in omega]
    return {a for a in product(*bounds)
            if sum(x * w for x, w in zip(a, omega)) < W}


# -- Heisenberg group in coordinates of the second kind ----------------------

def heisenberg_mul(x: Sequence[int], y: Sequence[int], p: int, M: int) -> tuple:
    """(a,b,c)(a',b',c') = (a+a', b+b', c+c'-p*a'*b) mod p^M.

    With g1 = 1 + p E12, g2 = 1 + p E23, g3 = 1 + p E13, the element
    g1^a g2^b g3^c is the matrix with entries pa, pb and p^2 ab + pc; the
    law follows by multiplying two such matrices."""
    a, b, c = x
    a2, b2, c2 = y
    m = p ** M
    return ((a + a2) % m, (b + b2) % m, (c + c2 - p * a2 * b) % m)


def embed_sum(terms: Iterable[tuple[int, Sequence[int]]], labels: Sequence[Monomial],
              p: int, M: int, chunk: int = 2048) -> dict:
    """sum of c * g^lam over (c, lam) pairs, by tables of C(m, k) mod p for
    every residue m mod p^M; worked in chunks to keep memory small."""
    terms = list(terms)
    if not terms:
        return {}
    exps = np.array(labels, dtype=np.int64)              # (labels, d)
    top = int(exps.max()) + 1
    table = np.array([[math.comb(m, k) % p for k in range(top)]
                      for m in range(p ** M)], dtype=np.int64)
    acc = np.zeros(len(labels), dtype=np.int64)
    for start in range(0, len(terms), chunk):
        part = terms[start:start + chunk]
        coeff = np.array([c % p for c, _ in part], dtype=np.int64)
        coords = np.array([lam for _, lam in part], dtype=np.int64)
        rows = np.ones((len(part), len(labels)), dtype=np.int64)
        for i in range(exps.shape[1]):
            rows = rows * table[coords[:, i]][:, exps[:, i]] % p
        acc = (acc + coeff @ rows) % p
    return {a: int(v) for a, v in zip(labels, acc) if v}


# -- commutative polynomials --------------------------------------------------

def poly_mul(x: dict, y: dict, p: int, keep: set) -> dict:
    """Product in F_p[b_1..b_d], keeping only monomials in `keep`."""
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            key = tuple(u + v for u, v in zip(a, b))
            if key in keep:
                out[key] = (out.get(key, 0) + ca * cb) % p
    return {a: v for a, v in out.items() if v}


def to_vector(x: dict, index: dict) -> np.ndarray:
    out = np.zeros(len(index), dtype=np.int64)
    for a, c in x.items():
        out[index[a]] = c
    return out


# -- F_p elimination ----------------------------------------------------------

def rank_mod_p(rows: np.ndarray, p: int) -> int:
    """Rank over F_p by Gaussian elimination (rows are copied)."""
    a = np.array(rows, dtype=np.int64) % p
    a = a[a.any(axis=1)]
    r = 0
    nrows, ncols = a.shape if a.ndim == 2 else (0, 0)
    for c in range(ncols):
        if r == nrows:
            break
        hits = np.flatnonzero(a[r:, c])
        if not hits.size:
            continue
        k = r + int(hits[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        below = r + 1 + np.flatnonzero(a[r + 1:, c])
        if below.size:
            a[below, c:] = (a[below, c:]
                            - np.outer(a[below, c], a[r, c:])) % p
        r += 1
    return r


def rref_problems(rows: np.ndarray, pivots: Sequence[int], p: int) -> list[str]:
    """Why `rows` is not the reduced echelon form with these pivots, if so."""
    rows = np.asarray(rows)
    out = []
    if rows.ndim != 2 or rows.shape[0] != len(pivots):
        return [f"{len(pivots)} pivots for {rows.shape[0]} rows"]
    if rows.size and (rows.min() < 0 or rows.max() >= p):
        out.append("entries outside [0, p)")
    if list(pivots) != sorted(set(pivots)):
        out.append("pivot columns are not strictly increasing")
    for k, (row, c) in enumerate(zip(rows, pivots)):
        nz = np.flatnonzero(row)
        if not nz.size or nz[0] != c or row[c] != 1:
            out.append(f"row {k} does not lead with 1 in column {c}")
            break
        col = rows[:, c]
        if np.count_nonzero(col) != 1:
            out.append(f"pivot column {c} is not a unit column")
            break
    return out


def residual(vectors: np.ndarray, rows: np.ndarray, pivots: Sequence[int],
             p: int) -> np.ndarray:
    """Residual of each vector against reduced echelon rows.

    The products are taken in float64, which is exact while
    len(pivots) * (p-1)^2 < 2^53."""
    v = np.asarray(vectors, dtype=np.int64) % p
    if not len(pivots):
        return v
    coeff = v[:, list(pivots)].astype(np.float64)
    proj = np.rint(coeff @ np.asarray(rows, dtype=np.float64)).astype(np.int64)
    return (v - proj) % p
