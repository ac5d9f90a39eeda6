"""Truncated elements of the completed group algebra k[[G]], k = F_p.

Fix a model with basis g_1..g_d and put b_i = g_i - 1.  The monomials
b^a = b_1^{a_1} ... b_d^{a_d} (normal order) with weight <a, omega> below
the cutoff W/e form a k-basis of k[[G]] modulo the tail ideal
F_W = {x : w(x) >= W/e}; a TruncatedSeries is a coefficient map on that
basis.  All ring operations are exact mod F_W.

Every operator that comes from a map on G is built by one kernel on entry
arrays, `TruncationSpec._group_columns`: it expands a block of monomials
b^a = sum_{c <= a} (-1)^{|a - c|} C(a, c) g^c (`padic.signed_binomials`),
sends each distinct g^c through the map on integer coordinates, expands
the images by the Mahler formula g^m = sum_b C(m, b) b^b into entries and
sums the terms of each monomial (`linalg.sum_entries`).  By Lucas's theorem
C(m, b) mod p depends only on m mod p^need, p^need above every exponent,
and is 0 unless each base-p digit of b_i is at most that of m_i: an image
expands over the nonzero binomials of one row per residue.  The
maps g^c -> g^c g_j give x -> x*b_j (`TruncationSpec.generator_maps`, all
letters in one call), whose products already in normal order, all of them
on abelian models, are one shift of exponents.  They send b^a = b^h b^t, t
the letters of a after j, to b^h (b^t b_j), expanding each distinct tail t
once: b^h shifts the exponents of each term, as b^t b_j has no letter
before j.  The left maps x -> b_j*x are products (`mul_block`).
g^c -> phi(g^c) gives the ring extension of an automorphism (`aut_map`),
and g^c -> phi(g^c) g^{-c} its Mahler coefficients (in `operators`).
These `SparseMap`s and the divided powers share one cache per truncation.

Products have one kernel, `TruncationSpec._term_products`: the product of
a row of x with each term of the same row of y, for two blocks of series
held as entry arrays.  `mul_block` sums them by row, so that its row k is
the product of row k of the two blocks, and `*` is a block of one row;
`multiples` keeps them apart, one row x_k*b^c per monomial of a list, the
rows of a right ideal's block.  On abelian models it enumerates only the pairs
of terms whose summed weight stays below the cutoff: the basis ascends by
weight, so for a term b^a of x they are a prefix of y's row, found by one
`searchsorted`.  On other models x*y = sum_beta y_beta (x*b^beta), and each
x*b^beta is (x*b^beta')*b_j, where b^beta = b^beta' * b_j drops the last
letter of the normal-order word; the multiples of every row are built a
word length at a time, one apply of all the right generator maps at once,
each prefix once per row, so the rows of `multiples` share them.  The tests keep
the older route, which multiplies every pair of group elements of the two
expansions (`mul_reference` in tests/oracles.py), as the oracle that the
kernel is compared with.

A valuation read from a block is an integer in units of 1/e
(`TruncationSpec.valuations`): the weight of the row's first column, or W
for a zero row.  `TruncationSpec.val` turns such an integer into a `Val`,
with AtLeast(f/e) for f >= W.

Every accumulation sums at most `size` products of residues before a
reduction mod p, so `TruncationSpec` rejects primes with
size * (p - 1)^2 >= 2^63 and int64 arithmetic stays exact.

The empty series has valuation marker AtLeast(W/e), consistent with the
rest of the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from .groups import INT64_LIMIT, Automorphism, GroupElement, GroupModel, ModelError
from .linalg import SparseMap, _runs, integer_array, sum_entries
from .padic import (
    AtLeast, MultiIndex, PrecisionError, Val, format_poly, lucas_rows, mi_weight,
    poly_combine, poly_frobenius, power, signed_binomials, signed_rows,
)


class TruncationSpec:
    """Monomial basis below the cutoff plus the caches shared by all series."""

    def __init__(self, model: GroupModel, W: int):
        if W < 1:
            raise ValueError("cutoff W must be a positive integer (units of 1/e)")
        self.model = model
        self.W = W
        self.e = model.omega.e
        self.precision = model.precision
        self.cutoff = Fraction(W, self.e)
        self.omega = model.omega.values
        # omega lies in (1/e)Z, so e * omega is integral and the cutoff is W
        self._int_omega = np.array(model.omega.units, dtype=np.int64)
        # b_i^k lies below the cutoff iff k * e * omega_i < W; Python ints, so
        # that a huge W is refused before any array is grown
        self.max_exponents = tuple((W - 1) // u for u in model.omega.units)
        max_exp = max(self.max_exponents)
        # p^need, the least power of p above every exponent (see _lucas_table)
        self._lucas_modulus, need = model.p, 1
        while self._lucas_modulus <= max_exp:
            self._lucas_modulus, need = self._lucas_modulus * model.p, need + 1
        if need > model.precision:
            raise PrecisionError(
                f"cutoff W={W} uses exponents up to {max_exp}; coordinate precision "
                f"M={model.precision} is too small (need M >= {need})")
        # grow the exponent rows one coordinate at a time below the cutoff: a
        # row of weight s (in units of 1/e) takes k = 0..(W - 1 - s) // w next
        weights, exps = np.zeros(1, dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
        for w in model.omega.units:
            count = (W - 1 - weights) // w + 1
            k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
            weights = np.repeat(weights, count) + k * w
            exps = np.column_stack((np.repeat(exps, count, axis=0), k))
        # ascending by weight, then by exponents
        order = np.lexsort(np.vstack((exps[:, ::-1].T, weights)))
        self._exponents = exps[order]
        # e * weight of each basis monomial, ascending
        self._int_weights = weights[order]
        self.basis: list[MultiIndex] = list(map(tuple, self._exponents.tolist()))
        self.index = dict(zip(self.basis, range(len(self.basis))))
        self.size = len(self.basis)
        if self.size * (model.p - 1) ** 2 >= INT64_LIMIT:
            raise ModelError(
                f"p = {model.p} is too large for {self.size} monomials: exact int64 "
                f"sums need size * (p - 1)^2 < 2^63")
        # mixed-radix codes of the exponents, for vectorised index lookup
        self._radix = np.cumprod([1] + [m + 1 for m in self.max_exponents[:-1]],
                                 dtype=np.int64)
        self._codes = self._exponents @ self._radix
        self._code_order = np.argsort(self._codes)
        self._sorted_codes = self._codes[self._code_order]
        self._op_cache: dict = {}  # every SparseMap, see `cached_maps`

    # -- basic structure ----------------------------------------------------

    def weight(self, a: MultiIndex) -> Fraction:
        i = self.index.get(a)
        if i is None:
            return mi_weight(a, self.omega)
        return Fraction(int(self._int_weights[i]), self.e)

    def _indices_of(self, codes: np.ndarray) -> np.ndarray:
        """Basis indices of mixed-radix codes (exponent rows @ `_radix`), each
        the code of a basis monomial."""
        return self._code_order[np.searchsorted(self._sorted_codes, codes)]

    def val(self, f: int) -> Val:
        """The valuation f/e of an integer in units of 1/e; from W on only
        AtLeast(f/e) is known."""
        f = Fraction(int(f), self.e)
        return f if f < self.cutoff else AtLeast(f)

    def valuations(self, block, n: int) -> np.ndarray:
        """w of each of the n rows of a block, in units of 1/e: the weight of
        the row's first column, or W for a zero row."""
        rows, cols, _ = block
        out = np.full(n, self.W, dtype=np.int64)
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        out[rows[first]] = self._int_weights[cols[first]]
        return out

    def block(self, series: Sequence["TruncatedSeries"]) -> tuple:
        """The block whose row k is series[k] (see `mul_block`)."""
        index = self.index
        terms = [(k, index[a], c) for k, x in enumerate(series) for a, c in x.coeffs.items()]
        rows, cols, coefs = np.array(terms, dtype=np.int64).reshape(-1, 3).T
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], coefs[order]

    def _series(self, cols, coefs) -> "TruncatedSeries":
        """The series with coefficients `coefs`, residues in [1, p), at the
        distinct basis columns `cols`."""
        return TruncatedSeries._trusted(self, {
            self.basis[c]: v for c, v in zip(cols.tolist(), coefs.tolist())})

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def one(self) -> "TruncatedSeries":
        return self.monomial((0,) * self.model.rank)

    def monomial(self, a: Sequence[int], c: int = 1) -> "TruncatedSeries":
        return TruncatedSeries(self, {tuple(a): c})

    def from_dict(self, coeffs: Mapping[MultiIndex, int]) -> "TruncatedSeries":
        return TruncatedSeries(self, dict(coeffs))

    def from_vector(self, vec) -> "TruncatedSeries":
        vec = integer_array(vec)
        if vec.shape != (self.size,):
            raise ValueError(f"vector of shape {vec.shape}, expected ({self.size},)")
        vec = vec % self.model.p
        return TruncatedSeries._trusted(
            self, {self.basis[i]: int(vec[i]) for i in np.flatnonzero(vec)})

    # -- expansion and embedding --------------------------------------------

    def _signed_binomials(self, exps) -> tuple:
        """`padic.signed_binomials` of the exponent rows `exps`: the group
        expansions of their b^a, from the rows of `_pascal` with the signs
        (-1)^(a-c).  The table, and its flat form, grow for a row beyond it;
        the divided powers' tables of it are then built again on next use."""
        p = self.model.p
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, self.model.rank)
        top = int(exps.max(initial=0))
        if top >= len(self._pascal):
            self._pascal = lucas_rows(np.arange(top + 1), top, p)
            self._signed_rows = signed_rows(self._pascal, p)
            vars(self).pop("_divided_power_tables", None)
        return signed_binomials(self._signed_rows, exps, p)

    @cached_property
    def _signed_rows(self) -> tuple:
        """`padic.signed_rows` of `_pascal`: flattened once per table."""
        return signed_rows(self._pascal, self.model.p)

    @cached_property
    def _divided_power_tables(self) -> tuple:
        """(pascal, flags, rows), what `operators._divided_powers` reads of
        `_pascal`, built once per table: the table itself; flags[i], whose
        row a flags the basis monomials b^B with C(B_i, a) nonzero mod p;
        and `_signed_rows` without the signs, the expansions of (1 + b)^a."""
        pascal = self._pascal
        nonzero = pascal.T != 0
        a, c = np.nonzero(pascal)
        return (pascal, [nonzero[:, col] for col in self._exponents.T],
                (np.searchsorted(a, np.arange(len(pascal) + 1)), c, pascal[a, c]))

    def _lucas_table(self, coords) -> tuple:
        """(table, at): row at[k, i] of `table` is C(lam_i, n) mod p for n up
        to the largest exponent, lam the k-th integer coordinate vector of
        `coords`; by Lucas's theorem it depends only on lam_i mod p^need, so
        there is one row per distinct residue (`padic.lucas_rows`)."""
        lams = np.asarray(coords, dtype=np.int64).reshape(-1, self.model.rank)
        residues, at = np.unique(lams % self._lucas_modulus, return_inverse=True)
        table = lucas_rows(residues, max(self.max_exponents), self.model.p)
        return table, at.reshape(lams.shape)

    def _embed_rows(self, coords) -> np.ndarray:
        """Row k is the embedding of g^lam, lam the k-th integer coordinate
        vector of `coords`: C(lam, b) mod p for every basis monomial b, each
        coordinate one gather from `_lucas_table`."""
        p = self.model.p
        table, at = self._lucas_table(coords)
        # factors are residues, so reduce only when the next product could wrap
        out, bound = np.ones((len(at), self.size), dtype=np.int64), 1
        for i, col in enumerate(self._exponents.T):
            if bound * (p - 1) >= INT64_LIMIT:
                out %= p
                bound = p - 1
            out *= table[:, col][at[:, i]]
            bound *= p - 1
        out %= p
        return out

    def _embed_entries(self, coords) -> tuple:
        """`_embed_rows` as entries (k, basis index of b, C(lam, b) mod p),
        the nonzero ones, sorted by k: the product of the C(lam_i, b_i)
        grows a coordinate at a time over the nonzero entries of lam_i's
        `_lucas_table` row, below the cutoff as `__init__` grows the basis."""
        p, width = self.model.p, max(self.max_exponents) + 1
        table, at = self._lucas_table(coords)
        r, a = np.nonzero(table)
        flat, values = r * width + a, table[r, a]
        row, code = np.arange(len(at)), np.zeros(len(at), dtype=np.int64)
        weight, coef = np.zeros_like(code), np.ones_like(code)
        for i, w in enumerate(self.model.omega.units):
            # the a of lam_i's row, ascending, up to (W - 1 - weight) // w
            key = at[row, i] * width
            lo = flat.searchsorted(key)
            k, pos = _runs(lo, flat.searchsorted(key + (self.W - 1 - weight) // w,
                                                 side="right") - lo)
            row, code = row[k], code[k] + a[pos] * self._radix[i]
            weight, coef = weight[k] + a[pos] * w, coef[k] * values[pos] % p
        return row, self._indices_of(code), coef

    @cached_property
    def _pascal(self) -> np.ndarray:
        """C(m, n) mod p for m, n up to one past the largest exponent, or up
        to the largest exponent row that `_signed_binomials` has read."""
        top = max(self.max_exponents) + 1
        return lucas_rows(np.arange(top + 1), top, self.model.p)

    def _group_columns(self, exps, image, start=None, labels=None) -> tuple:
        """Entries (k, column, coefficient) of the image of b^a, a the k-th
        row of `exps`, under the linear extension of a map on G, the map of
        the row's label labels[k] (default 0), sorted as `sum_entries` sorts;
        `image` sends arrays of labels and of exponents c, each (label, c)
        pair distinct, to the integer coordinates of the images of the g^c
        under the maps of those labels.  With `start`, row k keeps only its
        columns from start[k] on."""
        p = self.model.p
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, self.model.rank)
        owner, c, signs = self._signed_binomials(exps)
        labels = np.zeros(len(exps), dtype=np.int64) if labels is None else labels
        labels = labels[owner]
        # codes in the block's own radix, the label its top digit: a row past
        # the basis has exponents whose codes in `_radix` collide
        radix = np.cumprod(np.concatenate(([1], c.max(axis=0, initial=0) + 1)))
        _, first, at = np.unique(c @ radix[:-1] + labels * radix[-1],
                                 return_index=True, return_inverse=True)
        k, col, coef = self._embed_entries(image(labels[first], c[first]))
        images = SparseMap._trusted(p, self.size, col, k, coef)
        rows, cols, coefs = sum_entries(*images.apply_entries(owner, at, signs), p)
        keep = cols >= (0 if start is None else start[rows])
        return rows[keep], cols[keep], coefs[keep]

    def cached_map(self, key, build) -> "SparseMap":
        """The operator stored under `key`, from `build()` on first use."""
        hit = self._op_cache.get(key)
        if hit is None:
            hit = self._op_cache[key] = build()
        return hit

    def cached_maps(self, keys, build) -> list:
        """The operators stored under `keys`; those not stored yet come from
        one `build(missing keys)` call, which returns their maps in order."""
        new = [k for k in dict.fromkeys(keys) if k not in self._op_cache]
        if new:
            self._op_cache.update(zip(new, build(new)))
        return [self._op_cache[k] for k in keys]

    # -- generator maps -----------------------------------------------------

    def generator_maps(self, letters, side: str = "right") -> list:
        """The sparse maps x -> x*b_j (side "right") or x -> b_j*x ("left")
        for each letter j of `letters`, one of 0..d-1; those not cached yet
        come from one `_right_maps` or `_left_maps` build."""
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        for j in letters:
            if not 0 <= j < self.model.rank:
                raise ValueError(f"letter {j} is outside 0..{self.model.rank - 1}")
        build = self._right_maps if side == "right" else self._left_maps
        return self.cached_maps([(side, int(j)) for j in letters],
                                lambda keys: build([j for _, j in keys]))

    def _left_maps(self, letters: list) -> list:
        """The maps x -> b_j*x of `letters`: row k*size + a of one
        `mul_block` call is b_j*b^a, j = letters[k]."""
        size = self.size
        a, js = np.tile(np.arange(size), len(letters)), np.repeat(letters, size)
        # b_j b^a lies in F_{w(a) + omega_j}, 0 at or past the cutoff
        rows = np.flatnonzero(self._int_weights[a] + self._int_omega[js] < self.W)
        a, bj, one = a[rows], self._indices_of(self._radix[js[rows]]), np.ones_like(rows)
        r, tgt, coef = self.mul_block((rows, bj, one), (rows, a, one))
        return [SparseMap(self.model.p, size, tgt[at], r[at] % size, coef[at])
                for at in r // size == np.arange(len(letters))[:, None]]

    def _right_maps(self, letters: list) -> list:
        """The maps x -> x*b_j of `letters`, built together.

        b^a*b_j is in normal order iff a has no letter after j; then it is
        one shift of exponents, as every product is in abelian models.
        Otherwise split b^a = b^h*b^t, the tail t the letters of a after j
        and the head h the others, so that b^a*b_j = b^h*T(t) with
        T(t) = b^t*b_j.  T(t) comes from the group,
        b^t*b_j = sum_c s_c (g^c g_j - g^c) = sum_c s_c embed(g^c g_j) - b^t,
        combined only on the columns of weight w(t) + omega_j on, which the
        term -b^t does not reach.  It is built once per distinct (j, t), the
        entries of all letters from one `_group_columns` call, so a right
        map expands its tails, not whole monomials.

        Every image g^c g_j has coordinates 0 before j, so no term b^gamma
        of T(t) has a letter before j, and b^h*b^gamma = b^(h + gamma) is in
        normal order: one add of codes, 0 at weights W/e and more.  This
        holds because G_j = g_j^Z_p ... g_d^Z_p is a subgroup.  The peel of
        `groups.UnitriangularModel` reads coordinate i as the first-kind
        coordinate mu_i of what is left once g_1^l_1 ... g_(i-1)^l_(i-1) is
        divided off, and the model loads only if that leaves 1 for every
        product.  On g_(i+1)^s_(i+1) ... g_d^s_d it reads l_i = 0, so mu_i
        is 0 there for every s.  So the span of log g_j, ..., log g_d holds
        the logs of G_j, among them log(g_a^s g_b^t) for a, b >= j, and with
        it their s*t coefficient [log g_a, log g_b]/2.  It is a Lie
        subalgebra, and by the Baker-Campbell-Hausdorff formula its
        exponential G_j is closed under products.  The build checks the
        images all the same: a coordinate before j raises ModelError."""
        p, size, exps = self.model.p, self.size, self._exponents
        shifts, movers, tails, tail_at, labels = [], [], [], [], []
        for j in letters:
            # b^a b_j lies in F_{w(a) + omega_j}, 0 at or past the cutoff
            live = self._int_weights + self._int_omega[j] < self.W
            moved = live & exps[:, j + 1:].any(axis=1) & (self.model.kind != "abelian")
            shift = np.flatnonzero(live & ~moved)
            shifts.append((shift, self._indices_of(self._codes[shift] + self._radix[j])))
            a = np.flatnonzero(moved)
            distinct, at = np.unique(exps[a, j + 1:] @ self._radix[j + 1:],
                                     return_inverse=True)
            tail_at.append(at + sum(map(len, tails)))
            tails.append(self._indices_of(distinct))
            movers.append(a)
            labels.append(np.full(distinct.size, j, dtype=np.int64))
        cuts = np.cumsum([0] + [a.size for a in movers])
        tails, labels, movers, tail_at = map(np.concatenate, (tails, labels, movers, tail_at))

        # b^a b_j = b^h T(t): the terms b^gamma of each T(t), one run per
        # tail, sorted; no kernel call when no letter has movers
        start = np.searchsorted(self._int_weights,
                                self._int_weights[tails] + self._int_omega[labels])
        n, gamma, coef = np.zeros((3, 0), dtype=np.int64) if not tails.size else \
            self._group_columns(exps[tails], self._letter_image, start, labels)
        count = np.bincount(n, minlength=tails.size)
        at, pos = _runs((np.cumsum(count) - count)[tail_at], count[tail_at])
        # b^h b^gamma = b^(h + gamma), 0 at weights W/e and more
        src, row, gamma = movers[at], tails[tail_at][at], gamma[pos]
        keep = self._int_weights[src] - self._int_weights[row] + \
            self._int_weights[gamma] < self.W
        at, src, row, gamma, coef = at[keep], src[keep], row[keep], gamma[keep], coef[pos[keep]]
        tgt = self._indices_of(self._codes[src] - self._codes[row] + self._codes[gamma])
        # the movers are in letter order, and so are their entries
        bounds = np.searchsorted(at, cuts).tolist()
        return [SparseMap(p, size, np.concatenate([shifted, tgt[lo:hi]]),
                          np.concatenate([shift, src[lo:hi]]),
                          np.concatenate([np.ones(shift.size, dtype=np.int64), coef[lo:hi]]))
                for (shift, shifted), lo, hi in zip(shifts, bounds, bounds[1:])]

    def _letter_image(self, js, cs):
        """The `image` of `_group_columns` for g -> g*g_j, j the label; an
        image with a coordinate before j raises ModelError (see `_right_maps`)."""
        rank = self.model.rank
        unit, at = np.eye(rank, dtype=np.int64), np.arange(rank)
        # g^c g_j = g^(c + e_j) when c has no letter after j
        coords = cs + unit[js]
        for k in np.flatnonzero((cs * (at > js[:, None])).any(axis=1)).tolist():
            coords[k] = self.model._mul_values(cs[k].tolist(), unit[js[k]].tolist())
        bad = np.flatnonzero((coords * (at < js[:, None])).any(axis=1))
        if bad.size:
            k, j = int(bad[0]), int(js[bad[0]]) + 1
            raise ModelError(f"g^{tuple(cs[k].tolist())} * g_{j} has a nonzero coordinate "
                             f"before {j}: g_{j}, ..., g_{rank} do not span a subgroup")
        return coords

    # -- products -----------------------------------------------------------

    @cached_property
    def _words(self) -> tuple:
        """(prefix, letter, length) of each basis monomial b^a: b^a is
        b^prefix * b_letter, `letter` the last letter of the normal-order
        word of b^a and `prefix` the basis index of the rest; `length` is
        |a|.  The constant 1 is its own prefix."""
        exps = self._exponents
        letter = self.model.rank - 1 - np.argmax(exps[:, ::-1] != 0, axis=1)
        prefix = np.zeros(self.size, dtype=np.int64)
        # index 0 is the constant, the only monomial of weight 0
        prefix[1:] = self._indices_of(self._codes[1:] - self._radix[letter[1:]])
        return prefix, letter, exps.sum(axis=1)

    def mul_block(self, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row k of the result is (row k of x) * (row k of y).  Blocks are
        entries (row, column, coefficient in [1, p)) sorted by row, then
        column, with no repeats, as `linalg.sum_entries` returns them; so is
        the result."""
        term, cols, coefs = self._term_products(x, y)
        return sum_entries(y[0][term], cols, coefs, self.model.p)

    def multiples(self, x, n: int, monomials) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The block whose row k*m + i is (row k of x) * b^c, c = monomials[i]
        and m = len(monomials), for the n rows of the block x and basis
        indices `monomials` in ascending order, so ordered by weight.  x_k*b^c
        lies in F_{w(x_k) + w(c)}, so a row with w(x_k) + w(c) >= W/e is 0
        and never formed: the c of row k are a prefix of `monomials`.  One
        `_term_products` call, the kernel of `mul_block`, on the block y
        whose row k holds those b^c; its terms are the rows of the result."""
        monomials = np.asarray(monomials, dtype=np.int64)
        count = np.searchsorted(self._int_weights[monomials],
                                self.W - self.valuations(x, n))
        k, i = _runs(np.zeros(n, dtype=np.int64), count)
        term, cols, coefs = self._term_products(x, (k, monomials[i], np.ones_like(k)))
        return sum_entries(k[term] * monomials.size + i[term], cols, coefs, self.model.p)

    def _term_products(self, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries (t, column, coefficient) of the products (row r of x) *
        y_t, y_t the t-th term of y and r its row, for blocks as in
        `mul_block`: each product once, its entries not sorted."""
        p, size = self.model.p, self.size
        (xr, xc, xv), (yr, yc, yv) = x, y
        if self.model.kind == "abelian":
            # the terms b^c of y's row with w(a) + w(c) < W/e are the columns
            # below the first of weight W/e - w(a), the basis ascending by weight
            keys = yr * size + yc
            lo = np.searchsorted(keys, xr * size)
            hi = np.searchsorted(keys, xr * size + np.searchsorted(
                self._int_weights, self.W - self._int_weights[xc]))
            at, pos = _runs(lo, hi - lo)
            # exponents add, and a sum inside the basis adds its codes
            tgt = self._indices_of(self._codes[xc[at]] + self._codes[yc[pos]])
            return pos, tgt, xv[at] * yv[pos] % p
        prefix, letter, length = self._words
        # the nodes (row, b^gamma), keyed row*size + gamma, of every prefix
        # gamma of a term of y, one sorted array per word length; the prefix
        # of length 0 of row r is the node r*size, whose multiple is x's row
        ykeys, ylen = yr * size + yc, length[yc]
        n = int(max(xr.max(initial=-1), yr.max(initial=-1))) + 1
        levels, up = [np.arange(n) * size], np.zeros(0, dtype=np.int64)
        for k in range(int(ylen.max(initial=0)), 0, -1):
            # sorted and distinct; a plain np.unique would load numpy.ma
            keys = np.sort(np.concatenate([ykeys[ylen == k], up]))
            keys = keys[np.diff(keys, prepend=-1) != 0]
            levels.insert(1, keys)
            up = keys - keys % size + prefix[keys % size]
        # every right generator map in one, source j*size + a for b^a*b_j
        right = self.cached_map(("right", "all"), lambda: SparseMap.stack(
            self.generator_maps(range(self.model.rank))))

        def gather(block, at):
            # the entries of the rows `at` of a block sorted by row, row k
            # of the result being row at[k] of the block
            lo = np.searchsorted(block[0], at)
            k, pos = _runs(lo, np.searchsorted(block[0], at, side="right") - lo)
            return k, block[1][pos], block[2][pos]

        # the multiples x*b^gamma of one level, as a block with a row per node
        empty = np.zeros(0, dtype=np.int64)
        multiples, out = x, [(empty, empty, empty)]
        for k, keys in enumerate(levels):
            if k:
                col = keys % size
                node, src, coef = gather(multiples, np.searchsorted(
                    levels[k - 1], keys - col + prefix[col]))
                multiples = sum_entries(*right.apply_entries(
                    node, letter[col][node] * size + src, coef), p)
            here = np.flatnonzero(ylen == k)
            if here.size:
                at, cols, coefs = gather(multiples, np.searchsorted(keys, ykeys[here]))
                out.append((here[at], cols, yv[here][at] * coefs % p))
        return tuple(map(np.concatenate, zip(*out)))


class TruncatedSeries:
    """Coefficient map on the monomial basis; immutable by convention."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc: TruncationSpec, coeffs: Mapping[MultiIndex, int]):
        p = trunc.model.p
        clean = {}
        for a, c in coeffs.items():
            a = tuple(int(x) for x in a)
            if len(a) != trunc.model.rank or any(x < 0 for x in a):
                raise ValueError(f"bad monomial exponent {a}")
            c = int(c) % p
            if c and a in trunc.index:
                clean[a] = c
            # monomials at or beyond the cutoff are 0 mod F_W and are dropped
        self.trunc = trunc
        self.coeffs = clean

    @classmethod
    def _trusted(cls, trunc: TruncationSpec, coeffs: dict) -> "TruncatedSeries":
        """A kernel's dict of basis monomials to residues in [1, p), unchecked."""
        out = object.__new__(cls)
        out.trunc, out.coeffs = trunc, coeffs
        return out

    # -- ring structure -----------------------------------------------------

    def _check(self, other: "TruncatedSeries") -> None:
        if self.trunc is not other.trunc:
            raise ValueError("series from different truncations")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries._trusted(self.trunc, poly_combine(
            (1, 1), (self.coeffs, other.coeffs), self.trunc.model.p))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return self.scale(-1)

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries._trusted(self.trunc, poly_combine(
            (c,), (self.coeffs,), self.trunc.model.p))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        t = self.trunc
        _, cols, coefs = t.mul_block(t.block([self]), t.block([other]))
        return t._series(cols, coefs)

    def pow(self, k: int) -> "TruncatedSeries":
        return power(self, k, self.trunc.one(), mul)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries) and self.trunc is other.trunc
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.trunc), tuple(sorted(self.coeffs.items()))))

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[MultiIndex]:
        """Monomials with nonzero coefficient in (weight, exponent) order,
        which is basis order."""
        return sorted(self.coeffs, key=self.trunc.index.__getitem__)

    def coeff(self, a: Sequence[int]) -> int:
        return self.coeffs.get(tuple(a), 0)

    def valuation(self) -> Val:
        """w(x): least monomial weight, or AtLeast(W/e) for the empty series."""
        if not self.coeffs:
            return AtLeast(self.trunc.cutoff)
        return self.trunc.weight(min(self.coeffs, key=self.trunc.index.__getitem__))

    def vector(self) -> np.ndarray:
        out = np.zeros(self.trunc.size, dtype=np.int64)
        for a, c in self.coeffs.items():
            out[self.trunc.index[a]] = c
        return out

    def __repr__(self) -> str:
        return f"TruncatedSeries({format_series(self)})"


# ---------------------------------------------------------------------------
# Group elements and automorphisms inside the algebra
# ---------------------------------------------------------------------------

def group_embed(trunc: TruncationSpec, el: GroupElement) -> TruncatedSeries:
    """g as a series: g^m = sum_b C(m, b) b^b over the monomial basis."""
    if el.model is not trunc.model:
        raise ModelError("element belongs to a different model")
    return trunc.from_vector(trunc._embed_rows([el.coords])[0])


def aut_map(trunc: TruncationSpec, phi: Automorphism) -> SparseMap:
    """The ring extension of phi as a sparse map, cached on the truncation:
    phi(b^a) = sum_c s_c embed(phi(g^c)) over the group expansion of b^a."""
    if phi.model is not trunc.model:
        raise ModelError("automorphism belongs to a different model")
    model = trunc.model

    def build():
        src, tgt, coef = trunc._group_columns(trunc._exponents, lambda _, cs: [
            phi.apply(model.element(c)).coords for c in cs.tolist()])
        return SparseMap._trusted(model.p, trunc.size, tgt, src, coef)
    return trunc.cached_map(("aut", phi), build)


def aut_extend(trunc: TruncationSpec, phi: Automorphism,
               x: TruncatedSeries) -> TruncatedSeries:
    """Apply the ring extension of phi to x, exactly mod F_W."""
    if x.trunc is not trunc:
        raise ValueError("series from a different truncation")
    return trunc.from_vector(aut_map(trunc, phi).apply(x.vector()))


def series_frobenius(x: TruncatedSeries, k: int = 1) -> TruncatedSeries:
    """x^{p^k} for commutative models: scale exponents, keep coefficients."""
    if x.trunc.model.kind != "abelian":
        raise ValueError("Frobenius shortcut is only valid on abelian models")
    return TruncatedSeries(x.trunc, poly_frobenius(x.coeffs, x.trunc.model.p, k))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def format_series(x: TruncatedSeries) -> str:
    """Canonical text: terms in basis order, 'c*b1^a1*b2^a2' with ^1 and a
    leading 1* omitted."""
    return format_poly(x.coeffs, x.support(), "b")


def format_row(trunc: TruncationSpec, block, k: int) -> str:
    """`format_series` of row k of a block (see `TruncationSpec.mul_block`)."""
    rows, cols, coefs = block
    lo, hi = np.searchsorted(rows, [k, k + 1])
    return format_series(trunc._series(cols[lo:hi], coefs[lo:hi]))


def parse_series(trunc: TruncationSpec, text: str) -> TruncatedSeries:
    """Inverse of format_series (whitespace tolerant; accepts explicit 1*)."""
    text = text.strip()
    if not text or text == "0":
        return trunc.zero()
    d = trunc.model.rank
    coeffs: dict = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError("empty term in series literal")
        coeff = 1
        expo = [0] * d
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            if factor[0] == "b":
                name, caret, power = factor.partition("^")
                try:  # a ^ needs an exponent after it
                    idx, k = int(name[1:]), int(power) if caret else 1
                except ValueError:
                    raise ValueError(f"bad factor {factor!r}") from None
                if not 1 <= idx <= d:
                    raise ValueError(f"variable {name} out of range 1..{d}")
                if k < 0:
                    raise ValueError(f"negative exponent in {factor!r}")
                expo[idx - 1] += k
            else:
                coeff = coeff * int(factor)
        key = tuple(expo)
        coeffs[key] = (coeffs.get(key, 0) + coeff) % trunc.model.p
    return TruncatedSeries(trunc, coeffs)
