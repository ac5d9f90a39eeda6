"""Divided-power operators, Mahler coefficients of automorphisms and coset
idempotents.

Every operator here is a `SparseMap` on a TruncationSpec's monomial space:
(target, source, coefficient) arrays over F_p, sorted by (source, target),
applied to a coefficient vector.  Operators compose (`SparseMap.compose`)
and combine linearly (`SparseMap.combine`) as sparse maps, into canonical
maps that compare equal exactly when the operators are equal.  The divided
powers are cached as such maps, one per truncation and index, built a block
at a time from the closed formula below (`divided_power_maps`); the tables
of binomials mod p that a build reads are kept on the truncation, and the
first divided powers del_1, ..., del_d are one build
(`first_divided_powers`).  Their degrees are read a block at a time as
integers (`degree_arrays`); the coset idempotents are polynomials in them,
each factor one combination of them (`_coset_factor`).

The divided power del^(a) acts by the closed formula

    del^(a) (b^B) = C(B, a) * prod_i (1 + b_i)^{a_i} b_i^{B_i - a_i}

(zero unless a <= B componentwise), acts on embedded group elements as
multiplication by the binomial C(m, a), and has degree exactly -<a, omega>.
`divided_power` applies the cached map to a series; the tests check the
maps against the formula applied term by term.

Mahler coefficients of an automorphism phi are the series <phi, del^(a)>
in the expansion  phi = sum_a  (left mult by <phi, del^(a)>) o del^(a).
They are computed one way, by finite differences over the integer points
below a: the group kernel of `series` applied to g |-> phi(g) g^{-1}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .groups import Automorphism, ModelError, SubgroupSpec
from .linalg import SparseMap, sum_entries
from .padic import (
    AtLeast, MultiIndex, Val, comb_mod, signed_binomials, val_min,
)
from .series import TruncatedSeries, TruncationSpec


# ---------------------------------------------------------------------------
# Divided powers
# ---------------------------------------------------------------------------

_SLICE_TERMS = 8192  # terms built or read at a time, see `_slices`


def _slices(terms) -> list[tuple[int, int]]:
    """Runs (lo, hi) of consecutive items, item k of terms[k] terms, cut where
    the running total passes a multiple of _SLICE_TERMS, so that the memory
    of a divided-power build or a degree pass follows the run."""
    cuts = np.flatnonzero(np.diff((np.cumsum(terms) - terms) // _SLICE_TERMS,
                                  prepend=-1)).tolist() + [len(terms)]
    return list(zip(cuts, cuts[1:]))


def _operator_index(trunc: TruncationSpec, alpha: Sequence[int]) -> MultiIndex:
    i = trunc.index.get(alpha) if type(alpha) is tuple else None
    if i is not None:  # a basis index, as the basis holds it
        return trunc.basis[i]
    alpha = tuple(int(v) for v in alpha)
    if len(alpha) != trunc.model.rank or any(v < 0 for v in alpha):
        raise ValueError(f"bad operator index {alpha}")
    return alpha


def divided_power(trunc: TruncationSpec, alpha: Sequence[int],
                  x: TruncatedSeries) -> TruncatedSeries:
    """Apply del^(alpha) to a series through its cached sparse map."""
    if x.trunc is not trunc:
        raise ValueError("series from a different truncation")
    return trunc.from_vector(divided_power_map(trunc, alpha).apply(x.vector()))


def divided_power_map(trunc: TruncationSpec, alpha: Sequence[int]) -> SparseMap:
    """del^(alpha) as a sparse map, cached on the truncation."""
    return divided_power_maps(trunc, [alpha])[0]


def divided_power_maps(trunc: TruncationSpec,
                       alphas: Iterable[Sequence[int]]) -> list[SparseMap]:
    """del^(alpha) for each alpha of `alphas`, cached on the truncation; those
    not cached yet come from one `_divided_powers` call."""
    return trunc.cached_maps([("dp", _operator_index(trunc, a)) for a in alphas],
                             lambda keys: _divided_powers(trunc, [a for _, a in keys]))


def first_divided_powers(trunc: TruncationSpec) -> list[SparseMap]:
    """del_1, ..., del_d, the del^(e_i), cached on the truncation: all d
    from one build on first use.  Each has at most two entries a source,
    so the directions a caller does not read cost little."""
    rank = trunc.model.rank
    return divided_power_maps(trunc, [tuple(int(j == i) for j in range(rank))
                                      for i in range(rank)])


def _divided_powers(trunc: TruncationSpec, alphas: list) -> list[SparseMap]:
    """del^(alpha) for each alpha of `alphas` by the closed formula, in slices
    of at most about _SLICE_TERMS entries: the leading factor of each
    (alpha, source) pair from the Pascal table mod p, times each offset of
    its alpha.  Each map holds views of its slice's arrays, already sorted
    by (source, target).  The table, its flag rows and its flat form come
    from the truncation, which builds them once per Pascal table
    (`TruncationSpec._divided_power_tables`)."""
    p, size, exps = trunc.model.p, trunc.size, trunc._exponents
    # flags[i][a, B] = C(B_i, a) is nonzero mod p
    pascal, flags, expansions = trunc._divided_power_tables
    # past the largest exponent every C(B_i, alpha_i) is 0, as one past it
    A = np.minimum(np.array(alphas, dtype=np.int64), len(pascal) - 1)

    def live(lo, hi):
        # the pairs (alpha, b^B) with C(B, alpha) nonzero mod p, as flags
        out = flags[0][A[lo:hi, 0]]
        for i in range(1, len(flags)):
            out &= flags[i][A[lo:hi, i]]
        return out

    # the sources of each alpha, counted a flag budget of rows at a time
    rows = max(1, 8 * _SLICE_TERMS // size)
    sources = np.concatenate([live(lo, min(lo + rows, len(A))).sum(axis=1)
                              for lo in range(0, len(A), rows)])
    # (1 + b_i)^{alpha_i} = sum_k C(alpha_i, k) b_i^k: the offsets k with
    # C(alpha, k) nonzero, expanded by `signed_binomials` from the nonzero
    # entries of the Pascal table row by row, so with no signs; the slices
    # read only their coefficients, the codes of k - alpha and where each
    # alpha's terms start; an alpha with no source is not expanded
    E = A * (sources > 0)[:, None]
    owner, k, scale = signed_binomials(expansions, E, p)
    k -= E[owner]
    # the basis ascends by weight, then exponents, and so do the targets
    # B - alpha + k of one source in that order of the k: each alpha's
    # offsets in that order make its entries sorted by (source, target)
    order = np.lexsort((k @ trunc._int_omega, owner))
    shift, scale = k[order] @ trunc._radix, scale[order]
    starts = np.searchsorted(owner, np.arange(len(A) + 1))
    del owner, k, order
    maps = []
    # each alpha has one entry per source and offset, and also holds a row
    # of `size` flags, counted as size / 8 terms
    for lo, hi in _slices(sources * np.diff(starts) + size // 8 + 1):
        at, src = np.nonzero(live(lo, hi))
        at += lo
        lead = np.ones(src.size, dtype=np.int64)
        for col, a in zip(exps[src].T, A[at].T):
            lead = lead * pascal[col, a] % p
        # each pair times each offset of its alpha, as in SparseMap.apply_entries
        count = starts[at + 1] - starts[at]
        ends = np.cumsum(count)
        n = np.arange(count.sum()) + np.repeat(starts[at] - ends + count, count)
        src, coef = np.repeat(src, count), np.repeat(lead, count) * scale[n] % p
        # B - alpha + k <= B componentwise, and the basis is closed under
        # lowering exponents, so every target is a basis monomial
        tgt = trunc._indices_of(trunc._codes[src] + shift[n])
        # where each alpha's entries start and end
        cuts = np.concatenate(([0], ends))[np.searchsorted(at, np.arange(lo, hi + 1))].tolist()
        maps += [SparseMap._trusted(p, size, tgt[i:j], src[i:j], coef[i:j])
                 for i, j in zip(cuts, cuts[1:])]
    return maps


@dataclass(frozen=True)
class DegreeReport:
    """Degree of an operator: exact minimum over columns whose image resolves,
    plus the truncation lower bound contributed by columns that vanish."""

    resolved: Optional[Fraction]
    tail_bound: Optional[Fraction]

    @classmethod
    def of(cls, trunc: TruncationSpec, least: int, missed: int) -> "DegreeReport":
        """The report of one map's `degree_arrays` entries."""
        least, missed = int(least), int(missed)
        return cls(Fraction(least, trunc.e) if least < trunc.W else None,
                   Fraction(trunc.W - missed, trunc.e) if missed >= 0 else None)

    def value(self) -> Val:
        vals: list[Val] = []
        if self.resolved is not None:
            vals.append(self.resolved)
        if self.tail_bound is not None:
            vals.append(AtLeast(self.tail_bound))
        return val_min(vals)


def operator_degree(trunc: TruncationSpec, op: SparseMap) -> DegreeReport:
    """Degree of a sparse map on the truncation (`degree_arrays`)."""
    return operator_degrees(trunc, [op])[0]


def operator_degrees(trunc: TruncationSpec, maps: Sequence[SparseMap]
                     ) -> list[DegreeReport]:
    """Degree of each sparse map on the truncation (`degree_arrays`)."""
    return [DegreeReport.of(trunc, d, m)
            for d, m in zip(*(a.tolist() for a in degree_arrays(trunc, maps)))]


def degree_arrays(trunc: TruncationSpec, maps: Sequence[SparseMap]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(least, missed) of each sparse map on the truncation, in units of 1/e:
    least is the least w(target) - w(source) over its entries with a nonzero
    coefficient, W if it has none, and missed the weight of the heaviest
    source without one, -1 if there is none.  Its degree is then
    min(least, W - missed), exact when least <= W - missed and otherwise
    only bounded below by it (`DegreeReport`).  Read in slices of about
    _SLICE_TERMS entries: one sum over the runs of equal (map, source,
    target) entries and one pass of weights each."""
    p, size, w = trunc.model.p, trunc.size, trunc._int_weights
    for op in maps:
        if op.size != size:
            raise ValueError(f"map on {op.size} monomials, truncation has {size}")
    sizes = np.array([op.coef.size for op in maps], dtype=np.int64)
    least = np.full(len(maps), trunc.W)  # above every w[tgt] - w[src]
    missed = np.empty(len(maps), dtype=np.int64)
    # each map also holds a row of `size` flags, counted as size / 8 terms
    for lo, hi in _slices(sizes + size // 8 + 1):
        block = maps[lo:hi]
        at = np.repeat(np.arange(hi - lo), sizes[lo:hi])
        src = np.concatenate([op.src for op in block])
        tgt = np.concatenate([op.tgt for op in block])
        coef = np.concatenate([op.coef for op in block])
        # a map's entries are sorted by (source, target), so a repeated pair
        # is a run of entries equal in map, source and target, whose sum is
        # tested for zero
        repeat = np.zeros(src.size, dtype=bool)
        repeat[1:] = (at[1:] == at[:-1]) & (src[1:] == src[:-1]) & (tgt[1:] == tgt[:-1])
        if repeat.any():
            first = np.flatnonzero(~repeat)
            at, src, tgt, coef = at[first], src[first], tgt[first], np.add.reduceat(coef, first)
        keep = coef % p != 0
        if not keep.all():
            at, src, tgt = at[keep], src[keep], tgt[keep]
        del repeat, coef, keep
        # the kept entries come map by map
        first = np.flatnonzero(np.diff(at, prepend=-1))
        if first.size:
            least[lo + at[first]] = np.minimum.reduceat(w[tgt] - w[src], first)
        hit = np.zeros((hi - lo, size), dtype=bool)
        hit[at, src] = True
        # the basis ascends by weight: the last source missed is the heaviest
        last = size - 1 - np.argmin(hit[:, ::-1], axis=1)
        missed[lo:hi] = np.where(hit.all(axis=1), -1, w[last])
    return least, missed


# ---------------------------------------------------------------------------
# Checks of the divided powers on blocks of samples
# ---------------------------------------------------------------------------

def _product_rule_terms(trunc: TruncationSpec, a, b) -> dict:
    """{basis index of c: N^c_ab} for the coefficients of del^(a) del^(b) =
    sum_c N^c_ab del^(c) that are nonzero, N^c_ab = prod_i C(c_i, a_i)
    C(a_i, a_i + b_i - c_i) mod p: each coordinate's factors are nonzero
    only for max(a_i, b_i) <= c_i <= a_i + b_i."""
    p = trunc.model.p
    factors = [[(v, f) for v in range(max(x, y), x + y + 1)
                if (f := comb_mod(v, x, p) * comb_mod(x, x + y - v, p) % p)]
               for x, y in zip(a, b)]
    terms = {}
    for combo in itertools.product(*factors):
        c = trunc.index.get(tuple(v for v, _ in combo))
        if c is not None:
            terms[c] = math.prod(f for _, f in combo) % p
    return terms


_CHECK_TERMS = 1 << 15  # entries a sampled check takes at a time, see `_sample_blocks`


def _sample_blocks(samples: int, per: int) -> list[slice]:
    """Runs of consecutive samples of about _CHECK_TERMS entries each, at
    `per` entries a sample, so that the memory of a check made on blocks of
    samples follows the run, not the number of samples."""
    step = max(1, _CHECK_TERMS // per)
    return [slice(lo, min(lo + step, samples)) for lo in range(0, samples, step)]


def _product_rule_failures(trunc: TruncationSpec, maps: Sequence[SparseMap],
                           pairs: list) -> list[int]:
    """The k, in order, whose pair (a, b) = pairs[k] of basis indices breaks
    del^(a) del^(b) = sum_c N^c_ab del^(c), maps[i] being del^(i-th basis
    index): every pair in one stacked composition against one stacked
    combination, row k*size + s holding column s of pair k's difference."""
    p, size = trunc.model.p, trunc.size
    stack = SparseMap.stack([maps[a] for a, _ in pairs])
    parts = [np.zeros((3, 0), dtype=np.int64)]
    for k, (a, b) in enumerate(pairs):
        d = maps[b]
        parts.append(np.stack(stack.apply_entries(k * size + d.src, k * size + d.tgt, d.coef)))
        parts += [np.stack([k * size + maps[c].src, maps[c].tgt, (p - n) * maps[c].coef % p])
                  for c, n in _product_rule_terms(trunc, trunc.basis[a], trunc.basis[b]).items()]
    return _rows_hit(sum_entries(*np.concatenate(parts, axis=1), p), size)


def _embed_valuations(trunc: TruncationSpec, stack: SparseMap, emb: np.ndarray,
                      op, scalar) -> np.ndarray:
    """w, in units of 1/e, of M(x) - scalar[r]*x for each row r of the dense
    block `emb`, x that row and M map op[r] of the stack, in one apply."""
    p, size = trunc.model.p, trunc.size
    r, c = np.nonzero(emb)
    v = emb[r, c]
    image = stack.apply_entries(r, op[r] * size + c, v)
    return trunc.valuations(sum_entries(*(np.concatenate(pair) for pair in zip(
        image, (r, c, (p - scalar[r]) * v % p))), p), len(emb))


def _rows_hit(block, size: int) -> list[int]:
    """The k, in order, whose rows k*size .. k*size + size - 1 of a block
    sorted by row hold an entry."""
    k = block[0] // size
    return k[np.diff(k, prepend=-1) != 0].tolist()


# ---------------------------------------------------------------------------
# Mahler coefficients of automorphisms
# ---------------------------------------------------------------------------

def _mahler_rows(trunc: TruncationSpec, phi: Automorphism, alphas) -> tuple:
    """Entries (k, column, coefficient) of <phi, del^(alphas[k])>, the image
    of b^alpha under the linear extension of  g |-> phi(g) g^{-1}: its
    finite differences over the integer points below alpha, sorted by k,
    then column.  alpha need not lie in the basis."""
    model = phi.model
    return trunc._group_columns(alphas, lambda _, cs: [
        model.mul(phi.apply(g), model.inv(g)).coords
        for g in map(model.element, cs.tolist())])


def mahler_coeff_aut(trunc: TruncationSpec, phi: Automorphism,
                     alpha: Sequence[int]) -> TruncatedSeries:
    """<phi, del^(alpha)> by finite differences (`_mahler_rows`)."""
    _, cols, coefs = _mahler_rows(trunc, phi, [_operator_index(trunc, alpha)])
    return trunc._series(cols, coefs)


def reconstruct_aut(trunc: TruncationSpec, phi: Automorphism,
                    degree_budget) -> dict:
    """Images of the basis monomials b^B with <B, omega> <= D under the
    partial sum of  (left mult by <phi, del^(a)>) o del^(a),  as
    {B: image of b^B} in basis order.

    Includes every a with <a, omega> <= D whose term can touch these
    columns mod F_W; each omitted term has operator degree at least
    delta * |a| > W/e - D, where delta is the basis displacement degree of
    phi.  Each image then agrees with aut_extend exactly.  The coefficients
    of every a are the entries of one `_mahler_rows` call, and only the a
    whose coefficient has an entry get a divided power."""
    D = Fraction(degree_budget)
    model = trunc.model
    # omega(phi(g_i) g_i^-1) - omega_i in units of 1/e; the minimum is exact
    # iff an exact term attains it, as in `padic.val_min`
    terms = [(v - u, exact) for g, u in zip(model.basis(), model.omega.units)
             for v, exact in [model._omega_units(
                 model.mul(phi.apply(g), model.inv(g)).coords)]]
    delta = min(v for v, _ in terms)
    if delta <= 0:
        why = ""
        # no exact term refutes: the least is a marker, which a larger M decides
        if not any(exact and v <= 0 for v, exact in terms):
            j = [v for v, _ in terms].index(delta) + 1
            why = (f": omega(phi(g_{j}) g_{j}^-1) - omega(g_{j}) is at precision "
                   f"M={model.precision} only known to be "
                   f"{model.omega.val(delta, False)}, and a larger M would decide it")
        raise ModelError("reconstruction needs positive degree, got "
                         f"{model.omega.val(delta, (delta, True) in terms)}{why}")
    w, e = trunc._int_weights, trunc.e
    # the basis is sorted by weight, so the columns of weight <= D are a
    # prefix; del^(a) kills b^B unless a <= B, so the a that matter lie in
    # the same prefix
    cols = trunc.basis[:int(np.searchsorted(w, math.floor(D * e), side="right"))]
    p, m = trunc.model.p, len(cols)
    alphas = [a for k, a in enumerate(cols)
              if not sum(a) or delta * sum(a) + int(w[k]) < trunc.W]
    owner, c, v = _mahler_rows(trunc, phi, alphas)
    # the alphas with an entry; a plain np.unique would load numpy.ma
    live = owner[np.diff(owner, prepend=-1) != 0]
    # every product in one block: row k*m + b is <phi, del^(alpha)> times
    # del^(alpha)(b^B), alpha the k-th live index and b^B the b-th column; the
    # columns in `cols` are the leading slice of each map's sources
    parts = [np.zeros((3, 0), dtype=np.int64)]
    for k, d in enumerate(divided_power_maps(trunc, [alphas[a] for a in live.tolist()])):
        n = int(np.searchsorted(d.src, m))
        parts.append(np.stack([k * m + d.src[:n], d.tgt[:n], d.coef[:n]]))
    y = sum_entries(*np.concatenate(parts, axis=1), p)
    rows = y[0][np.diff(y[0], prepend=-1) != 0]
    x = SparseMap._trusted(p, trunc.size, c, live.searchsorted(owner), v).apply_entries(
        rows, rows // m, np.ones_like(rows))
    at, tgt, coef = trunc.mul_block(x, y)
    # the image of b^B sums the products of its column over every alpha
    at, tgt, coef = sum_entries(at % m, tgt, coef, p)
    cuts = np.searchsorted(at, np.arange(m + 1)).tolist()
    return {B: trunc._series(tgt[lo:hi], coef[lo:hi])
            for B, lo, hi in zip(cols, cuts, cuts[1:])}


# ---------------------------------------------------------------------------
# Coset idempotents
# ---------------------------------------------------------------------------

def _mask(trunc: TruncationSpec, H: SubgroupSpec) -> list[int]:
    """The directions of a subgroup whose exponent pattern is 0/1."""
    if H.model is not trunc.model:
        raise ModelError("subgroup belongs to a different model")
    if any(n not in (0, 1) for n in H.exponents):
        raise ModelError(f"subgroup shape {H.exponents} unsupported: "
                         "exponents must be 0 or 1")
    return [i for i, n in enumerate(H.exponents) if n == 1]


def _coset_factor(trunc: TruncationSpec, i: int, v: int) -> SparseMap:
    """1 - (del_i - v)^{p-1}, which acts on g^m as the indicator of m_i = v
    mod p: a polynomial of degree p - 1 in m_i, whose Mahler coefficients
    are (-1)^{k-v} C(k, v) mod p for k < p.  So it is one combination of the
    cached del^(k e_i), those past the largest exponent being 0."""
    ks = range(min(trunc.model.p, trunc.max_exponents[i] + 1))
    units = [tuple(k * (j == i) for j in range(trunc.model.rank)) for k in ks]
    return SparseMap.combine([(-1) ** (k + v) * math.comb(k, v) for k in ks],
                             divided_power_maps(trunc, units))


def coset_idempotents(trunc: TruncationSpec, H: SubgroupSpec) -> list:
    """(nu, e_nu) for every coset nu of H over its mask, nu in lexicographic
    order: e_nu = prod_{i in mask} (1 - (del_i - nu_i)^{p-1}), each of the
    |mask| * p factors built once (`_coset_factor`), the divided powers
    they combine in one block, and each e_nu composed from its factors,
    sharing its prefixes with the other cosets."""
    mask = _mask(trunc, H)
    p, rank = trunc.model.p, trunc.model.rank
    divided_power_maps(trunc, [tuple(k * (j == i) for j in range(rank)) for i in mask
                               for k in range(min(p, trunc.max_exponents[i] + 1))])
    layer = [((), SparseMap.identity(p, trunc.size))]
    for i in mask:
        row = [_coset_factor(trunc, i, v) for v in range(p)]
        layer = [(nu + (v,), e.compose(f) if nu else f)
                 for nu, e in layer for v, f in enumerate(row)]
    return layer


def coset_idempotent(trunc: TruncationSpec, H: SubgroupSpec,
                     nu: Sequence[int]) -> SparseMap:
    """e_nu = prod_{i in mask} (1 - (del_i - nu_i)^{p-1}) for a subgroup whose
    exponent pattern is 0/1; acts on an embedded group element as the
    indicator of the coordinate coset  lam_i = nu_i mod p  over the mask.
    Composed from its factors (`_coset_factor`), as in `coset_idempotents`."""
    mask = _mask(trunc, H)
    nu = [int(v) for v in nu]
    if len(nu) != len(mask):
        raise ValueError(f"need {len(mask)} residues for mask {mask}, got {len(nu)}")
    p = trunc.model.p
    if any(not 0 <= v < p for v in nu):
        raise ValueError("residues must lie in [0, p)")
    out = SparseMap.identity(p, trunc.size)
    for i, v in zip(mask, nu):
        out = out.compose(_coset_factor(trunc, i, v))
    return out
