"""Ideal spans and the structural tests built on them.

Everything here is exact F_p linear algebra on the monomial basis of a
truncation: ideals are row spaces closed under multiplication by the algebra
generators, and the interesting questions (is the ideal controlled by a
subgroup, which group elements sit inside 1 + I, does induction from a
subalgebra stay flat, is a centrally induced ideal completely prime) reduce
to rank computations and valuation bookkeeping.

A right ideal mod F_W is the row space of one block, g_i*b^c for every
generator and every basis monomial of weight below W/e - w(g_i)
(`TruncationSpec.multiples`), which one `linalg.RowSpace.add` eliminates a
lead at a time; it is kept as its reduced row echelon basis R
(`IdealSpan`).  That is also the two-sided span of an abelian model; in a
unitriangular one the right ideal is closed under the left maps alone, a
frontier at a time (`ideal_span`).  Every test against a span is one
`linalg.residual` B - B[:, pivots]·R, the kernel that also grows it:
membership of a vector, the dagger's candidates in chunks, and
del_i-stability, where B is del_i applied to all of R at once.

A central prime keeps its quotient map tau as one `SparseMap`, so the
induced filtration of a block of series is one apply of tau to every part
r_gamma of every row, and the completely-prime probe draws all its samples
before it multiplies and filters them as blocks (`TruncationSpec.mul_block`,
`CentralPrimeSpec.filtrations`); values stay integers in units of 1/e until
a report needs their text.

All answers carry "mod F_W" semantics: a passing control or primality check
is a certificate at the truncation, not a global theorem, and reports say so
via the depth/cutoff parameters they quote.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .groups import ModelError, SubgroupSpec, subgroup_from_exponents
from .linalg import RowSpace, SparseMap, integer_array, residual, sum_entries
from .operators import _mask, first_divided_powers
from .padic import Val, gt_provable, mi_range
from .rng import Pcg32
from .series import TruncatedSeries, TruncationSpec, format_row, format_series

_SIDES = ("right", "two-sided")
# candidates of the dagger search embedded at a time, as dense rows
_DAGGER_CHUNK = 2048


class IdealSpan:
    """Span of an ideal mod F_W, held as its reduced row echelon basis R.

    R is a `SparseMap` whose source k is the k-th row in pivot order and
    whose targets are basis columns: row k is 1 at `pivots[k]` and 0 at
    every other pivot, as a `RowSpace` leaves it.  Membership,
    del-stability and the dagger are tests on the residual B - B[:, pivots]·R
    of a block B of vectors (`linalg.residual`), and the del_i-stability
    result is kept per direction, since the span never changes.  The
    constructor also takes the basis as a dense dim x size array of
    integers, which it reduces mod p; `rows` is that dense form, built on
    first read.  Two spans are equal when they are the same subspace of the
    same truncation, whatever their sidedness.
    """

    def __init__(self, trunc: TruncationSpec, rows, pivots: Sequence[int], sided: str):
        self.trunc = trunc
        self.pivots = tuple(int(c) for c in pivots)
        self.sided = sided
        if not isinstance(rows, SparseMap):
            dense = integer_array(rows)
            if dense.shape != (self.dim, trunc.size):
                raise ValueError(f"rows of shape {dense.shape}, expected "
                                 f"({self.dim}, {trunc.size})")
            # reduced before the cast, so that huge ints in object arrays stay exact
            dense = np.asarray(dense % trunc.model.p, dtype=np.int64)
            at, cols = np.nonzero(dense)
            rows = SparseMap(trunc.model.p, trunc.size, cols, at, dense[at, cols])
        self.reduced = rows
        self._escapes: dict[int, Optional[tuple[int, dict]]] = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def rows(self) -> np.ndarray:
        """The basis as a read-only dense dim x size int64 array."""
        R = self.reduced
        out = np.zeros((self.dim, self.trunc.size), dtype=np.int64)
        out[R.src, R.tgt] = R.coef
        out.setflags(write=False)
        return out

    def _key(self) -> tuple:
        R = self.reduced
        return (id(self.trunc), self.pivots,
                R.tgt.tobytes(), R.src.tobytes(), R.coef.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdealSpan):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def contains_vector(self, vec) -> bool:
        vec = integer_array(vec)
        if vec.shape != (self.trunc.size,):
            raise ValueError(f"vector of shape {vec.shape}, expected "
                             f"({self.trunc.size},)")
        # reduced before the cast, so that huge ints in object arrays stay exact
        vec = np.asarray(vec % self.trunc.model.p, dtype=np.int64)
        cols = np.flatnonzero(vec)
        return not residual(np.zeros_like(cols), cols, vec[cols], self.reduced,
                            self.pivots)[0].size

    def contains(self, x: TruncatedSeries) -> bool:
        if x.trunc is not self.trunc:
            raise ValueError("series from a different truncation")
        return self.contains_vector(x.vector())


def _unit_exponent(rank: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(rank))


def _right_ideal(trunc: TruncationSpec, generators: Sequence[TruncatedSeries],
                 monomials) -> tuple[RowSpace, tuple]:
    """The span of every g_i*b^c, c in `monomials` (basis indices, ascending),
    as one block of `TruncationSpec.multiples` added in one `RowSpace.add`;
    with the rows that add stored."""
    for g in generators:
        if g.trunc is not trunc:
            raise ValueError("generators from a different truncation")
    space = RowSpace(trunc.model.p, trunc.size)
    stored = space.add(*trunc.multiples(trunc.block(generators), len(generators), monomials))
    return space, stored


def ideal_span(trunc: TruncationSpec, generators: Sequence[TruncatedSeries],
               sided: str = "right") -> IdealSpan:
    """The span of (sum of gen*kG) mod F_W, or of (sum of kG*gen*kG).

    A right ideal is the span of the one block {g_i*b^c : c a basis
    monomial}: the b^c span kG mod F_W, and F_W is a two-sided ideal, so
    g*x mod F_W is g*(x mod F_W); g*b^c lies in F_{w(g) + w(c)}, so the rows
    with w(g_i) + w(c) >= W/e are 0 and never formed.  In an abelian model
    that is also the two-sided span.  Otherwise the two-sided span is the
    sum of b^c*S over the monomials, S the right ideal, and each b^c*S is
    again a right ideal, (b^c*s)*x = b^c*(s*x).  So S is closed under the
    left maps x -> b_j*x alone, a frontier at a time: the rows a frontier
    stored go through all d maps in one gather, the maps stacked with map
    k's targets offset by k*size, and the image of row r under map k is
    row r*d + k of the next frontier.
    """
    if sided not in _SIDES:
        raise ValueError(f"sidedness must be one of {_SIDES}, got {sided!r}")
    space, front = _right_ideal(trunc, generators, np.arange(trunc.size))
    if sided == "two-sided" and trunc.model.kind != "abelian":
        p, size, d = trunc.model.p, trunc.size, trunc.model.rank
        left = SparseMap(p, d * size, *np.concatenate([
            np.stack([m.tgt + k * size, m.src, m.coef])
            for k, m in enumerate(trunc.generator_maps(range(d), "left"))], axis=1))
        while front[0].size:
            at, tgt, coefs = left.apply_entries(*front)
            front = space.add(at * d + tgt // size, tgt % size, coefs)
    return IdealSpan(trunc, space.basis, space.pivots, sided)


# ---------------------------------------------------------------------------
# Control by a subgroup
# ---------------------------------------------------------------------------

def control_witnesses(I: IdealSpan, H: SubgroupSpec) -> list[dict]:
    """Rows of I whose image under a tested operator escapes the span.

    The tested operators are the first divided powers for the directions H
    halves (exponent 1); directions fully inside H are untested.  Empty
    result means the span is stable, i.e. controlled by H mod F_W.  Each
    direction's escape is one block residual, kept on I (`_escape`), and
    del_1, ..., del_d are one build per truncation
    (`operators.first_divided_powers`), whatever the mask.
    """
    t = I.trunc
    out = []
    for i in _mask(t, H):
        hit = _escape(I, i)
        if hit is not None:
            k, res = hit
            R = I.reduced
            out.append({
                "direction": i + 1,
                "row": format_row(t, (R.src, R.tgt, R.coef), k),
                "escapes_as": format_series(t.from_dict({t.basis[c]: x
                                                         for c, x in res.items()})),
            })
    return out


def _escape(I: IdealSpan, i: int) -> Optional[tuple[int, dict]]:
    """(k, residual) for the first row k of I, in pivot order, whose image
    under del_i has a nonzero residual against the span; None if the span
    is del_i-stable.  Computed once per direction and kept on I."""
    if i in I._escapes:
        return I._escapes[i]
    t = I.trunc
    d_i = first_divided_powers(t)[i]
    R = I.reduced
    at, cols, coefs = residual(*d_i.apply_entries(R.src, R.tgt, R.coef), R, I.pivots)
    hit = None
    if at.size:
        first = at == at[0]
        hit = int(at[0]), dict(zip(cols[first].tolist(), coefs[first].tolist()))
    I._escapes[i] = hit
    return hit


def is_controlled_by(I: IdealSpan, H: SubgroupSpec) -> bool:
    return not control_witnesses(I, H)


def controller_approx(I: IdealSpan) -> SubgroupSpec:
    """Smallest basis-aligned subgroup (exponents 0/1) controlling I.

    Stability is tested one direction at a time, so the smallest controller
    in this lattice is simply the subgroup halving every stable direction.
    The answer is an upper bound for the true controller relative to the
    chosen basis; non-aligned subgroups are not searched.
    """
    model = I.trunc.model
    exps = [0 if _escape(I, i) is not None else 1 for i in range(model.rank)]
    return subgroup_from_exponents(model, exps)


def dagger_approx(I: IdealSpan, depth: int, budget: int = 4096) -> list[tuple[int, ...]]:
    """Coordinate vectors lam mod p^depth whose group element g^lam has
    g^lam - 1 in the span (canonical lifts tested exhaustively)."""
    t = I.trunc
    model = t.model
    if depth < 1 or depth > model.precision:
        raise ValueError(f"depth must be in [1, {model.precision}], got {depth}")
    count = model.p ** (depth * model.rank)
    if count > budget:
        raise ValueError(f"dagger search needs p^(depth*rank) = {count} "
                         f"membership tests, over the budget {budget}")
    lams = list(mi_range((model.p ** depth - 1,) * model.rank))  # in sorted order
    out = []
    for lo in range(0, count, _DAGGER_CHUNK):
        chunk = lams[lo:lo + _DAGGER_CHUNK]
        rows = t._embed_rows(chunk)
        rows[:, t.index[(0,) * model.rank]] -= 1  # g^lam - 1; C(lam, 0) = 1
        at, cols = np.nonzero(rows)
        kept = np.ones(len(chunk), dtype=bool)
        kept[residual(at, cols, rows[at, cols], I.reduced, I.pivots)[0]] = False
        out += [lam for lam, keep in zip(chunk, kept.tolist()) if keep]
    return out


# ---------------------------------------------------------------------------
# Subalgebra of a subgroup, and flat induction
# ---------------------------------------------------------------------------

def subalgebra_monomials(trunc: TruncationSpec, H: SubgroupSpec) -> list:
    """Basis monomials spanning the subalgebra of H inside kG mod F_W.

    In characteristic p, g^{p^n} - 1 = b^{p^n}, so the subalgebra generated
    by the subgroup basis is spanned by the monomials whose j-th exponent is
    divisible by p^{n_j}; absent directions (n_j >= M) force exponent 0.
    """
    if H.model is not trunc.model:
        raise ModelError("subgroup belongs to a different model")
    M = trunc.model.precision
    steps = [trunc.model.p ** min(n, M) for n in H.exponents]
    return [a for a in trunc.basis if all(x % s == 0 for x, s in zip(a, steps))]


def subalgebra_ideal_span(trunc: TruncationSpec, H: SubgroupSpec,
                          generators: Sequence[TruncatedSeries]) -> IdealSpan:
    """Span of the right ideal of the H-subalgebra generated by the given
    elements (which must already lie in the subalgebra): the block
    {g_i*b^c : b^c a monomial of `subalgebra_monomials`}, for those monomials
    span the subalgebra mod F_W, as the b^c span kG in `ideal_span`."""
    monomials = subalgebra_monomials(trunc, H)
    allowed = set(monomials)
    for g in generators:
        if g.trunc is not trunc:
            raise ValueError("generators from a different truncation")
        stray = [a for a in g.coeffs if a not in allowed]
        if stray:
            raise ValueError(f"generator term {stray[0]} lies outside the subalgebra")
    space, _ = _right_ideal(trunc, generators, [trunc.index[a] for a in monomials])
    return IdealSpan(trunc, space.basis, space.pivots, "right")


def flatness_check(trunc: TruncationSpec, H: SubgroupSpec,
                   generators: Sequence[TruncatedSeries]) -> dict:
    """Induction from the subalgebra changes nothing inside it:
    span(J*kG) intersected with the subalgebra equals span(J).

    Both sides are blocks of monomial multiples of the generators, J over
    the subalgebra's monomials and J*kG over all of them, one route, so the
    comparison checks the ideal and not two routes against each other: the
    multiples by monomials outside the subalgebra add nothing inside it
    that J does not hold.  The intersection is
    read off an echelon basis of the induced span with the columns outside
    the subalgebra ordered first: its rows that pivot past them vanish on
    them, and they are a basis of the intersection.
    """
    p = trunc.model.p
    sub = subalgebra_ideal_span(trunc, H, generators)
    induced = ideal_span(trunc, list(generators), "right")
    kept = np.zeros(trunc.size, dtype=bool)
    kept[[trunc.index[a] for a in subalgebra_monomials(trunc, H)]] = True
    # new column -> old: the columns outside the subalgebra first
    order = np.argsort(kept, kind="stable")
    R = induced.reduced
    space = RowSpace(p, trunc.size)
    space.add(R.src, np.argsort(order)[R.tgt], R.coef)
    # the reduced rows come in pivot order, the first `low` pivoting outside
    low = int(np.searchsorted(space.pivots, trunc.size - kept.sum()))
    B = space.basis
    meet = RowSpace(p, trunc.size)
    meet.add(*(a[B.src >= low] for a in (B.src, order[B.tgt], B.coef)))
    return {
        "dim_subalgebra_ideal": sub.dim,
        "dim_induced_ideal": induced.dim,
        "dim_intersection": meet.dim,
        "flat": sub == IdealSpan(trunc, meet.basis, meet.pivots, "right"),
    }


# ---------------------------------------------------------------------------
# Central primes and the induced filtration
# ---------------------------------------------------------------------------

class CentralPrimeSpec:
    """A prime of the central subalgebra: zero, or the graph relation
    b_j = u for a series u in the other central variables.

    The model must declare its central block as the leading directions
    (exponent pattern 0,...,0,M,...,M), so that the relative normal form
    splits every element as sum r_gamma * c^gamma with central r_gamma.
    The quotient map tau substitutes b_j <- u; the condition w(u) > omega_j
    makes tau filtration-compatible, with v = w on the remaining variables.
    """

    def __init__(self, trunc: TruncationSpec, kind: str, central_block: int,
                 target: Optional[int] = None,
                 u: Optional[TruncatedSeries] = None):
        model = trunc.model
        if kind not in ("zero", "graph"):
            raise ValueError(f"prime kind must be 'zero' or 'graph', got {kind!r}")
        c = int(central_block)
        if not 1 <= c <= model.rank:
            raise ValueError(f"central block size {c} out of range 1..{model.rank}")
        if model.centre is None:
            raise ModelError("model declares no centre; central primes need one")
        M = model.precision
        pattern = model.centre.exponents
        if any(pattern[i] != 0 for i in range(c)) or \
                any(pattern[i] < M for i in range(c, model.rank)):
            raise ModelError(
                f"declared centre {pattern} is not the leading block of size {c}")
        self.trunc = trunc
        self.kind = kind
        self.central_block = c
        self.target = None
        self.u = None
        if kind == "graph":
            if target is None or not 0 <= int(target) < c:
                raise ValueError(f"graph prime needs a target direction in 0..{c - 1}")
            j = int(target)
            if u is None or u.trunc is not trunc:
                raise ValueError("graph prime needs a substitution series on "
                                 "the same truncation")
            for a in u.coeffs:
                if a[j] or any(a[i] for i in range(c, model.rank)):
                    raise ValueError(
                        f"substitution term {a} uses the target or a "
                        "non-central variable")
            if not gt_provable(u.valuation(), trunc.omega[j]):
                raise ValueError(
                    f"substitution valuation {u.valuation()} is not provably "
                    f"above omega_{j + 1} = {trunc.omega[j]}")
            self.target = j
            self.u = u
        elif target is not None or u is not None:
            raise ValueError("zero prime takes no target or substitution")

    def generator(self) -> TruncatedSeries:
        if self.kind != "graph":
            raise ValueError("the zero prime has no generator")
        t = self.trunc
        return t.monomial(_unit_exponent(t.model.rank, self.target)) - self.u

    @cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """(head, tail): basis column b^a is b^head * c^tail, head the
        central block of a and tail the rest, both basis indices."""
        t = self.trunc
        lead = t._exponents[:, :self.central_block] @ t._radix[:self.central_block]
        return t._indices_of(lead), t._indices_of(t._codes - lead)

    @cached_property
    def _tau(self) -> SparseMap:
        """The quotient map on the central columns: b^a to itself, or for a
        graph prime with a_j = k > 0, to b^(a - k e_j) * u^k."""
        t = self.trunc
        p, size = t.model.p, t.size
        head = np.flatnonzero(self._split[1] == 0)
        if self.kind == "zero":
            return SparseMap(p, size, head, head, np.ones_like(head))
        j = self.target
        k = t._exponents[head, j]
        plain, moved, k = head[k == 0], head[k > 0], k[k > 0]
        pows = [t.one()]
        for _ in range(int(k.max(initial=0))):
            pows.append(pows[-1] * self.u)
        # b^(a - k e_j) * u^k for every moved column in one block product,
        # the powers gathered from a map that sends i to the columns of u^i
        i, cols, coefs = t.block(pows)
        powers = SparseMap(p, size, cols, i, coefs)
        rows = np.arange(moved.size)
        base = t._indices_of(t._codes[moved] - k * t._radix[j])
        at, tgt, coef = t.mul_block((rows, base, np.ones_like(rows)),
                                    powers.apply_entries(rows, k, np.ones_like(k)))
        return SparseMap(p, size, np.concatenate([plain, tgt]),
                         np.concatenate([plain, moved[at]]),
                         np.concatenate([np.ones_like(plain), coef]))

    def filtrations(self, block, n: int) -> np.ndarray:
        """f of each of the n rows of a block (see `induced_filtration`), in
        units of 1/e, as `TruncationSpec.val` reads them: a value below W is
        exact, one from W on a lower bound.  The terms of a row with the same
        tail gamma form one node r_gamma, and tau maps every node at once."""
        t = self.trunc
        rows, cols, coefs = block
        head, tail = self._split
        keys, node = np.unique(rows * t.size + tail[cols], return_inverse=True)
        v = t.valuations(sum_entries(*self._tau.apply_entries(
            node.reshape(-1), head[cols], coefs), t.model.p), keys.size)
        w = t._int_weights[keys % t.size]
        # a node with tau(r_gamma) = 0 is only bounded, by W/e + w(gamma);
        # tau only sees r_gamma mod the shifted cutoff, so resolved values
        # that land at or past W/e could be tail artifacts and are demoted
        term = np.where(v < t.W, np.minimum(v + w, t.W), t.W + w)
        # a zero row has no node and reads W, as a zero series does
        out = np.full(n, t.W, dtype=np.int64)
        row = keys // t.size
        first = np.flatnonzero(np.diff(row, prepend=-1))
        if first.size:
            out[row[first]] = np.minimum.reduceat(term, first)
        return out


def induced_filtration(x: TruncatedSeries, P: CentralPrimeSpec) -> Val:
    """Filtration degree induced by the quotient mod P on the centre:
    f(sum r_gamma c^gamma) = min over gamma of v(tau(r_gamma)) + w(c^gamma).

    For the zero prime this equals the plain valuation w.  Values pushed
    past the cutoff come back as AtLeast markers, in particular for every
    element of the induced ideal P*kG.  A block of one row of
    `CentralPrimeSpec.filtrations`."""
    t = x.trunc
    if t is not P.trunc:
        raise ValueError("series and prime live on different truncations")
    return t.val(int(P.filtrations(t.block([x]), 1)[0]))


def random_pairs(trunc: TruncationSpec, rng: Pcg32, samples: int, terms: int = 3):
    """Blocks x and y of `samples` rows each, row s of both from draw s:
    each series sums `terms` monomials, drawn uniformly, with coefficients
    drawn from [1, p), x before y."""
    size, p = trunc.size, trunc.model.p
    cols, coefs = rng.below_many([size, p - 1] * (2 * samples * terms)).reshape(-1, 2).T
    rows, cols, coefs = sum_entries(np.arange(cols.size) // terms, cols, coefs + 1, p)
    y = rows % 2 == 1
    return ((rows[~y] // 2, cols[~y], coefs[~y]),
            (rows[y] // 2, cols[y], coefs[y]))


def completely_prime_probe(P: CentralPrimeSpec, rng: Pcg32,
                           samples: int = 100) -> dict:
    """Samples pairs from `rng` and checks the induced filtration behaves
    like a valuation: f(xy) = f(x) + f(y) whenever both factors resolve and
    the sum stays under the cutoff, never refuted otherwise; and multiples
    of the prime generator stay in the f-unresolved kernel.  Every sample is
    drawn first; the products and filtrations then run on blocks."""
    t = P.trunc
    W = t.W
    x, y = random_pairs(t, rng, samples)
    fx, fy, fxy = (P.filtrations(b, samples) for b in (x, y, t.mul_block(x, y)))
    total = fx + fy
    superadditive = (fxy < W) & (fxy < total)
    checked = (fx < W) & (fy < W) & (total < W)
    multiplicative = checked & (fxy != total)
    kernel, kernel_blocks = np.zeros((samples, 0), dtype=np.int64), ()
    if P.kind == "graph":
        gx = t.mul_block(t.block([P.generator()] * samples), x)
        kernel_blocks = (gx, t.mul_block(gx, y))
        kernel = np.stack([P.filtrations(z, samples) for z in kernel_blocks], axis=1)
    resolved = kernel < W
    violations = int(superadditive.sum() + multiplicative.sum() + resolved.sum())
    witnesses: list[dict] = []
    hit = superadditive | multiplicative | resolved.any(axis=1)
    for s in np.flatnonzero(hit).tolist():
        if len(witnesses) >= 5:
            break
        pair = {"x": format_row(t, x, s), "y": format_row(t, y, s),
                "f_x": str(t.val(fx[s])), "f_y": str(t.val(fy[s])),
                "f_xy": str(t.val(fxy[s]))}
        if superadditive[s]:
            witnesses.append({"kind": "superadditivity", **pair})
        if multiplicative[s]:
            witnesses.append({"kind": "multiplicativity", **pair})
        for z, f in zip(kernel_blocks, kernel[s]):
            if f < W:
                witnesses.append({"kind": "kernel", "element": format_row(t, z, s),
                                  "f": str(t.val(f))})
    return {
        "samples": samples,
        "checked": int(checked.sum()),
        "skipped": samples - int(checked.sum()),
        "kernel_checked": kernel.size,
        "violations": violations,
        "witnesses": witnesses[:5],
        "status": "pass" if not violations else "fail",
    }


# ---------------------------------------------------------------------------
# Central control for two-sided ideals
# ---------------------------------------------------------------------------

def zalesskii_check(trunc: TruncationSpec, generators: Sequence[TruncatedSeries],
                    Z: Optional[SubgroupSpec] = None, depth: int = 1,
                    budget: int = 4096) -> dict:
    """Is the two-sided span of the generators controlled by the centre?

    Faithfulness is a precondition: if the dagger search finds a non-trivial
    group element inside 1 + I at the given depth, the control question is
    not meaningful for this ideal and the check reports skipped.  Otherwise
    the span must be stable under the first divided powers of every
    non-central direction."""
    model = trunc.model
    Z = Z if Z is not None else model.centre
    if Z is None:
        raise ModelError("no central subgroup declared or supplied")
    if Z.model is not model:
        raise ModelError("central subgroup belongs to a different model")
    M = model.precision
    if any(0 < n < M for n in Z.exponents):
        raise ModelError(f"central pattern {Z.exponents} must keep or drop "
                         "each direction outright (exponents 0 or >= M)")
    if not Z.is_central():
        raise ModelError("supplied subgroup is not central")
    span = ideal_span(trunc, list(generators), "two-sided")
    dag = dagger_approx(span, depth, budget)
    faithful = dag == [(0,) * model.rank]
    report = {
        "dim": span.dim,
        "depth": depth,
        "dagger_size": len(dag),
        "faithful": faithful,
    }
    if not faithful:
        report["status"] = "skipped"
        report["dagger"] = [list(v) for v in dag[:10]]
        return report
    mask = tuple(1 if n >= M else 0 for n in Z.exponents)
    H = SubgroupSpec(model, mask)
    wits = control_witnesses(span, H)
    report["tested_directions"] = [i + 1 for i, n in enumerate(mask) if n]
    report["status"] = "controlled" if not wits else "not-controlled"
    report["witnesses"] = wits
    return report
