"""Ideal spans and the structural tests built on them.

Everything here is exact F_p linear algebra on the monomial basis of a
truncation: ideals are row spaces closed under multiplication by the algebra
generators, and the interesting questions (is the ideal controlled by a
subgroup, which group elements sit inside 1 + I, does induction from a
subalgebra stay flat, is a centrally induced ideal completely prime) reduce
to rank computations and valuation bookkeeping.

All answers carry "mod F_W" semantics: a passing control or primality check
is a certificate at the truncation, not a global theorem, and reports say so
via the depth/cutoff parameters they quote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .groups import ModelError, SubgroupSpec, subgroup_from_exponents
from .linalg import RowSpace, intersect_coordinate_subspace, reduce_sparse
from .operators import divided_power_map
from .padic import (
    AtLeast, Val, ge_refuted, gt_provable, mi_range, mi_weight, val_add, val_min,
)
from .rng import Pcg32
from .series import TruncatedSeries, TruncationSpec, format_series, relative_normal_form

_SIDES = ("right", "two-sided")


@dataclass(frozen=True)
class IdealSpan:
    """Row-reduced span of an ideal mod F_W; rows are coefficient vectors."""

    trunc: TruncationSpec = field(repr=False)
    rows: np.ndarray
    pivots: tuple[int, ...]
    sided: str

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @cached_property
    def _sparse_rows(self) -> dict[int, dict[int, int]]:
        """The rows as {pivot: {column: coefficient}}, in pivot order."""
        out: dict[int, dict[int, int]] = {int(c): {} for c in self.pivots}
        at, cols = np.nonzero(self.rows)
        for k, c, x in zip(at.tolist(), cols.tolist(), self.rows[at, cols].tolist()):
            out[self.pivots[k]][c] = x
        return out

    def _residual(self, vec: dict, stop: bool = False) -> dict:
        """The residual of {column: coefficient} against the span, which is
        unique and zero at the pivots since the rows are in rref.  With stop
        it is cut at its least column, which still decides membership."""
        return reduce_sparse(vec, self._sparse_rows, self.trunc.model.p, stop)

    def contains_vector(self, vec) -> bool:
        vec = np.asarray(vec, dtype=np.int64)
        if vec.shape != (self.trunc.size,):
            raise ValueError(f"vector of shape {vec.shape}, expected "
                             f"({self.trunc.size},)")
        return not self._residual({c: x for c, x in enumerate(vec.tolist()) if x},
                                  stop=True)

    def contains(self, x: TruncatedSeries) -> bool:
        if x.trunc is not self.trunc:
            raise ValueError("series from a different truncation")
        return not self._residual({self.trunc.index[a]: c for a, c in x.coeffs.items()},
                                  stop=True)


def _unit_exponent(rank: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(rank))


def _close_span(trunc: TruncationSpec, generators, maps) -> RowSpace:
    """Span of the generators closed under maps of vectors {index: coefficient}."""
    space = RowSpace(trunc.model.p, trunc.size)
    queue = [{trunc.index[a]: c for a, c in g.coeffs.items()} for g in generators]
    while queue:
        v = queue.pop()
        if space.add(v):
            queue.extend(m(v) for m in maps)
    return space


def ideal_span(trunc: TruncationSpec, generators: Sequence[TruncatedSeries],
               sided: str = "right") -> IdealSpan:
    """Closure of the F_p-span of the generators under multiplication.

    Right spans close under x -> x*b_j for every j; two-sided spans also
    under left multiplication.  That reaches every product by a monomial, so
    the result is exactly (sum of gen*kG) mod F_W.
    """
    if sided not in _SIDES:
        raise ValueError(f"sidedness must be one of {_SIDES}, got {sided!r}")
    for g in generators:
        if g.trunc is not trunc:
            raise ValueError("generators from a different truncation")
    # in an abelian model the left maps equal the right ones
    abelian = trunc.model.kind == "abelian"
    sides = ("right",) if sided == "right" or abelian else ("right", "left")
    maps = [trunc.generator_map(j, side).apply_sparse
            for side in sides for j in range(trunc.model.rank)]
    space = _close_span(trunc, generators, maps)
    return IdealSpan(trunc, space.matrix(), tuple(space.pivots), sided)


# ---------------------------------------------------------------------------
# Control by a subgroup
# ---------------------------------------------------------------------------

def _stability_mask(H: SubgroupSpec) -> list[int]:
    if any(n not in (0, 1) for n in H.exponents):
        raise ModelError(f"subgroup shape {H.exponents} unsupported for control "
                         "tests: exponents must be 0 or 1")
    return [i for i, n in enumerate(H.exponents) if n == 1]


def control_witnesses(I: IdealSpan, H: SubgroupSpec) -> list[dict]:
    """Rows of I whose image under a tested operator escapes the span.

    The tested operators are the first divided powers for the directions H
    halves (exponent 1); directions fully inside H are untested.  Empty
    result means the span is stable, i.e. controlled by H mod F_W.
    """
    t = I.trunc
    if H.model is not t.model:
        raise ModelError("subgroup belongs to a different model")
    out = []
    for i in _stability_mask(H):
        hit = _escape(I, i)
        if hit is not None:
            k, res = hit
            out.append({
                "direction": i + 1,
                "row": format_series(t.from_vector(I.rows[k])),
                "escapes_as": format_series(t.from_dict({t.basis[c]: x
                                                         for c, x in res.items()})),
            })
    return out


def _escape(I: IdealSpan, i: int) -> Optional[tuple[int, dict]]:
    """(k, residual) for the first row k of I, in pivot order, whose image
    under del_i has a nonzero residual against the span; None if the span
    is del_i-stable."""
    t = I.trunc
    d_i = divided_power_map(t, _unit_exponent(t.model.rank, i))
    for k, row in enumerate(I._sparse_rows.values()):
        res = I._residual(d_i.apply_sparse(row))
        if res:
            return k, res
    return None


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
    box = model.p ** depth
    one_at = t.index[(0,) * model.rank]
    out = []
    for lam in mi_range((box - 1,) * model.rank):  # in sorted order
        row = t._embed_row(model.element(lam)).tolist()
        vec = {c: x for c, x in enumerate(row) if x}
        vec[one_at] -= 1
        if not I._residual(vec, stop=True):
            out.append(lam)
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
                          generators: Sequence[TruncatedSeries]) -> np.ndarray:
    """Canonical row basis of the right ideal of the H-subalgebra generated
    by the given elements (which must already lie in the subalgebra)."""
    allowed = set(subalgebra_monomials(trunc, H))
    for g in generators:
        if g.trunc is not trunc:
            raise ValueError("generators from a different truncation")
        stray = [a for a in g.coeffs if a not in allowed]
        if stray:
            raise ValueError(f"generator term {stray[0]} lies outside the subalgebra")
    # the subalgebra generators are b_j^{p^n_j}: apply x -> x*b_j p^n_j times
    def power_map(step, k: int):
        def apply(v):
            for _ in range(k):
                v = step(v)
            return v
        return apply

    maps = [power_map(trunc.generator_map(j).apply_sparse, trunc.model.p ** n)
            for j, n in enumerate(H.exponents) if n < trunc.model.precision]
    return _close_span(trunc, generators, maps).matrix()


def flatness_check(trunc: TruncationSpec, H: SubgroupSpec,
                   generators: Sequence[TruncatedSeries]) -> dict:
    """Induction from the subalgebra changes nothing inside it:
    span(J*kG) intersected with the subalgebra equals span(J).

    The two sides are computed by independent closures (J under the
    subalgebra generators, J*kG under the full generator set), so equality
    of the canonical bases is a genuine cross-check.
    """
    p = trunc.model.p
    jrows = subalgebra_ideal_span(trunc, H, generators)
    induced = ideal_span(trunc, list(generators), "right")
    keep = [trunc.index[a] for a in subalgebra_monomials(trunc, H)]
    meet = intersect_coordinate_subspace(induced.rows, p, keep)
    flat = jrows.shape == meet.shape and bool(np.array_equal(jrows, meet))
    return {
        "dim_subalgebra_ideal": int(jrows.shape[0]),
        "dim_induced_ideal": induced.dim,
        "dim_intersection": int(meet.shape[0]),
        "flat": flat,
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
            self._u_pows = [trunc.one(), u]
        elif target is not None or u is not None:
            raise ValueError("zero prime takes no target or substitution")

    def generator(self) -> TruncatedSeries:
        if self.kind != "graph":
            raise ValueError("the zero prime has no generator")
        t = self.trunc
        return t.monomial(_unit_exponent(t.model.rank, self.target)) - self.u

    def _u_pow(self, k: int) -> TruncatedSeries:
        while len(self._u_pows) <= k:
            self._u_pows.append(self._u_pows[-1] * self.u)
        return self._u_pows[k]

    def tau(self, r: TruncatedSeries) -> TruncatedSeries:
        """Quotient map on the central subalgebra (identity for the zero prime)."""
        if self.kind == "zero":
            return r
        t = self.trunc
        j = self.target
        p = t.model.p
        plain: dict = {}
        acc = t.zero()
        for a, cf in r.coeffs.items():
            k = a[j]
            if k == 0:
                plain[a] = (plain.get(a, 0) + cf) % p
            else:
                base = a[:j] + (0,) + a[j + 1:]
                acc = acc + t.monomial(base, cf) * self._u_pow(k)
        return acc + TruncatedSeries(t, plain)


def induced_filtration(x: TruncatedSeries, P: CentralPrimeSpec,
                       split: Optional[int] = None) -> Val:
    """Filtration degree induced by the quotient mod P on the centre:
    f(sum r_gamma c^gamma) = min over gamma of v(tau(r_gamma)) + w(c^gamma).

    For the zero prime this equals the plain valuation w.  Values pushed
    past the cutoff come back as AtLeast markers, in particular for every
    element of the induced ideal P*kG."""
    t = x.trunc
    if t is not P.trunc:
        raise ValueError("series and prime live on different truncations")
    c = P.central_block
    if split is not None and split != c:
        raise ValueError(f"split {split} does not match the central block {c}")
    parts = relative_normal_form(x, c)
    if not parts:
        return AtLeast(t.cutoff)
    tail_omega = t.omega[c:]
    vals = []
    for gamma, r in parts.items():
        term = val_add(P.tau(r).valuation(), mi_weight(gamma, tail_omega))
        # tau only sees r_gamma mod the shifted cutoff: resolved values that
        # land at or past W/e could be tail artifacts, so demote them
        if not isinstance(term, AtLeast) and term >= t.cutoff:
            term = AtLeast(t.cutoff)
        vals.append(term)
    return val_min(vals)


def _random_series(trunc: TruncationSpec, rng: Pcg32, terms: int = 3) -> TruncatedSeries:
    p = trunc.model.p
    coeffs: dict = {}
    for _ in range(terms):
        a = trunc.basis[rng.below(trunc.size)]
        coeffs[a] = (coeffs.get(a, 0) + 1 + rng.below(p - 1)) % p
    return TruncatedSeries(trunc, coeffs)


def completely_prime_probe(P: CentralPrimeSpec, samples: int = 100,
                           seed: int = 0) -> dict:
    """Samples pairs and checks the induced filtration behaves like a
    valuation: f(xy) = f(x) + f(y) whenever both factors resolve and the sum
    stays under the cutoff, never refuted otherwise; and multiples of the
    prime generator stay in the f-unresolved kernel."""
    t = P.trunc
    rng = Pcg32(seed, stream=31)
    checked = skipped = kernel_checked = 0
    witnesses: list[dict] = []
    gen = P.generator() if P.kind == "graph" else None
    for _ in range(samples):
        x = _random_series(t, rng)
        y = _random_series(t, rng)
        fx = induced_filtration(x, P)
        fy = induced_filtration(y, P)
        fxy = induced_filtration(x * y, P)
        lower = val_add(fx, fy)
        if ge_refuted(fxy, lower):
            witnesses.append({
                "kind": "superadditivity",
                "x": format_series(x), "y": format_series(y),
                "f_x": str(fx), "f_y": str(fy), "f_xy": str(fxy),
            })
        resolved = not (isinstance(fx, AtLeast) or isinstance(fy, AtLeast))
        if resolved and Fraction(fx) + Fraction(fy) < t.cutoff:
            checked += 1
            if isinstance(fxy, AtLeast) or Fraction(fxy) != Fraction(fx) + Fraction(fy):
                witnesses.append({
                    "kind": "multiplicativity",
                    "x": format_series(x), "y": format_series(y),
                    "f_x": str(fx), "f_y": str(fy), "f_xy": str(fxy),
                })
        else:
            skipped += 1
        if gen is not None:
            gx = gen * x
            for z in (gx, gx * y):
                kernel_checked += 1
                fz = induced_filtration(z, P)
                if not isinstance(fz, AtLeast):
                    witnesses.append({
                        "kind": "kernel", "element": format_series(z), "f": str(fz),
                    })
    return {
        "samples": samples,
        "checked": checked,
        "skipped": skipped,
        "kernel_checked": kernel_checked,
        "violations": len(witnesses),
        "witnesses": witnesses[:5],
        "status": "pass" if not witnesses else "fail",
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
