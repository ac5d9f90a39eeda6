"""Moore matrices, their determinant factorization, and the derivation
approximants built from them.

A Moore-type matrix over F_p has rows obtained by repeated Frobenius:
entry (j, i) is y_i^{p^{r+j-1}}.  Its determinant factors as a scalar times
the product of the projectively distinct linear forms in the y_i, which is
checked symbolically here (`moore_det_check`).

The same matrix with truncated-series entries drives the ζ experiment: for
an abelian model and an automorphism φ = exp of a matrix log, the series
y_i = embed(z(g_i)) - 1 (z from the exact p-adic logarithm of φ's matrix)
have a common least valuation λ on a block of size m, and the operators

    ζ_r(x) = Σ_j adj(M_r)_{ij} (φ^{p^{r+j-1}}(x) - x) / det(M_r)

converge to the first divided powers as r grows.  No fraction is formed:
v(det M_r) is resolved (checked against λ p^r (1 + p + ... + p^{m-1})), and
`zeta_eval` returns the numerators det(M_r)·ζ_r(x) of all test series as
one block.  `zeta_convergence` measures the distance
D(i, r) = min_x (v(ζ_r(x) - ∂_i(x)) - w(x)), read as
v(det·ζ_r(x) - det·∂_i(x)) - v(det) - w(x), and checks it increases
strictly in r, alongside the exhaustive determinant valuation identity, the
Cramer bound on inverse entries, and the Mahler coefficient asymptotics."""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import mul
from typing import Optional, Sequence, Union

import numpy as np

from .groups import Automorphism, ModelError
from .linalg import SparseMap, sum_entries
from .operators import _mahler_rows, first_divided_powers
from .padic import (
    AtLeast, PrecisionError, format_poly, format_val, mi_range, poly_combine,
    poly_frobenius, poly_product_sum, power,
)
from .series import TruncatedSeries, TruncationSpec, aut_map, series_frobenius


# ---------------------------------------------------------------------------
# Polynomials over F_p
# ---------------------------------------------------------------------------

class FpPolynomial:
    """Commuting multivariate polynomial over F_p.

    Monomials are exponent tuples; the canonical order is ascending by
    (total degree, exponents), and the leading term is the first in that
    order."""

    __slots__ = ("p", "nvars", "coeffs")

    def __init__(self, p: int, nvars: int, coeffs=None):
        clean = {}
        for a, c in (coeffs or {}).items():
            a = tuple(int(x) for x in a)
            if len(a) != nvars or any(x < 0 for x in a):
                raise ValueError(f"bad monomial {a} for {nvars} variables")
            c = int(c) % p
            if c:
                clean[a] = c
        self.p = p
        self.nvars = nvars
        self.coeffs = clean

    @classmethod
    def zero(cls, p: int, nvars: int) -> "FpPolynomial":
        return cls(p, nvars)

    @classmethod
    def constant(cls, p: int, nvars: int, c: int) -> "FpPolynomial":
        return cls(p, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, p: int, nvars: int, i: int) -> "FpPolynomial":
        a = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(p, nvars, {a: 1})

    def _check(self, other: "FpPolynomial") -> None:
        if self.p != other.p or self.nvars != other.nvars:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "FpPolynomial") -> "FpPolynomial":
        self._check(other)
        return FpPolynomial(self.p, self.nvars, poly_combine(
            (1, 1), (self.coeffs, other.coeffs), self.p))

    def __neg__(self) -> "FpPolynomial":
        return self.scale(-1)

    def __sub__(self, other: "FpPolynomial") -> "FpPolynomial":
        return self + (-other)

    def __mul__(self, other: "FpPolynomial") -> "FpPolynomial":
        self._check(other)
        return FpPolynomial(self.p, self.nvars, poly_product_sum(
            [(self.coeffs, other.coeffs)], self.p))

    def scale(self, c: int) -> "FpPolynomial":
        return FpPolynomial(self.p, self.nvars, poly_combine((c,), (self.coeffs,), self.p))

    def pow(self, k: int) -> "FpPolynomial":
        return power(self, k, FpPolynomial.constant(self.p, self.nvars, 1), mul)

    def frobenius(self, k: int = 1) -> "FpPolynomial":
        """self^{p^k}; coefficients are fixed by x -> x^p over F_p."""
        return FpPolynomial(self.p, self.nvars, poly_frobenius(self.coeffs, self.p, k))

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpPolynomial) and self.p == other.p
                and self.nvars == other.nvars and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.p, self.nvars, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def monomials(self) -> list:
        return sorted(self.coeffs, key=lambda a: (sum(a), a))

    def leading(self) -> tuple:
        """(monomial, coefficient) first in canonical order."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading term")
        a = self.monomials()[0]
        return a, self.coeffs[a]

    def min_total_degree(self) -> Optional[int]:
        if not self.coeffs:
            return None
        return min(sum(a) for a in self.coeffs)

    def __repr__(self) -> str:
        return f"FpPolynomial({format_fp_poly(self)})"


def format_fp_poly(q: FpPolynomial) -> str:
    return format_poly(q.coeffs, q.monomials(), "y")


# ---------------------------------------------------------------------------
# Moore matrices
# ---------------------------------------------------------------------------

Entry = Union[FpPolynomial, TruncatedSeries]


def _frob(v: Entry, k: int) -> Entry:
    if isinstance(v, FpPolynomial):
        return v.frobenius(k)
    return series_frobenius(v, k)


def moore_matrix(y: Sequence[Entry], r: int, m: int) -> list:
    """m x m matrix with entry (j, i) = y_i^{p^{r+j-1}} via repeated Frobenius."""
    if not 1 <= m <= len(y):
        raise ValueError(f"need 1 <= m <= {len(y)}, got {m}")
    if r < 0:
        raise ValueError("r must be nonnegative")
    first = y[0]
    if isinstance(first, TruncatedSeries):
        t = first.trunc
        p = t.model.p
        lams = []
        for v in y[:m]:
            w = v.valuation()
            if isinstance(w, AtLeast):
                raise PrecisionError("matrix entry vanishes mod F_W; its "
                                     "valuation is unresolved")
            lams.append(Fraction(w))
        top = p ** (r + m - 1) * min(lams)
        if top >= t.cutoff:
            need = top * t.e
            raise PrecisionError(
                f"truncation overflow: p^(r+m-1)*lambda = {top} >= W/e; "
                f"need W > {need}")
    rows = []
    current = [_frob(v, r) for v in y[:m]]
    for j in range(m):
        rows.append(list(current))
        if j < m - 1:
            current = [_frob(v, 1) for v in current]
    return rows


def matrix_det(rows: Sequence[Sequence]):
    """Determinant by first-column expansion; entries form a commutative ring."""
    m = len(rows)
    if m == 1:
        return rows[0][0]
    acc = None
    for i in range(m):
        minor = [list(row[1:]) for k, row in enumerate(rows) if k != i]
        term = rows[i][0] * matrix_det(minor)
        if i % 2:
            acc = -term if acc is None else acc - term
        else:
            acc = term if acc is None else acc + term
    return acc


def matrix_adjugate(rows: Sequence[Sequence], one):
    """adj[i][j] = (-1)^{i+j} det(rows without row j, column i)."""
    m = len(rows)
    if m == 1:
        return [[one]]
    adj = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [[rows[a][b] for b in range(m) if b != i]
                     for a in range(m) if a != j]
            det = matrix_det(minor)
            adj[i][j] = det if (i + j) % 2 == 0 else -det
    return adj


def projective_forms(p: int, m: int, r: int) -> list[FpPolynomial]:
    """The (p^m - 1)/(p - 1) forms sum mu_i y_i^{p^r}, one per projective
    point, represented with first non-zero coordinate 1, in lex order."""
    ys = [FpPolynomial.variable(p, m, i).frobenius(r).coeffs for i in range(m)]
    out = []
    for mu in mi_range((p - 1,) * m):
        nz = [v for v in mu if v]
        if nz and nz[0] == 1:
            out.append(FpPolynomial(p, m, poly_combine(mu, ys, p)))
    return out


def moore_det_check(p: int, m: int, r: int, budget: int = 4096) -> dict:
    """Exact factorization of det M_r over the projective linear forms.

    Returns the scalar c with det = c * product(forms), and checks the
    minimum total degree is (1 + p + ... + p^{m-1}) p^r (the weighted
    valuation identity under any uniform weight on the y_i).  The work is
    bounded: a case raises ValueError when its p^m points or its m!
    cofactor terms pass `budget`, before any work, and when the running
    product of the forms does, as it grows."""
    case = f"moore-det case [{p}, {m}, {r}]"
    if p ** m > budget:
        raise ValueError(f"{case}: p^m = {p ** m} exceeds the budget {budget}")
    if factorial(m) > budget:
        raise ValueError(f"{case}: the cofactor expansion has {m}! = {factorial(m)} "
                         f"terms, past the budget {budget}")
    forms = projective_forms(p, m, r)
    prod = FpPolynomial.constant(p, m, 1)
    for f in forms:
        prod = prod * f
        if len(prod.coeffs) > budget:
            raise ValueError(f"{case}: the product of the forms passes the budget "
                             f"of {budget} terms")
    ys = [FpPolynomial.variable(p, m, i) for i in range(m)]
    det = matrix_det(moore_matrix(ys, r, m))
    lead_mono, lead_coeff = prod.leading()
    c = det.coeffs.get(lead_mono, 0) * pow(lead_coeff, -1, p) % p
    factor_ok = bool(c) and det == prod.scale(c)
    mindeg = det.min_total_degree()
    expected = sum(p ** k for k in range(m)) * p ** r
    return {
        "p": p, "m": m, "r": r,
        "scalar": int(c),
        "factorization_ok": factor_ok,
        "min_total_degree": mindeg,
        "expected_degree": expected,
        "degree_ok": mindeg == expected,
        "factors": len(forms),
        "det": format_fp_poly(det),
        "status": "pass" if factor_ok and mindeg == expected else "fail",
    }


# ---------------------------------------------------------------------------
# Matrix logarithm for abelian automorphisms
# ---------------------------------------------------------------------------

def abelian_matrix_log(rows, p: int, M: int):
    """log A mod p^M for an integer matrix A = I mod p.

    The alternating series sum (-1)^{k+1} (A - I)^k / k is summed exactly
    over the rationals; every term has p-free denominator after reduction,
    so the sum reduces mod p^M.  Terms beyond k = 2M are divisible by p^M."""
    d = len(rows)
    a = [[int(x) for x in row] for row in rows]
    if any(len(row) != d for row in a):
        raise ValueError("matrix is not square")
    pm = p ** M
    n = [[(a[i][j] - (1 if i == j else 0)) % pm for j in range(d)]
         for i in range(d)]
    if any(n[i][j] % p for i in range(d) for j in range(d)):
        raise ModelError("matrix log needs A = I mod p")
    acc = [[Fraction(0)] * d for _ in range(d)]
    power = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for k in range(1, 2 * M + 3):
        power = [[sum(power[i][t] * n[t][j] for t in range(d)) for j in range(d)]
                 for i in range(d)]
        sign = 1 if k % 2 else -1
        for i in range(d):
            for j in range(d):
                acc[i][j] += Fraction(sign * power[i][j], k)
    out = []
    for i in range(d):
        row = []
        for fr in acc[i]:
            row.append(fr.numerator * pow(fr.denominator, -1, pm) % pm)
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# The zeta experiment
# ---------------------------------------------------------------------------

class ZetaExperiment:
    """Derivation-approximant experiment on an abelian model.

    The one-parameter form of the automorphism is recovered by the exact
    matrix logarithm U = log(A); z(g_i) = g^{U e_i} and y_i = embed(z(g_i)) - 1.
    Directions are sorted by resolved valuation of y_i; the block of size m
    shares the least value λ, and only those directions are approximated."""

    def __init__(self, trunc: TruncationSpec, phi: Automorphism,
                 r_range: Sequence[int] = (0, 1),
                 test_monomials: Optional[Sequence[TruncatedSeries]] = None):
        model = trunc.model
        if model.kind != "abelian":
            raise ModelError("the zeta experiment needs an abelian model")
        if phi.kind != "linear" or phi.model is not model:
            raise ModelError("need a linear automorphism of the model")
        self.trunc = trunc
        self.phi = phi
        p, M, d = model.p, model.precision, model.rank
        self.log = abelian_matrix_log(phi.matrix, p, M)
        # row i is y_i: the embedding of z(g_i), column i of log A, less 1
        emb = trunc._embed_rows(np.array(self.log, dtype=np.int64).T)
        emb[:, 0] -= 1
        rows, cols = np.nonzero(emb)
        ws = trunc.valuations((rows, cols, emb[rows, cols]), d)
        if ws.min() >= trunc.W:
            raise ModelError("phi is trivial at this precision; lambda unresolved")
        # the resolved values sort first, so every value after the block of
        # the least one, lambda, is larger: resolved, or at least W/e
        self.order = np.argsort(ws, kind="stable").tolist()
        self.lam = trunc.val(ws.min())
        self.m = int((ws == ws.min()).sum())
        self.y = [trunc.from_vector(emb[i]) for i in self.order]
        self.r_range = tuple(sorted(int(r) for r in r_range))
        if not self.r_range:
            raise ValueError("r_range is empty")
        if self.r_range[0] < 0:
            raise ValueError("r must be nonnegative")
        for a, b in zip(self.r_range, self.r_range[1:]):
            if a == b:
                raise ValueError(f"r_range: r = {a} is repeated")
        if test_monomials is None:
            test_monomials = []
            for i in range(self.m):
                direction = self.order[i]
                for k in range(1, 5):
                    key = tuple(k if t == direction else 0 for t in range(d))
                    if key in trunc.index:
                        test_monomials.append(trunc.monomial(key))
        self.test_monomials = list(test_monomials)
        if not self.test_monomials:
            raise ValueError("no test monomials inside the cutoff")
        for k, x in enumerate(self.test_monomials):
            if x.trunc is not trunc:
                raise ValueError(f"test series {k} is from a different truncation")
            if x.is_zero():
                raise ValueError(f"test series {k} is 0 mod F_W: its valuation "
                                 "is unresolved")
        self._pow_cache: dict = {}
        self._mat_cache: dict = {}

    def phi_power(self, n: int) -> Automorphism:
        hit = self._pow_cache.get(n)
        if hit is None:
            hit = self.phi.power(n)
            self._pow_cache[n] = hit
        return hit

    def det_valuation(self, r: int) -> Fraction:
        p = self.trunc.model.p
        return self.lam * p ** r * sum(p ** k for k in range(self.m))

    def matrices(self, r: int):
        """(Moore matrix, det, adjugate) for this r, cached."""
        hit = self._mat_cache.get(r)
        if hit is None:
            expected = self.det_valuation(r)
            if expected >= self.trunc.cutoff:
                raise PrecisionError(
                    f"insufficient cutoff: det valuation {expected} >= "
                    f"{self.trunc.cutoff}; need W > {expected * self.trunc.e}")
            mat = moore_matrix(self.y, r, self.m)
            det = matrix_det(mat)
            if det.valuation() != expected:
                raise PrecisionError(
                    f"determinant valuation {det.valuation()} does not match "
                    f"the predicted {expected}")
            adj = matrix_adjugate(mat, self.trunc.one())
            hit = (mat, det, adj)
            self._mat_cache[r] = hit
        return hit


def zeta_eval(exp: ZetaExperiment, i: int, r: int,
              xs: Sequence[TruncatedSeries]) -> tuple:
    """det(M_r)·ζ_r^{(i)}(x) for each x of xs, exact mod F_W: the block (see
    `TruncationSpec.mul_block`) whose row k is the numerator
    Σ_j adj(M_r)_{ij} (φ^{p^{r+j-1}}(x_k) - x_k) over det(M_r)."""
    if not 1 <= i <= exp.m:
        raise ValueError(f"index i must be in 1..{exp.m}")
    t = exp.trunc
    p, n = t.model.p, len(xs)
    _, _, adj = exp.matrices(r)
    rows, cols, coefs = t.block(xs)
    # row j*n + k, j from 0, is φ^{p^{r+j}}(x_k) - x_k, times adj[i - 1][j] below
    parts = []
    for j in range(exp.m):
        image = aut_map(t, exp.phi_power(p ** (r + j))).apply_entries(rows, cols, coefs)
        parts += [(image[0] + j * n, image[1], image[2]), (rows + j * n, cols, p - coefs)]
    diffs = sum_entries(*map(np.concatenate, zip(*parts)), p)
    at, cols, coefs = t.mul_block(
        t.block([adj[i - 1][j] for j in range(exp.m) for _ in xs]), diffs)
    return sum_entries(at % n, cols, coefs, p)


def zeta_convergence(exp: ZetaExperiment) -> dict:
    """Full measurement report; status is pass iff nothing is refuted.

    Checks, per approximated direction i: D(i, r) strictly increasing in r
    (on provable comparisons); the exhaustive determinant valuation identity
    v(sum mu_i y_i^{p^r}) = p^r λ; the Cramer bound on adj/det entries; and
    the Mahler coefficient asymptotics against y^{α p^r}.  Each check reads
    its valuations from one block at a time, as integers in units of 1/e
    (`TruncationSpec.valuations`), W meaning unresolved."""
    t = exp.trunc
    p, e, m = t.model.p, t.e, exp.m
    lam = int(exp.lam * e)
    records = []
    violations = []

    def text(f: int, exact: bool = True) -> str:
        """The report text of the value f/e, or of the bound f/e."""
        return format_val(Fraction(f, e) if exact else AtLeast(Fraction(f, e)))

    # -- D(i, r) monotonicity over the test monomials
    xs = exp.test_monomials
    ws = t.valuations(t.block(xs), len(xs))
    for i in range(1, m + 1):
        direction = exp.order[i - 1]
        dx = sum_entries(*first_divided_powers(t)[direction].apply_entries(*t.block(xs)), p)
        prev = None
        for r in exp.r_range:
            _, det, _ = exp.matrices(r)
            # v(ζ_r(x) - ∂_i x) - w(x) = v(num - det·∂_i x) - v(det) - w(x),
            # a bound only where num - det·∂_i x is 0 mod F_W
            at, cols, coefs = t.mul_block(t.block([det] * len(xs)), dx)
            f = t.valuations(sum_entries(*(np.concatenate(pair) for pair in zip(
                zeta_eval(exp, i, r, xs), (at, cols, p - coefs))), p), len(xs))
            g = f - int(exp.det_valuation(r) * e) - ws
            D = (int(g.min()), bool((g[f < t.W] == g.min()).any()))
            lam_term = exp.lam * p ** r
            rec = {
                "i": i, "r": r, "D": text(*D),
                "bound_A": format_val(lam_term / 2),
                "bound_B": format_val(p ** (2 * r) - p ** (r + m - 1) * exp.lam),
            }
            if prev is None:
                rec["monotone"] = "first"
            elif prev[1] and D[0] > prev[0]:
                rec["monotone"] = "increased"
            elif not (prev[1] and D[1]):
                rec["monotone"] = "unresolved"
            else:
                rec["monotone"] = "violation"
                violations.append({"kind": "monotonicity", "i": i, "r": r,
                                   "prev": text(*prev), "curr": text(*D)})
            records.append(rec)
            prev = D
    # -- exhaustive determinant-form valuations: the forms of one r are one
    # apply of k -> y_k^{p^r}, the first row of M_r, to the block of every
    # nonzero mu (each M_r exists by now, so p^r λ < W/e)
    mus = np.array([mu for mu in mi_range((p - 1,) * m) if any(mu)], dtype=np.int64)
    form, k = np.nonzero(mus)
    for r in exp.r_range:
        rows, cols, coefs = t.block(exp.matrices(r)[0][0])
        forms = SparseMap(p, t.size, cols, rows, coefs).apply_entries(form, k, mus[form, k])
        for mu, v in zip(mus.tolist(), t.valuations(sum_entries(*forms, p), len(mus)).tolist()):
            if v != p ** r * lam:
                violations.append({"kind": "form-valuation", "r": r, "mu": mu,
                                   "value": text(v, v < t.W), "expected": text(p ** r * lam)})
    # -- Cramer bound on inverse entries, every entry of every r in one block
    cells = [(r, i, j) for r in exp.r_range for i in range(m) for j in range(m)]
    adj = t.valuations(t.block([exp.matrices(r)[2][i][j] for r, i, j in cells]), len(cells))
    for (r, i, j), v in zip(cells, adj.tolist()):
        value, bound = v - int(exp.det_valuation(r) * e), -(p ** (r + j)) * lam
        if value < bound:
            violations.append({"kind": "cramer", "r": r, "i": i + 1, "j": j + 1,
                               "value": text(value, v < t.W), "bound": text(bound)})
    # -- Mahler coefficient asymptotics: <φ^{p^r}, ∂^(α)> against (y^α)^{p^r},
    # Frobenius being a ring endomorphism of kG/F_W on abelian models; the
    # products y^α = y^(α - e_k)·y_k, k the last direction of α, are made once
    alphas = [a for total in range(1, 4) for a in mi_range((total,) * m) if sum(a) == total]
    ys = {}
    for a in alphas:
        k = max(k for k, v in enumerate(a) if v)
        rest = a[:k] + (a[k] - 1,) + a[k + 1:]
        ys[a] = ys[rest] * exp.y[k] if any(rest) else exp.y[k]
    full = np.zeros((len(alphas), t.model.rank), dtype=np.int64)
    full[:, exp.order[:m]] = alphas
    asym_verified = asym_skipped = 0
    for r in exp.r_range:
        at, tgt, coefs = t.block([series_frobenius(ys[a], r) for a in alphas])
        diff = sum_entries(*(np.concatenate(pair) for pair in zip(
            _mahler_rows(t, exp.phi_power(p ** r), full), (at, tgt, p - coefs))), p)
        for a, v in zip(alphas, t.valuations(diff, len(alphas)).tolist()):
            bound = p ** (2 * r) * e + lam * p ** r * (sum(a) - 1)
            if v >= bound:
                asym_verified += 1
            elif v >= t.W:
                asym_skipped += 1
            else:
                violations.append({"kind": "asymptotics", "r": r, "alpha": list(a),
                                   "value": text(v), "bound": text(bound)})
    monotone_ok = all(rec["monotone"] in ("first", "increased")
                      for rec in records)
    return {
        "lambda": format_val(exp.lam),
        "m": m,
        "r_range": list(exp.r_range),
        "records": records,
        "monotone_ok": monotone_ok,
        "vdet_checked": len(mus) * len(exp.r_range),
        "cramer_checked": len(cells),
        "asymptotics_verified": asym_verified,
        "asymptotics_skipped": asym_skipped,
        "violations": violations,
        "status": "pass" if not violations else "fail",
    }
