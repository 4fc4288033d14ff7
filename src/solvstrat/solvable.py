"""Curvature of solvable metric Lie algebras split as a + n.

The basis is orthonormal with the first dim_a vectors spanning a complement
a and the remaining dim_n spanning an ideal n containing [s, s].  All
curvature data of the left-invariant metric comes out of the structure
constants:

    R_pq    = -1/2 sum_ij C_pi^j C_qi^j + 1/4 sum_ij C_ij^p C_ij^q
    Ricci   = R - 1/2 B - S(ad H)
    H       = sum_r tr(ad A_r) A_r        (mean curvature, in a)
    B(x, y) = tr(ad x ad y)               (Killing form)

with S(m) = (m + m^T)/2.  In coefficients, with C_pk^r the r-th component of
[b_p, b_k] (so (ad b_p)_rk = C_pk^r),

    B_pq = sum_r sum_k C_pk^r C_qr^k,     tr ad A_r = sum_j C_rj^j,
    (ad H)_kj = sum_r h_r C_rj^k,

all summed over the nonzero coefficients only, and so are the three terms
of the standardness audit (see AuditReport).  An algebra computes these
once, as its cached `curvature`, which every curvature function reads.
Everything is exact on rational input and float otherwise; verdicts
compare by linalg.is_zero / nonneg.  Exact algebras take an integer route:
N = L C is the bracket's cached integer view, and one pass over pairs of its
nonzero entries gives the numerators L h, L^2 B, 4 L^2 R, L^2 ad H and
4 L^2 Ricci (_curvature_numerators), each turned into Fractions once.  The
Einstein check reads those numerators, so every float it reports is one
correctly rounded int / int division.  The universal trace identity
tr(R E) = 1/4 <pi(E) mu, mu> (true for any tensor mu, Jacobi or not) gives
every report two independent routes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .bracket import (BracketTensor, _ad_lists, _moment_numerator, _ric_exact,
                      _slot_tables, act, inner, is_solvable, jacobi_check,
                      permutation_act, rep)
from .flow import ric_array
from .linalg import Scalar, frac, is_exact
from .strata import DiagonalWeight, beta_of, in_W

EINSTEIN_TOL = 1e-8


@dataclass(frozen=True)
class MetricSolvableAlgebra:
    """Solvable Lie bracket on an orthonormal basis, a-block first."""

    dim_a: int
    dim_n: int
    bracket: BracketTensor

    @staticmethod
    def create(dim_a: int, dim_n: int, bracket: BracketTensor,
               gram=None, tol: float = 1e-8) -> "MetricSolvableAlgebra":
        d = dim_a + dim_n
        if bracket.dim != d:
            raise ValueError(f"bracket dimension {bracket.dim} != dim_a + dim_n = {d}")
        if gram is not None:
            bracket = orthonormalize_basis(dim_a, dim_n, bracket, gram)
        for (i, j, k) in bracket.coeffs:
            if k <= dim_a:
                raise ValueError(f"bracket value escapes n: coefficient ({i},{j},{k}) "
                                 "hits the a-block, so [s,s] is not inside n")
        ok, res = jacobi_check(bracket, tol)
        if not ok:
            raise ValueError(f"Jacobi identity fails (residual {float(res):g})")
        if not is_solvable(bracket, tol):
            raise ValueError("bracket is not solvable")
        return MetricSolvableAlgebra(dim_a, dim_n, bracket)

    @property
    def dim(self) -> int:
        return self.dim_a + self.dim_n

    def mu_n(self) -> BracketTensor:
        """Restriction of the bracket to n (indices shifted to 1..dim_n)."""
        m = self.dim_a
        coeffs = {(i - m, j - m, k - m): c for (i, j, k), c in self.bracket.coeffs.items()
                  if i > m}
        return BracketTensor(self.dim_n, coeffs, self.bracket.scalar_mode)

    @functools.cached_property
    def curvature(self) -> "Curvature":
        """H, B, R, S(ad H) and Ricci = R - B/2 - S(ad H), computed once."""
        if self.bracket.is_exact_mode:
            num = self._numerators
            sq = num.den * num.den
            return Curvature(linalg.fraction_rows([num.mean], num.den)[0],
                             linalg.fraction_rows(num.killing, sq),
                             linalg.fraction_rows(num.r, 4 * sq),
                             linalg.fraction_rows(num.s_ad_h, 2 * sq),
                             linalg.fraction_rows(num.ricci, 4 * sq))
        h = _float_mean(self)
        b = _float_killing(self)
        r = ric_array(self.bracket.to_array()).tolist()
        sh = _float_s_ad_h(self, h)
        ric = [[x - 0.5 * y - z for x, y, z in zip(rr, rb, rs)] for rr, rb, rs in zip(r, b, sh)]
        return Curvature(h, b, r, sh, ric)

    @functools.cached_property
    def _numerators(self) -> "_Numerators":
        return _curvature_numerators(self)

    @functools.cached_property
    def _einstein(self) -> tuple[Scalar, Scalar, float, float | None]:
        return _einstein_values(self)


@dataclass(frozen=True)
class Curvature:
    """Curvature of a metric solvable algebra; matrices on the full algebra."""

    mean: list
    killing: list
    r: list
    s_ad_h: list
    ricci: list


class _Numerators(NamedTuple):
    """Integer numerators of the curvature of an exact algebra.

    With L the lcm of the denominators of the structure constants:
    H = mean / L, B = killing / L^2, R = r / (4 L^2),
    S(ad H) = s_ad_h / (2 L^2) and Ricci = ricci / (4 L^2).
    """

    den: int
    mean: list[int]
    killing: list[list[int]]
    r: list[list[int]]
    s_ad_h: list[list[int]]
    ricci: list[list[int]]


def _curvature_numerators(s: MetricSolvableAlgebra) -> _Numerators:
    """The integer curvature kernel of an exact algebra.

    N = L C is the cached integer view of the bracket, laid out by
    _slot_tables; then
    L h_r = sum_j N_rj^j, L^2 B_pq = sum_{r, k} N_pk^r N_qr^k,
    (L^2 ad H)_kj = sum_r (L h_r) N_rj^k and 4 L^2 R come out of pairs of
    its nonzero entries; 2 L^2 S(ad H) = L^2 (ad H + ad H^T) and the Ricci
    numerator is 4 L^2 R - 2 L^2 B - 2 L^2 (ad H + ad H^T).
    """
    d, m = s.dim, s.dim_a
    den, coeffs = s.bracket._integer
    by_slot, by_pair = _slot_tables(coeffs)
    mean = [0] * m
    for (y, z), entries in by_slot.items():
        if y == z:
            for x, n in entries:
                if x <= m:
                    mean[x - 1] += n
    killing = [[0] * d for _ in range(d)]
    adh = [[0] * d for _ in range(d)]
    for (y, z), left in by_slot.items():
        # left lists (p, N_py^z); by_slot[(z, y)] lists (q, N_qz^y)
        for q, w in by_slot.get((z, y), ()):
            for p, x in left:
                killing[p - 1][q - 1] += x * w
        row = adh[z - 1]
        for x, n in left:
            if x <= m and mean[x - 1]:
                row[y - 1] += mean[x - 1] * n
    sym = [[x + y for x, y in zip(row, col)] for row, col in zip(adh, zip(*adh))]
    r = _moment_numerator(d, by_slot, by_pair)
    ricci = [[x - 2 * (y + z) for x, y, z in zip(rr, rb, rs)]
             for rr, rb, rs in zip(r, killing, sym)]
    return _Numerators(den, mean, killing, r, sym, ricci)


def orthonormalize_basis(dim_a: int, dim_n: int, bracket: BracketTensor, gram) -> BracketTensor:
    """Rewrite the structure constants in an orthonormal basis.

    The Gram matrix is factored with the n-block first so that the new n
    spans the old n and the new a is its orthogonal complement; the returned
    basis is again a-first.  Float arithmetic (Cholesky).
    """
    d = dim_a + dim_n
    g = np.asarray([[float(x) for x in row] for row in gram], dtype=float)
    if g.shape != (d, d):
        raise ValueError(f"gram matrix must be {d} x {d}")
    if not np.allclose(g, g.T, atol=1e-12):
        raise ValueError("gram matrix must be symmetric")
    perm = list(range(dim_a + 1, d + 1)) + list(range(1, dim_a + 1))  # image list, n first
    sigma = [0] * d
    for pos, img in enumerate(perm):
        sigma[img - 1] = pos + 1
    # sigma sends old index i to its position in the n-first ordering
    mu_p = permutation_act(sigma, bracket)
    order = [i - 1 for i in perm]
    g_p = g[np.ix_(order, order)]
    try:
        ell = np.linalg.cholesky(g_p)
    except np.linalg.LinAlgError as exc:
        raise ValueError("gram matrix is not positive definite") from exc
    mu_f = act(ell.T, mu_p)
    sigma_inv = [0] * d
    for i, s in enumerate(sigma):
        sigma_inv[s - 1] = i + 1
    return permutation_act(sigma_inv, mu_f)


def mean_curvature(s: MetricSolvableAlgebra) -> list[Scalar]:
    """Coordinates of H = sum_r tr(ad A_r) A_r in the a-basis."""
    return s.curvature.mean


def killing_form(s: MetricSolvableAlgebra):
    """B_pq = sum_r (sum_k C_pk^r C_qr^k), over pairs of nonzero coefficients."""
    return s.curvature.killing


def r_operator(s: MetricSolvableAlgebra):
    """The moment-map part of the Ricci operator (entrywise formula)."""
    return s.curvature.r


def s_ad_h(s: MetricSolvableAlgebra):
    return s.curvature.s_ad_h


def _float_mean(s: MetricSolvableAlgebra) -> list[float]:
    """H of a float algebra: tr ad A_r = sum_j C_rj^j."""
    coeff = s.bracket.coeff
    return [sum((coeff(r, j, j) for j in range(1, s.dim + 1)), 0.0)
            for r in range(1, s.dim_a + 1)]


def _float_killing(s: MetricSolvableAlgebra) -> list[list[float]]:
    """The Killing form of a float algebra.

    The inner sums run over k ascending and the outer one over r ascending,
    the order of tr(ad b_p ad b_q) as a matrix product, so the entries equal
    that dense route bit for bit.
    """
    d = s.dim
    by_slot = _slot_tables(s.bracket.coeffs)[0]
    b = [[0.0] * d for _ in range(d)]
    for r in range(1, d + 1):
        inner: dict[tuple[int, int], float] = {}
        for k in range(1, d + 1):
            left, right = by_slot.get((k, r)), by_slot.get((r, k))
            if not (left and right):
                continue
            for p, x in left:
                for q, y in right:
                    inner[(p, q)] = inner.get((p, q), 0.0) + x * y
        for (p, q), v in inner.items():
            b[p - 1][q - 1] = b[p - 1][q - 1] + v
    return b


def _float_s_ad_h(s: MetricSolvableAlgebra, h) -> list[list[float]]:
    """S(ad H) of a float algebra for the mean curvature coordinates h.

    (ad H)_kj accumulates h_r C_rj^k over r ascending; row r of _ad_lists
    lists the (j, k, C_rj^k) of the coefficients that involve r.
    """
    d = s.dim
    rows = _ad_lists(s.bracket.coeffs, d)
    adh = [[0.0] * d for _ in range(d)]
    for r, hr in enumerate(h, start=1):
        if hr:
            for j, k, c in rows[r]:
                adh[k - 1][j - 1] = adh[k - 1][j - 1] + hr * c
    return [[(adh[i][j] + adh[j][i]) * 0.5 for j in range(d)] for i in range(d)]


def ricci_operator(s: MetricSolvableAlgebra):
    return s.curvature.ricci


class EinsteinCheck(NamedTuple):
    ok: bool
    c: Scalar
    residual: float
    c_formula_residual: float | None
    tol: float


def einstein_check(s: MetricSolvableAlgebra, tol: float = EINSTEIN_TOL) -> EinsteinCheck:
    """Is Ricci = c I?  c is tr(Ricci)/dim; the residual is the entrywise
    deviation.  On an exact algebra it is exact, and the verdict is that it
    is 0; on a float one it is compared against tol * max(1, |Ricci|_inf).

    For non-unimodular algebras the independent formula
    c = -tr S(ad H)^2 / tr S(ad H) is evaluated and its deviation reported.
    Everything but the verdict is computed once per algebra.
    """
    c, resid, scale, cf = s._einstein
    return EinsteinCheck(linalg.is_zero(resid, tol * scale), c, float(resid), cf, tol)


def _einstein_values(s: MetricSolvableAlgebra) -> tuple[Scalar, Scalar, float, float | None]:
    """(c, residual, scale, c_formula_residual) of einstein_check.

    An exact algebra works on its integer numerators: with q = 4 L^2,
    Ricci = ricci / q and S(ad H) = 2 P / q, so c = tr(ricci) / (q d), each
    deviation is (d ricci_ij - tr(ricci) delta_ij) / (q d), and c - c_alt
    is (tr(ricci) tr P + 2 d tr P^2) / (q d tr P).  The residual stays an
    exact Fraction, 0 exactly when ricci is a multiple of I; every float is
    one int / int division, correctly rounded as float(Fraction) is, so it
    is the float of the rational.
    """
    d = s.dim
    if not s.bracket.is_exact_mode:
        cur = s.curvature
        ric, sh = cur.ricci, cur.s_ad_h
        c = linalg.trace(ric) / d
        resid = max(abs(float(ric[i][j] - (c if i == j else 0))) for i in range(d)
                    for j in range(d))
        scale = max(1.0, max(abs(float(x)) for row in ric for x in row))
        tr_sh = linalg.trace(sh)
        cf = None
        if abs(float(tr_sh)) > 1e-12:
            c_alt = -linalg.trace_product(sh, sh) / tr_sh
            cf = abs(float(c - c_alt))
        return c, float(resid), scale, cf
    num = s._numerators
    q = 4 * num.den * num.den
    ric, p = num.ricci, num.s_ad_h
    tr = sum(ric[i][i] for i in range(d))
    dev = max(abs(d * x - (tr if i == j else 0)) for i, row in enumerate(ric)
              for j, x in enumerate(row))
    scale = max(1.0, max(abs(x) for row in ric for x in row) / q)
    tr_p = sum(p[i][i] for i in range(d))
    cf = None
    if abs(2 * tr_p / q) > 1e-12:
        sq_p = sum(x * x for row in p for x in row)
        cf = abs(tr * tr_p + 2 * d * sq_p) / (q * d * abs(tr_p))
    return Fraction(tr, q * d), Fraction(dev, q * d), scale, cf


class StandardCheck(NamedTuple):
    ok: bool
    max_violation: float


def is_standard(s: MetricSolvableAlgebra, tol: float = EINSTEIN_TOL) -> StandardCheck:
    """Standard means the orthogonal complement a of n is abelian."""
    worst = s.bracket.zero
    for (_i, j, _k), c in s.bracket.coeffs.items():
        if j <= s.dim_a:
            worst = max(worst, abs(c))
    return StandardCheck(linalg.is_zero(worst, tol), float(worst))


@dataclass(frozen=True)
class CurvatureReport:
    mean_curvature: list
    killing: list
    r_op: list
    ricci: list
    einstein: EinsteinCheck
    standard: StandardCheck
    killing_n_max: float

    def to_json_dict(self) -> dict:
        def mat(m):
            return [[linalg.format_scalar(x) for x in row] for row in m]

        return {
            "mean_curvature": [linalg.format_scalar(x) for x in self.mean_curvature],
            "killing": mat(self.killing),
            "r_operator": mat(self.r_op),
            "ricci": mat(self.ricci),
            "einstein": {
                "ok": self.einstein.ok,
                "c": linalg.format_scalar(self.einstein.c),
                "residual": self.einstein.residual,
                "c_formula_residual": self.einstein.c_formula_residual,
                "tol": self.einstein.tol,
            },
            "standard": {"ok": self.standard.ok,
                         "max_violation": self.standard.max_violation},
            "killing_n_max": self.killing_n_max,
        }


def curvature_report(s: MetricSolvableAlgebra, tol: float = EINSTEIN_TOL) -> CurvatureReport:
    cur = s.curvature
    b, m = cur.killing, s.dim_a
    kn = max((abs(float(b[i][j])) for i in range(m, s.dim) for j in range(m, s.dim)),
             default=0.0)
    return CurvatureReport(cur.mean, b, cur.r, cur.ricci, einstein_check(s, tol),
                           is_standard(s, tol), kn)


class TraceIdentity(NamedTuple):
    tr_re: Scalar
    pairing: Scalar
    residual: float


def trace_identity_check(s: MetricSolvableAlgebra, e) -> TraceIdentity:
    """tr(R E) versus (1/4) <pi(E) mu, mu>: equal for any tensor, no Jacobi
    needed.  E is an arbitrary square matrix on the full algebra."""
    r = r_operator(s)
    d = s.dim
    rows = np.asarray(e).tolist()
    tr_re = sum(r[p][q] * rows[q][p] for p in range(d) for q in range(d))
    pairing = inner(rep(rows, s.bracket), s.bracket) / 4
    return TraceIdentity(tr_re, pairing, abs(float(tr_re - pairing)))


def rank_one_extension(lam: BracketTensor, c: Scalar | None = None,
                       tol: float = 1e-8) -> MetricSolvableAlgebra:
    """Extend a nilsoliton bracket by one derivation to an Einstein candidate.

    Requires Ric_lam = c I + D with D a derivation of lam; then a = R A with
    ad A|n = D / sqrt(tr D).  The Einstein constant of the extension is c,
    recovered from c = tr(Ric^2) / tr(Ric).  For lam = 0 the constant is not
    determined by lam and defaults to -dim (hyperbolic-space normalization);
    pass c to override.  Raises ValueError when D fails to be a derivation.
    """
    n = lam.dim
    if lam.is_zero():
        cc = frac(c) if c is not None and is_exact(c) else (Fraction(-n) if c is None else float(c))
        if not cc < 0:
            raise ValueError("the Einstein constant of an extension must be negative")
        tr_d = -cc * n
        d_mat = [[-cc if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        ric = _ric_exact(lam) if lam.is_exact_mode else ric_array(lam.to_array()).tolist()
        cc = linalg.trace_product(ric, ric) / linalg.trace(ric)
        d_mat = [[x - cc if i == j else x for j, x in enumerate(row)]
                 for i, row in enumerate(ric)]
        resid = rep(d_mat, lam)
        rnorm = math.sqrt(abs(float(inner(resid, resid))))
        scale_ref = max(1.0, math.sqrt(abs(float(inner(lam, lam)))))
        failed = (not resid.is_zero()) if lam.is_exact_mode else rnorm > tol * scale_ref
        if failed:
            raise ValueError("not a nilsoliton: Ric - cI fails to be a derivation "
                             f"(residual {rnorm:g})")
        tr_d = linalg.trace(d_mat)
        if not float(tr_d) > 0:
            raise ValueError(f"tr(Ric - cI) = {float(tr_d):g} is not positive")
    root = linalg.sqrt_fraction(frac(tr_d)) if is_exact(tr_d) else None
    scale = root if root is not None else math.sqrt(float(tr_d))
    ada = [[x / scale for x in row] for row in d_mat]

    coeffs: dict[tuple[int, int, int], Scalar] = {}
    for (i, j, k), v in lam.coeffs.items():
        coeffs[(1 + i, 1 + j, 1 + k)] = v
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            v = ada[k - 1][j - 1]
            if v:
                coeffs[(1, 1 + j, 1 + k)] = v
    return MetricSolvableAlgebra.create(1, n, BracketTensor.make(n + 1, coeffs), tol=max(tol, 1e-7))


@dataclass(frozen=True)
class AuditReport:
    """Decomposition tr((cI + B/2 + S(ad H)) E) = t1 + t2 + t3 for
    E = diag(0_a, beta + |beta|^2 I_n)  (E|_n = I_n when mu = 0).

        t1 = 1/4 <pi(E|_n) mu, mu>
           = 1/2 sum_{m < i} (E_k - E_i - E_j) (C_ij^k)^2
        t2 = 1/4 sum_rs <E|_n [A_r, A_s], [A_r, A_s]>
           = 1/2 sum_{j <= m} E_k (C_ij^k)^2
        t3 = 1/2 sum_r <[E|_n, ad A_r|_n], ad A_r|_n>
           = 1/2 sum_{i <= m < j} (E_k - E_j) (C_ij^k)^2

    with m = dim_a and E_k the k-th diagonal entry of E.  The sums run over
    the stored coefficients C_ij^k (i < j): t1 over those of mu = [n, n], t2
    over [a, a] and t3 over [a, n].

    For an Einstein metric the left side vanishes and each term is
    nonnegative, so all three vanish; t2 = 0 with a positive E|_n forces
    [a, a] = 0, which is standardness.
    """

    mu_zero_branch: bool
    beta: DiagonalWeight | None
    shift_factor: Scalar
    c: Scalar
    lhs: Scalar
    term1: Scalar
    term2: Scalar
    term3: Scalar
    identity_residual: float
    tr_e_sq_residual: float
    tr_adh_residual: float
    in_w_ok: bool
    nonneg_ok: bool
    einstein: EinsteinCheck
    standard: StandardCheck
    forces_standard: bool

    def to_json_dict(self) -> dict:
        fs = linalg.format_scalar
        return {
            "mu_zero_branch": self.mu_zero_branch,
            "beta": [fs(x) for x in self.beta.entries] if self.beta else None,
            "shift_factor": fs(self.shift_factor),
            "c": fs(self.c),
            "lhs": fs(self.lhs),
            "terms": [fs(self.term1), fs(self.term2), fs(self.term3)],
            "identity_residual": self.identity_residual,
            "tr_e_sq_residual": self.tr_e_sq_residual,
            "tr_adh_residual": self.tr_adh_residual,
            "in_w_ok": self.in_w_ok,
            "nonneg_ok": self.nonneg_ok,
            "einstein_ok": self.einstein.ok,
            "standard_ok": self.standard.ok,
            "forces_standard": self.forces_standard,
        }


def standardness_audit(s: MetricSolvableAlgebra, beta: DiagonalWeight | None = None,
                       tol: float = EINSTEIN_TOL) -> AuditReport:
    """Run the three-term audit of the standardness argument on s.

    beta defaults to the stratum label of the nilpotent part (minimum-norm
    point of its weights), which always contains mu in its W-set.  A zero
    nilpotent part switches to E|_n = I with shift factor 1.
    """
    mu = s.mu_n()
    m, n = s.dim_a, s.dim_n
    zero = s.bracket.zero
    zero_branch = mu.is_zero()
    if zero_branch:
        shift = (zero + 1,) * n
        kappa: Scalar = zero + 1
        w_ok = True
        beta = None
    else:
        if beta is None:
            beta = beta_of(mu)
        shift = beta.shifted()
        kappa = beta.norm_sq()
        w_ok = in_W(mu, beta, tol).ok

    cur = s.curvature
    b, sh = cur.killing, cur.s_ad_h
    ec = einstein_check(s, tol)
    c = ec.c

    # E vanishes outside the n-block, so the trace collapses to it
    lhs = sum((c + b[m + i][m + i] / 2 + sh[m + i][m + i]) * shift[i] for i in range(n))

    e = (zero,) * m + tuple(shift)
    term1 = term2 = term3 = zero
    for (i, j, k), x in s.bracket.coeffs.items():
        sq = x * x
        if i > m:
            term1 = term1 + (e[k - 1] - e[i - 1] - e[j - 1]) * sq
        elif j <= m:
            term2 = term2 + e[k - 1] * sq
        else:
            term3 = term3 + (e[k - 1] - e[j - 1]) * sq
    term1, term2, term3 = term1 / 2, term2 / 2, term3 / 2

    identity_residual = abs(float(lhs - (term1 + term2 + term3)))
    tr_e = sum(shift)
    tr_e_sq = sum(x * x for x in shift)
    tr_e_sq_residual = abs(float(tr_e_sq - kappa * tr_e))
    tr_sh = linalg.trace(sh)
    tr_sh_e = sum(sh[m + i][m + i] * shift[i] for i in range(n))
    tr_adh_residual = abs(float(tr_sh_e - kappa * tr_sh))

    nonneg_ok = all(linalg.nonneg(t, tol) for t in (term1, term2, term3))
    std = is_standard(s, tol)
    shift_positive = all(linalg.positive(x, 0.0) for x in shift)
    forces = ec.ok and shift_positive and linalg.is_zero(term2, tol)
    return AuditReport(zero_branch, beta, kappa, c, lhs, term1, term2, term3,
                       identity_residual, tr_e_sq_residual, tr_adh_residual,
                       w_ok, nonneg_ok, ec, std, forces)
