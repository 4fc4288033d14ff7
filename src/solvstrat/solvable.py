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
once, as its cached `curvature`.  Everything is exact on rational input and
float otherwise.  The universal trace identity tr(R E) = 1/4 <pi(E) mu, mu>
(true for any tensor mu, Jacobi or not) gives every report two independent
routes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .bracket import (BracketTensor, act, inner, is_solvable, jacobi_check,
                      permutation_act, rep)
from .flow import _ric_exact, ric_array
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
        h = mean_curvature(self)
        b = killing_form(self)
        r = r_operator(self)
        sh = _s_ad_h(self, h)
        half = Fraction(1, 2) if self.bracket.is_exact_mode else 0.5
        ric = linalg.mat_sub(linalg.mat_sub(r, linalg.mat_scale(half, b)), sh)
        return Curvature(h, b, r, sh, ric)


@dataclass(frozen=True)
class Curvature:
    """Curvature of a metric solvable algebra; matrices on the full algebra."""

    mean: list
    killing: list
    r: list
    s_ad_h: list
    ricci: list


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


def _sym(m):
    n = len(m)
    half = Fraction(1, 2) if is_exact(m[0][0]) else 0.5
    return [[(m[i][j] + m[j][i]) * half for j in range(n)] for i in range(n)]


def mean_curvature(s: MetricSolvableAlgebra) -> list[Scalar]:
    """Coordinates of H = sum_r tr(ad A_r) A_r in the a-basis."""
    zero = Fraction(0) if s.bracket.is_exact_mode else 0.0
    coeff = s.bracket.coeff
    return [sum((coeff(r, j, j) for j in range(1, s.dim + 1)), zero)
            for r in range(1, s.dim_a + 1)]


def killing_form(s: MetricSolvableAlgebra):
    """B_pq = sum_r (sum_k C_pk^r C_qr^k), over pairs of nonzero coefficients.

    The inner sums run over k ascending and the outer one over r ascending,
    the order of tr(ad b_p ad b_q) as a matrix product, so float entries
    equal that dense route bit for bit.
    """
    d = s.dim
    zero = Fraction(0) if s.bracket.is_exact_mode else 0.0
    # by_slot[(y, z)]: the (x, C_xy^z) over all ordered pairs, that is the
    # entries (ad b_x)_zy in column y and row z
    by_slot: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
    for (i, j, k), c in s.bracket.coeffs.items():
        by_slot.setdefault((j, k), []).append((i, c))
        by_slot.setdefault((i, k), []).append((j, -c))
    b = [[zero] * d for _ in range(d)]
    for r in range(1, d + 1):
        inner: dict[tuple[int, int], Scalar] = {}
        for k in range(1, d + 1):
            left, right = by_slot.get((k, r)), by_slot.get((r, k))
            if not (left and right):
                continue
            for p, x in left:
                for q, y in right:
                    inner[(p, q)] = inner.get((p, q), zero) + x * y
        for (p, q), v in inner.items():
            b[p - 1][q - 1] = b[p - 1][q - 1] + v
    return b


def r_operator(s: MetricSolvableAlgebra):
    """The moment-map part of the Ricci operator (entrywise formula)."""
    if s.bracket.is_exact_mode:
        return _ric_exact(s.bracket)
    return ric_array(s.bracket.to_array()).tolist()


def s_ad_h(s: MetricSolvableAlgebra):
    return _s_ad_h(s, mean_curvature(s))


def _s_ad_h(s: MetricSolvableAlgebra, h):
    """S(ad H) for the mean curvature coordinates h.

    (ad H)_kj accumulates h_r C_rj^k over r ascending, read off the
    coefficients with r in a; C_rj^k = -C_jr^k covers the keys stored as
    (j, r, k).
    """
    d, m = s.dim, s.dim_a
    zero = Fraction(0) if s.bracket.is_exact_mode else 0.0
    by_r: list[list[tuple[int, int, Scalar]]] = [[] for _ in range(m + 1)]
    for (i, j, k), c in s.bracket.coeffs.items():
        if i <= m:
            by_r[i].append((j, k, c))
        if j <= m:
            by_r[j].append((i, k, -c))
    adh = [[zero] * d for _ in range(d)]
    for r, hr in enumerate(h, start=1):
        if hr:
            for j, k, c in by_r[r]:
                adh[k - 1][j - 1] = adh[k - 1][j - 1] + hr * c
    return _sym(adh)


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
    deviation, compared against tol * max(1, |Ricci|_inf).

    For non-unimodular algebras the independent formula
    c = -tr S(ad H)^2 / tr S(ad H) is evaluated and its deviation reported.
    """
    cur = s.curvature
    ric, sh = cur.ricci, cur.s_ad_h
    d = len(ric)
    c = linalg.trace(ric) / d
    resid = max(abs(float(ric[i][j] - (c if i == j else 0))) for i in range(d)
                for j in range(d))
    scale = max(1.0, max(abs(float(x)) for row in ric for x in row))
    ok = resid <= tol * scale
    tr_sh = linalg.trace(sh)
    cf = None
    if abs(float(tr_sh)) > 1e-12:
        c_alt = -linalg.trace_product(sh, sh) / tr_sh
        cf = abs(float(c - c_alt))
    return EinsteinCheck(bool(ok), c, float(resid), cf, tol)


class StandardCheck(NamedTuple):
    ok: bool
    max_violation: float


def is_standard(s: MetricSolvableAlgebra, tol: float = EINSTEIN_TOL) -> StandardCheck:
    """Standard means the orthogonal complement a of n is abelian."""
    worst = 0.0
    for (i, j, _k), c in s.bracket.coeffs.items():
        if j <= s.dim_a:
            worst = max(worst, abs(float(c)))
    exact = s.bracket.is_exact_mode
    return StandardCheck(worst == 0.0 if exact else worst <= tol, worst)


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
    quarter = Fraction(1, 4) if (s.bracket.is_exact_mode
                                 and all(is_exact(x) for row in rows for x in row)) else 0.25
    pairing = quarter * inner(rep(rows, s.bracket), s.bracket)
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
    exact = lam.is_exact_mode
    if lam.is_zero():
        cc = frac(c) if c is not None and is_exact(c) else (Fraction(-n) if c is None else float(c))
        if not cc < 0:
            raise ValueError("the Einstein constant of an extension must be negative")
        tr_d = -cc * n
        root = linalg.sqrt_fraction(frac(tr_d)) if is_exact(tr_d) else None
        scale = root if root is not None else math.sqrt(float(tr_d))
        ada = [[(-cc / scale if i == j else (Fraction(0) if root is not None else 0.0))
                for j in range(n)] for i in range(n)]
    else:
        ric = _ric_exact(lam) if exact else ric_array(lam.to_array()).tolist()
        cc = linalg.trace_product(ric, ric) / linalg.trace(ric)
        d_mat = [[x - cc if i == j else x for j, x in enumerate(row)]
                 for i, row in enumerate(ric)]
        resid = rep(d_mat, lam)
        rnorm = math.sqrt(abs(float(inner(resid, resid))))
        scale_ref = max(1.0, math.sqrt(abs(float(inner(lam, lam)))))
        if (not resid.is_zero()) if exact else (rnorm > tol * scale_ref):
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
    exact = s.bracket.is_exact_mode
    zero_branch = mu.is_zero()
    if zero_branch:
        shift = tuple(Fraction(1) if exact else 1.0 for _ in range(n))
        kappa: Scalar = Fraction(1) if exact else 1.0
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

    zero = Fraction(0) if exact else 0.0
    half = Fraction(1, 2) if exact else 0.5
    # E vanishes outside the n-block, so the trace collapses to it
    lhs = sum((c + half * b[m + i][m + i] + sh[m + i][m + i]) * shift[i] for i in range(n))

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
    term1, term2, term3 = half * term1, half * term2, half * term3

    identity_residual = abs(float(lhs - (term1 + term2 + term3)))
    tr_e = sum(shift)
    tr_e_sq = sum(x * x for x in shift)
    tr_e_sq_residual = abs(float(tr_e_sq - kappa * tr_e))
    tr_sh = linalg.trace(sh)
    tr_sh_e = sum(sh[m + i][m + i] * shift[i] for i in range(n))
    tr_adh_residual = abs(float(tr_sh_e - kappa * tr_sh))

    def nonneg(x: Scalar) -> bool:
        return (x >= 0) if is_exact(x) else float(x) >= -tol

    nonneg_ok = nonneg(term1) and nonneg(term2) and nonneg(term3)
    std = is_standard(s, tol)
    shift_positive = all(float(x) > 0 for x in shift)
    forces = ec.ok and shift_positive and abs(float(term2)) <= tol
    return AuditReport(zero_branch, beta, kappa, c, lhs, term1, term2, term3,
                       identity_residual, tr_e_sq_residual, tr_adh_residual,
                       w_ok, nonneg_ok, ec, std, forces)
