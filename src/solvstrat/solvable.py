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
once, as its cached `curvature`, the one route to each of them.
Everything is exact on rational input and float otherwise, residuals
included: no result here is a float image of an exact value, and none is
formatted (cli writes the reports).  Verdicts compare by linalg.is_zero /
nonneg.  One pass over pairs of nonzero entries of N = L C gives the
numerators L h, L^2 B, 4 L^2 R, L^2 ad H and 4 L^2 Ricci in both modes
(_curvature_numerators): N is the cached integer view of an exact bracket,
each numerator turned into Fractions once, and the float coefficients with
L = 1 otherwise.  An exact Einstein check reads the numerators, and so does
the audit when the label is exact too (_integer_audit_sums), each residual
one Fraction of two integers.  The
universal trace identity tr(R E) = 1/4 <pi(E) mu, mu> (true for any tensor
mu, Jacobi or not) is the tests' independent route to R.
The rank-one extension takes Ric = 0 and a given c < 0 for lam = 0, else Ric_lam
and c = tr(Ric^2) / tr(Ric), refusing a given c; from D = Ric - cI on, one path.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from ._np import np
from .bracket import (BracketTensor, _ad_lists, _moment_numerator, _ric_exact,
                      _slot_tables, act, inner, is_solvable, jacobi_check,
                      permutation_act, rep)
from .flow import ric_array
from .linalg import Scalar
from .strata import DiagonalWeight, beta_of, in_W

EINSTEIN_TOL = 1e-8
# the Jacobi tolerance of a rank-one extension and of the bracket it extends
_EXTENSION_TOL = 1e-7


def _require_jacobi(mu: BracketTensor, tol: float) -> None:
    ok, res = jacobi_check(mu, tol)
    if not ok:
        raise ValueError(f"Jacobi identity fails (residual {linalg.g_text(res)})")


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
        _require_jacobi(bracket, tol)
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
        num = self._numerators
        if self.bracket.is_exact_mode:
            sq = num.den * num.den
            return Curvature(linalg.fraction_rows([num.mean], num.den)[0],
                             linalg.fraction_rows(num.killing, sq),
                             linalg.fraction_rows(num.r, 4 * sq),
                             linalg.fraction_rows(num.s_ad_h, 2 * sq),
                             linalg.fraction_rows(num.ricci, 4 * sq))
        # L = 1 and r = 4 R exactly.  Ricci is formed in floats from R, B and
        # S(ad H): ricci / 4 would round differently where B is subnormal
        r = [[x / 4 for x in row] for row in num.r]
        sh = [[x / 2 for x in row] for row in num.s_ad_h]
        ric = [[x - 0.5 * y - z for x, y, z in zip(rr, rb, rs)]
               for rr, rb, rs in zip(r, num.killing, sh)]
        return Curvature(num.mean, num.killing, r, sh, ric)

    @functools.cached_property
    def _numerators(self) -> "_Numerators":
        return _curvature_numerators(self)

    @functools.cached_property
    def _einstein(self) -> tuple[Scalar, Scalar, float, Scalar | None]:
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
    """Numerators of the curvature, integers for an exact algebra.

    With L the lcm of the denominators of the structure constants (1 for a
    float algebra): H = mean / L, B = killing / L^2, R = r / (4 L^2),
    S(ad H) = s_ad_h / (2 L^2) and Ricci = ricci / (4 L^2).  A float algebra
    forms its Ricci from R, B and S(ad H) instead (see `curvature`).
    """

    den: int
    mean: list
    killing: list
    r: list
    s_ad_h: list
    ricci: list


def _curvature_numerators(s: MetricSolvableAlgebra) -> _Numerators:
    """The curvature kernel of both arithmetic modes.

    An exact algebra passes N = L C, the cached integer view of its bracket,
    and 4 L^2 R in integers; a float one its coefficients with L = 1 and
    4 R from ric_array.  Over the _slot_tables of N,
    L h_r = sum_j N_rj^j, L^2 B_pq = sum_r sum_k N_pk^r N_qr^k and
    (L^2 ad H)_kj = sum_r (L h_r) N_rj^k; 2 L^2 S(ad H) = L^2 (ad H + ad H^T)
    and the Ricci numerator is 4 L^2 R - 2 L^2 B - 2 L^2 (ad H + ad H^T).
    """
    d, m = s.dim, s.dim_a
    if s.bracket.is_exact_mode:
        den, coeffs = s.bracket._integer
        by_slot, by_pair = _slot_tables(coeffs)
        zero, r4 = 0, _moment_numerator(d, by_slot, by_pair)
    else:
        den, coeffs, zero = 1, s.bracket.coeffs, 0.0
        by_slot = _slot_tables(coeffs)[0]
        r4 = (4.0 * ric_array(s.bracket.to_array())).tolist()
    # A float algebra must repeat the sums of the dense matrix formulas bit
    # for bit, so each sum runs in their order: h over j ascending; B over r
    # ascending, each term an inner sum over k ascending (tr(ad b_p ad b_q)
    # as a matrix product); ad H over r ascending.  Integers give the same
    # sum in any order.
    mean = [zero] * m
    for j in range(1, d + 1):
        for x, n in by_slot.get((j, j), ()):
            if x <= m:
                mean[x - 1] += n
    killing = [[zero] * d for _ in range(d)]
    # r -> the k whose slots (k, r), listing the (p, N_pk^r), and (r, k),
    # listing the (q, N_qr^k), both hold entries
    ks: dict[int, list[int]] = {}
    for k, r in by_slot:
        if (r, k) in by_slot:
            ks.setdefault(r, []).append(k)
    for r in sorted(ks):
        inner: dict[tuple[int, int], Scalar] = {}
        for k in sorted(ks[r]):
            right = by_slot[(r, k)]
            for p, x in by_slot[(k, r)]:
                for q, w in right:
                    inner[p, q] = inner.get((p, q), zero) + x * w
        for (p, q), v in inner.items():
            killing[p - 1][q - 1] += v
    adh = [[zero] * d for _ in range(d)]
    rows = _ad_lists(coeffs, d)
    for x, h in enumerate(mean, start=1):
        if h:
            # row x lists the (j, k, N_xj^k)
            for j, k, n in rows[x]:
                adh[k - 1][j - 1] += h * n
    sym = [[x + y for x, y in zip(row, col)] for row, col in zip(adh, zip(*adh))]
    ricci = [[x - 2 * (y + z) for x, y, z in zip(rr, rb, rs)]
             for rr, rb, rs in zip(r4, killing, sym)]
    return _Numerators(den, mean, killing, r4, sym, ricci)


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
    # sigma sends old index i to its position in the n-first ordering
    sigma = [i + dim_n if i <= dim_a else i - dim_a for i in range(1, d + 1)]
    mu_p = permutation_act(sigma, bracket)
    order = [i - 1 for i in perm]
    g_p = g[np.ix_(order, order)]
    try:
        ell = np.linalg.cholesky(g_p)
    except np.linalg.LinAlgError as exc:
        raise ValueError("gram matrix is not positive definite") from exc
    # perm, read as a map of indices, is the inverse of sigma
    return permutation_act(perm, act(ell.T, mu_p.to_float()))


class EinsteinCheck(NamedTuple):
    ok: bool
    c: Scalar
    residual: Scalar
    c_formula_residual: Scalar | None
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
    return EinsteinCheck(linalg.is_zero(resid, tol * scale), c, resid, cf, tol)


def _einstein_values(s: MetricSolvableAlgebra) -> tuple[Scalar, Scalar, float, Scalar | None]:
    """(c, residual, scale, c_formula_residual) of einstein_check, where
    scale is the float verdict's max(1, |Ricci|_inf).

    An exact algebra works on its integer numerators: with q = 4 L^2,
    Ricci = ricci / q and S(ad H) = 2 P / q, so c = tr(ricci) / (q d), each
    deviation is (d ricci_ij - tr(ricci) delta_ij) / (q d), and c - c_alt
    is (tr(ricci) tr P + 2 d tr P^2) / (q d tr P), reported when tr P != 0.
    The residual and the c formula's deviation stay exact Fractions; the
    residual is 0 exactly when ricci is a multiple of I, and its verdict
    reads no tolerance, so the scale is 1.
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
        return c, resid, scale, cf
    num = s._numerators
    q = 4 * num.den * num.den
    ric, p = num.ricci, num.s_ad_h
    tr = sum(ric[i][i] for i in range(d))
    dev = max(abs(d * x - (tr if i == j else 0)) for i, row in enumerate(ric)
              for j, x in enumerate(row))
    tr_p = sum(p[i][i] for i in range(d))
    cf = None
    if tr_p:
        sq_p = sum(x * x for row in p for x in row)
        cf = Fraction(abs(tr * tr_p + 2 * d * sq_p), q * d * abs(tr_p))
    return Fraction(tr, q * d), Fraction(dev, q * d), 1.0, cf


class StandardCheck(NamedTuple):
    ok: bool
    max_violation: Scalar


def is_standard(s: MetricSolvableAlgebra, tol: float = EINSTEIN_TOL) -> StandardCheck:
    """Standard means the orthogonal complement a of n is abelian."""
    worst = s.bracket.zero
    for (_i, j, _k), c in s.bracket.coeffs.items():
        if j <= s.dim_a:
            worst = max(worst, abs(c))
    return StandardCheck(linalg.is_zero(worst, tol), worst)


@dataclass(frozen=True)
class CurvatureReport:
    curvature: Curvature
    einstein: EinsteinCheck
    standard: StandardCheck
    killing_n_max: Scalar


def curvature_report(s: MetricSolvableAlgebra) -> CurvatureReport:
    cur = s.curvature
    b, m = cur.killing, s.dim_a
    kn = max((abs(b[i][j]) for i in range(m, s.dim) for j in range(m, s.dim)),
             default=s.bracket.zero)
    return CurvatureReport(cur, einstein_check(s), is_standard(s), kn)


def _require_finite(name: str, x: Scalar) -> None:
    """Raise ValueError if a float x overflowed; exact values always pass."""
    if not abs(x) < math.inf:
        raise ValueError(f"{name} = {float(x):g} overflows the float range; "
                         "scale the coefficients down")


def rank_one_extension(lam: BracketTensor, c: Scalar | None = None) -> MetricSolvableAlgebra:
    """Extend a nilsoliton bracket by one derivation to an Einstein candidate.

    Requires Ric_lam = c I + D with D a derivation of lam; then a = R A with
    ad A|n = D / sqrt(tr D), and c is the Einstein constant of the extension.
    A nonzero lam fixes c = tr(Ric^2) / tr(Ric) and refuses a passed c; for
    lam = 0, Ric = 0 and c defaults to -dim (hyperbolic space).  Both then
    take one path from D = Ric - cI.  Raises ValueError when lam fails the
    Jacobi identity (checked first, so that no later test names another
    defect), when c is passed for a nonzero lam or is not negative, when D
    fails to be a derivation, when tr Ric of a float lam underflows to 0,
    when c or tr D overflows and when tr D has no rational root and its
    float is 0 or subnormal.
    """
    _require_jacobi(lam, _EXTENSION_TOL)
    n = lam.dim
    if lam.is_zero():
        ric = [[0] * n for _ in range(n)]
        cc = Fraction(-n) if c is None else c
        if not cc < 0:
            raise ValueError("the Einstein constant of an extension must be negative")
    else:
        if c is not None:
            raise ValueError("c is fixed by a nonzero lam as tr(Ric^2) / tr(Ric)")
        ric = _ric_exact(lam) if lam.is_exact_mode else ric_array(lam.to_array()).tolist()
        # tr Ric = -|lam|^2 / 4 is nonzero unless a float |lam|^2 underflows
        tr_ric = linalg.trace(ric)
        if tr_ric == 0:
            raise ValueError("tr Ric underflows to 0 in floating point")
        cc = linalg.trace_product(ric, ric) / tr_ric
        _require_finite("c = tr(Ric^2) / tr(Ric)", cc)
    d_mat = [[x - cc if i == j else x for j, x in enumerate(row)] for i, row in enumerate(ric)]
    # every matrix is a derivation of 0, so a float c passes on an exact 0
    resid = lam if lam.is_zero() else rep(d_mat, lam)
    if lam.is_exact_mode:
        # judged exactly; the text of its size forms no float that can overflow
        failed = None if resid.is_zero() else linalg.g_text(inner(resid, resid), root=True)
    else:
        size, top = (math.sqrt(abs(float(inner(mu, mu)))) for mu in (resid, lam))
        failed = f"{size:g}" if size > EINSTEIN_TOL * max(1.0, top) else None
    if failed is not None:
        raise ValueError("not a nilsoliton: Ric - cI fails to be a derivation "
                         f"(residual {failed})")
    tr_d = linalg.trace(d_mat)
    if not tr_d > 0:
        raise ValueError(f"tr(Ric - cI) = {float(tr_d):g} is not positive")
    _require_finite("tr D", tr_d)
    root = linalg.sqrt_fraction(tr_d)
    if root is None and not float(tr_d) >= sys.float_info.min:
        # a subnormal float keeps too few digits for its root, and 0 has none
        raise ValueError("tr D has no rational square root and underflows the normal "
                         "float range; scale the coefficients up")
    scale = root if root is not None else math.sqrt(float(tr_d))
    coeffs = {(1 + i, 1 + j, 1 + k): v for (i, j, k), v in lam.coeffs.items()}
    # [A, e_j] = ad A e_j with ad A = D / sqrt(tr D); make drops the zeros
    coeffs.update(((1, 1 + j, 1 + k), d_mat[k - 1][j - 1] / scale)
                  for j in range(1, n + 1) for k in range(1, n + 1))
    return MetricSolvableAlgebra.create(1, n, BracketTensor.make(n + 1, coeffs),
                                        tol=_EXTENSION_TOL)


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
    identity_residual: Scalar
    tr_e_sq_residual: Scalar
    tr_adh_residual: Scalar
    in_w_ok: bool
    nonneg_ok: bool
    einstein: EinsteinCheck
    standard: StandardCheck
    forces_standard: bool


class _AuditSums(NamedTuple):
    """The audit's shift factor |beta|^2, left side, terms and residuals."""

    kappa: Scalar
    lhs: Scalar
    term1: Scalar
    term2: Scalar
    term3: Scalar
    identity_residual: Scalar
    tr_e_sq_residual: Scalar
    tr_adh_residual: Scalar
    in_w_ok: bool
    shift_positive: bool


def standardness_audit(s: MetricSolvableAlgebra, beta: DiagonalWeight | None = None,
                       tol: float = EINSTEIN_TOL) -> AuditReport:
    """Run the three-term audit of the standardness argument on s.

    beta defaults to the stratum label of the nilpotent part (minimum-norm
    point of its weights), which always contains mu in its W-set.  A zero
    nilpotent part switches to E|_n = I with shift factor 1.  An exact
    algebra with an exact label sums in integers (_integer_audit_sums),
    anything else in the arithmetic of its inputs (_audit_sums).
    """
    mu = s.mu_n()
    zero_branch = mu.is_zero()
    if zero_branch:
        beta = None
    elif beta is None:
        beta = beta_of(mu)
    ec = einstein_check(s, tol)
    if s.bracket.is_exact_mode and (zero_branch or beta.is_exact_mode):
        sums = _integer_audit_sums(s, beta)
    else:
        sums = _audit_sums(s, mu, beta, ec.c, tol)
    terms = (sums.term1, sums.term2, sums.term3)
    nonneg_ok = all(linalg.nonneg(t, tol) for t in terms)
    std = is_standard(s, tol)
    forces = ec.ok and sums.shift_positive and linalg.is_zero(sums.term2, tol)
    return AuditReport(zero_branch, beta, sums.kappa, ec.c, sums.lhs, *terms,
                       sums.identity_residual, sums.tr_e_sq_residual, sums.tr_adh_residual,
                       sums.in_w_ok, nonneg_ok, ec, std, forces)


def _audit_sums(s: MetricSolvableAlgebra, mu: BracketTensor, beta: DiagonalWeight | None,
                c: Scalar, tol: float) -> _AuditSums:
    """The audit's sums on the curvature matrices, in the arithmetic of the
    algebra and the label (tr_e_sq_residual reads the label alone, so an
    exact label keeps it exact); beta is None on the zero branch."""
    m, n = s.dim_a, s.dim_n
    zero = s.bracket.zero
    if beta is None:
        shift = (zero + 1,) * n
        kappa: Scalar = zero + 1
        w_ok = True
    else:
        shift = beta.shifted()
        kappa = beta.norm_sq()
        w_ok = in_W(mu, beta, tol).ok

    cur = s.curvature
    b, sh = cur.killing, cur.s_ad_h

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

    identity_residual = abs(lhs - (term1 + term2 + term3))
    tr_e = sum(shift)
    tr_e_sq = sum(x * x for x in shift)
    tr_e_sq_residual = abs(tr_e_sq - kappa * tr_e)
    tr_sh = linalg.trace(sh)
    tr_sh_e = sum(sh[m + i][m + i] * shift[i] for i in range(n))
    tr_adh_residual = abs(tr_sh_e - kappa * tr_sh)
    shift_positive = all(linalg.positive(x, 0.0) for x in shift)
    return _AuditSums(kappa, lhs, term1, term2, term3, identity_residual, tr_e_sq_residual,
                      tr_adh_residual, w_ok, shift_positive)


def _integer_audit_sums(s: MetricSolvableAlgebra, beta: DiagonalWeight | None) -> _AuditSums:
    """_audit_sums of an exact algebra and an exact label, in integers.

    The shift is E = e / Q on the n-block: with (L, B) the label's integer
    view and K = |B|^2, L^2 E_i = L B_i + K, so Q = L^2 and |beta|^2 = K / Q
    (the zero branch has e = 1, Q = K = 1).  With N = M C the bracket's
    integer view and the kernel's numerators (killing = M^2 B,
    s_ad_h = 2 M^2 S(ad H), ricci = 4 M^2 Ricci, so c = tr ricci / (4 M^2 d)):

        lhs = sum_i (tr ricci + 2 d (killing_ii + s_ad_h_ii)) e_i / (4 M^2 d Q)
        t1  = sum_{m < i} (e_k - e_i - e_j) N^2 / (2 M^2 Q), and t2, t3 alike,

    and e_k - e_i - e_j is L^2 times the gap <beta, a> - |beta|^2, so mu
    lies in W_beta iff every such weight of t1 is >= 0.  Each residual is
    one Fraction of two integers.
    """
    m, n, d = s.dim_a, s.dim_n, s.dim
    if beta is None:
        q, kappa, e = 1, 1, [1] * n
    else:
        big, bint, kappa = beta._integer
        q = big * big
        e = [big * x + kappa for x in bint]
    num = s._numerators
    sq = num.den * num.den
    killing, sh = num.killing, num.s_ad_h
    tr = sum(num.ricci[p][p] for p in range(d))
    lhs = sum((tr + 2 * d * (killing[m + i][m + i] + sh[m + i][m + i])) * x
              for i, x in enumerate(e))
    full = [0] * m + e
    t1 = t2 = t3 = 0
    w_ok = True
    for (i, j, k), x in s.bracket._integer[1].items():
        if i > m:
            w = full[k - 1] - full[i - 1] - full[j - 1]
            w_ok = w_ok and w >= 0
            t1 += w * x * x
        elif j <= m:
            t2 += full[k - 1] * x * x
        else:
            t3 += (full[k - 1] - full[j - 1]) * x * x
    tr_sh = sum(sh[p][p] for p in range(d))
    tr_sh_e = sum(sh[m + i][m + i] * x for i, x in enumerate(e))
    return _AuditSums(
        Fraction(kappa, q), Fraction(lhs, 4 * sq * d * q),
        Fraction(t1, 2 * sq * q), Fraction(t2, 2 * sq * q), Fraction(t3, 2 * sq * q),
        Fraction(abs(lhs - 2 * d * (t1 + t2 + t3)), 4 * sq * d * q),
        Fraction(abs(sum(x * x for x in e) - kappa * sum(e)), q * q),
        Fraction(abs(tr_sh_e - kappa * tr_sh), 2 * sq * q),
        w_ok, all(linalg.positive(x, 0.0) for x in e))
