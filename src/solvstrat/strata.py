"""Stratum data attached to a bracket: weights, optimal direction, certificates.

Each nonzero coefficient mu_ij^k carries the diagonal weight

    a_ij^k = E_kk - E_ii - E_jj,

a vector with entries -1, -1, +1 at slots i, j, k (k = i or k = j is allowed
and merges entries; the trace is always -1).  The stratum label beta of mu is
the minimum-norm point of the convex hull of its weights.  Its defining
inequalities and the degeneration/derivation conditions below are what the
certificate records:

    W_beta : <beta, a> >= |beta|^2 for every supported weight a
    Z_beta : equality for every supported weight
    m(mu, beta/|beta|^2) = 1, tr beta = -1
    <[beta, D], D> >= 0 and tr(beta D) = 0 for every derivation D of mu
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .bracket import BracketTensor, Key, derivations
from .linalg import Scalar, frac, is_exact
from .minnorm import PointSet, min_norm_point

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class DiagonalWeight:
    """Diagonal matrix identified with its entry vector."""

    entries: tuple[Scalar, ...]

    @staticmethod
    def make(entries: Sequence) -> "DiagonalWeight":
        vals = tuple(frac(x) if is_exact(x) or isinstance(x, int) else float(x)
                     for x in entries)
        return DiagonalWeight(vals)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def is_exact_mode(self) -> bool:
        return all(is_exact(x) for x in self.entries)

    def trace(self) -> Scalar:
        return sum(self.entries)

    def norm_sq(self) -> Scalar:
        return sum(x * x for x in self.entries)

    def shifted(self) -> tuple[Scalar, ...]:
        """Entries of beta + |beta|^2 I."""
        nsq = self.norm_sq()
        return tuple(x + nsq for x in self.entries)

    def is_sorted(self) -> bool:
        return all(a <= b for a, b in zip(self.entries, self.entries[1:]))


class Membership(NamedTuple):
    ok: bool
    residual: Scalar


def weight_vector(i: int, j: int, k: int, dim: int) -> tuple[Fraction, ...]:
    v = [Fraction(0)] * dim
    v[i - 1] -= 1
    v[j - 1] -= 1
    v[k - 1] += 1
    return tuple(v)


def weights(mu: BracketTensor) -> PointSet:
    """Distinct weight vectors of the support, sorted lexicographically."""
    if mu.is_zero():
        raise ValueError("the zero bracket has no weights")
    vecs = sorted({weight_vector(i, j, k, mu.dim) for (i, j, k) in mu.coeffs})
    return PointSet.make(vecs)


def _entries(alpha) -> Sequence[Scalar]:
    return alpha.entries if isinstance(alpha, DiagonalWeight) else alpha


def m_degree(mu: BracketTensor, alpha) -> Scalar:
    """min over supported weights a of <alpha, a>; the degree of mu along alpha."""
    a = _entries(alpha)
    if mu.is_zero():
        raise ValueError("the zero bracket has no degree")
    return min(a[k - 1] - a[i - 1] - a[j - 1] for (i, j, k) in mu.coeffs)


def beta_of(mu: BracketTensor) -> DiagonalWeight:
    """Minimum-norm point of the convex hull of the supported weights."""
    return DiagonalWeight(min_norm_point(weights(mu)).point)


def sort_to_weyl_chamber(beta: DiagonalWeight) -> tuple[DiagonalWeight, tuple[int, ...]]:
    """Nondecreasing representative plus the (stable) sorting permutation.

    The permutation p is 0-based with sorted.entries[i] = beta.entries[p[i]].
    """
    order = sorted(range(beta.dim), key=lambda i: (beta.entries[i], i))
    return DiagonalWeight(tuple(beta.entries[i] for i in order)), tuple(order)


def _gaps(mu: BracketTensor, b: Sequence[Scalar], nsq: Scalar) -> dict[Key, Scalar]:
    """<beta, a> - |beta|^2 per supported key, keys sorted, for beta with
    entries b and |beta|^2 = nsq."""
    return {(i, j, k): b[k - 1] - b[i - 1] - b[j - 1] - nsq for (i, j, k) in mu.support()}


def _w_membership(gaps: dict[Key, Scalar], tol: float) -> Membership:
    g = min(gaps.values())
    return Membership(linalg.nonneg(g, tol), g)


def _z_membership(gaps: dict[Key, Scalar], tol: float) -> Membership:
    g = max(abs(x) for x in gaps.values())
    return Membership(linalg.is_zero(g, tol), g)


def in_W(mu: BracketTensor, beta: DiagonalWeight, tol: float = 0.0) -> Membership:
    """Minimal slack of <beta, a> - |beta|^2 over the support; ok iff >= -tol."""
    return _w_membership(_gaps(mu, beta.entries, beta.norm_sq()), tol)


def in_Z(mu: BracketTensor, beta: DiagonalWeight, tol: float = 0.0) -> Membership:
    """Largest absolute slack; ok iff every supported weight sits at equality."""
    return _z_membership(_gaps(mu, beta.entries, beta.norm_sq()), tol)


def in_Y(mu: BracketTensor, beta: DiagonalWeight, tol: float = 0.0) -> Membership:
    """In W with at least one weight at equality; residual is the minimal slack."""
    g = min(_gaps(mu, beta.entries, beta.norm_sq()).values())
    return Membership(linalg.is_zero(g, tol), g)


def project_Z(mu: BracketTensor, beta: DiagonalWeight, tol: float = 0.0) -> BracketTensor:
    """Keep only the coefficients whose weight sits at equality for beta.

    This is the limit of e^{-t(beta + |beta|^2 I)} . mu as t -> oo when mu
    lies in W_beta.
    """
    b = beta.entries
    nsq = beta.norm_sq()
    kept = {}
    for (i, j, k), c in mu.coeffs.items():
        if linalg.is_zero(b[k - 1] - b[i - 1] - b[j - 1] - nsq, tol):
            kept[(i, j, k)] = c
    return BracketTensor(mu.dim, kept, mu.scalar_mode)


class EigenvalueType(NamedTuple):
    values: tuple[int, ...]
    scale: Fraction


def eigenvalue_type(beta: DiagonalWeight) -> EigenvalueType:
    """Coprime positive integers proportional to sorted(beta + |beta|^2 I).

    Defined only for exact beta with strictly positive shifted entries.
    """
    if not beta.is_exact_mode:
        raise TypeError("eigenvalue type requires exact rational entries")
    return _eigenvalue_type(beta.shifted())


def _eigenvalue_type(shifted: Sequence[Fraction]) -> EigenvalueType:
    shifted = sorted(shifted)
    if shifted[0] <= 0:
        raise ValueError("beta + |beta|^2 I has non-positive entries; no eigenvalue type")
    den = math.lcm(*(x.denominator for x in shifted))
    ints = [x.numerator * (den // x.denominator) for x in shifted]
    g = math.gcd(*ints)
    return EigenvalueType(tuple(v // g for v in ints), Fraction(g, den))


def positivity_check(beta: DiagonalWeight, tol: float = 0.0) -> bool:
    return linalg.positive(min(beta.shifted()), tol)


def parabolic_membership(d, beta: DiagonalWeight, tol: float = 0.0) -> bool:
    """Whether d lies in the parabolic subalgebra attached to sorted beta.

    Entry (i, j) must vanish whenever beta_i < beta_j.  beta must be
    nondecreasing so that the chamber convention applies.
    """
    if not beta.is_sorted():
        raise ValueError("parabolic membership requires sorted beta")
    b = beta.entries
    n = beta.dim
    for i in range(n):
        for j in range(n):
            if b[i] < b[j] and linalg.positive(abs(d[i][j]), tol):
                return False
    return True


@dataclass(frozen=True)
class DerivationCertificates:
    """Checks of <[beta, D], D> >= 0 and tr(beta D) = 0 over Der(mu)."""

    dim_der: int
    adbeta_nonneg: bool
    betaort_zero: bool
    parabolic_all: bool
    quadratic_min: float
    trace_max_abs: float


def _trace_value(d, beta_entries) -> Scalar:
    return sum(b * d[i][i] for i, b in enumerate(beta_entries))


def _adbeta_gram(basis, b: Sequence[Scalar]) -> list[list[float]]:
    """Float Gram matrix of <[beta, D], D> = sum_ij (b_i - b_j) D_ij^2 on span(basis).

    The form is diagonal in matrix entries, so each element is kept once as
    its nonzero entries off the b_i = b_j blocks, in row-major order, and a
    pair sums only over the entries the two elements share.  Entry (c, a),
    c >= a, is summed in the order of the full n^2 sum, so float lower
    triangles (all that eigvalsh reads) are bitwise those of that sum; the
    upper triangle mirrors it.  The differences b_i - b_j are tabulated once
    as floats: a Fraction times a float is computed as float(Fraction) times
    that float, so the sums are those of an exact label too.
    """
    n = len(b)
    diff = [[float(b[i] - b[j]) for j in range(n)] for i in range(n)]
    sparse = [{(i, j): d[i][j] for i in range(n) for j in range(n)
               if diff[i][j] and d[i][j]} for d in basis]
    k = len(basis)
    gram = [[0] * k for _ in range(k)]
    for a, da in enumerate(sparse):
        for c in range(a, k):
            dc = sparse[c]
            gram[c][a] = gram[a][c] = sum(
                diff[i][j] * dc[i, j] * x for (i, j), x in da.items() if (i, j) in dc)
    return gram


def _integer_entries(d) -> tuple[int, dict[tuple[int, int], int]]:
    """(den, {(i, j): num}) with d_ij = num / den on the nonzero entries of a
    rational matrix d, den the lcm of their denominators."""
    nonzero = {(i, j): x for i, row in enumerate(d) for j, x in enumerate(row) if x}
    den = math.lcm(*(x.denominator for x in nonzero.values()))
    return den, {key: x.numerator * (den // x.denominator) for key, x in nonzero.items()}


def _integer_gram(nums, bint: Sequence[int]) -> list[list[int]]:
    """G'_ac = sum_ij (B_i - B_j) N^a_ij N^c_ij for the integer entries N^a
    of den_a D_a and an integer label B = L beta; the Gram entry
    <[beta, D_a], D_c> is G'_ac / (L den_a den_c)."""
    weighted = [{(i, j): (bint[i] - bint[j]) * x for (i, j), x in e.items()
                 if bint[i] != bint[j]} for e in nums]
    k = len(nums)
    gram = [[0] * k for _ in range(k)]
    for a, wa in enumerate(weighted):
        for c in range(a, k):
            ec = nums[c]
            gram[c][a] = gram[a][c] = sum(x * ec[key] for key, x in wa.items() if key in ec)
    return gram


def _exact_certificates(basis, beta: DiagonalWeight) -> DerivationCertificates:
    """The certificate of a rational basis against a rational sorted beta,
    from one integer pass per basis element.

    Each D_a becomes N^a / den_a and beta becomes B / L with integer N^a and
    B.  Then tr(beta D_a) = sum_i B_i N^a_ii / (L den_a), D_a lies in the
    parabolic subalgebra iff N^a vanishes where B_i < B_j, and the Gram
    matrix is D G' D / L for the integer G' of _integer_gram and
    D = diag(1 / den_a): positive semidefinite iff G' is.  The reported
    floats are those of the rationals: int / int is correctly rounded in
    Python, as float(Fraction(num, den)) is.
    """
    if not beta.is_sorted():
        raise ValueError("parabolic membership requires sorted beta")
    big = math.lcm(*(x.denominator for x in beta.entries))
    bint = [x.numerator * (big // x.denominator) for x in beta.entries]
    n = len(bint)
    upper = {(i, j) for i in range(n) for j in range(n) if bint[i] < bint[j]}
    dens, nums = zip(*(_integer_entries(d) for d in basis))
    traces = [sum(bint[i] * x for (i, j), x in e.items() if i == j) for e in nums]
    gram = _integer_gram(nums, bint)
    qgram = [[g / (big * da * dc) for g, dc in zip(row, dens)] for row, da in zip(gram, dens)]
    return DerivationCertificates(
        len(basis),
        linalg.is_psd(gram),
        all(t == 0 for t in traces),
        all(upper.isdisjoint(e) for e in nums),
        float(np.linalg.eigvalsh(np.asarray(qgram, dtype=float)).min()),
        max(abs(t) / (big * den) for t, den in zip(traces, dens)))


def derivation_certificates(
    mu: BracketTensor,
    beta: DiagonalWeight,
    tol: float = DEFAULT_TOL,
) -> DerivationCertificates:
    """Evaluate the derivation-side stratum conditions for a sorted beta.

    The quadratic condition is decided exactly (positive semidefiniteness of
    the Gram form on the derivation basis) when mu and beta are rational,
    and by the smallest eigenvalue of that Gram matrix otherwise.  Either
    way the reported residual is that smallest eigenvalue, computed in
    floats, on the derivation basis: orthonormal in float mode, so it is the
    minimum of <[beta, D], D> over unit D; the canonical rational basis in
    exact mode, so only its sign is basis-free there.  The rational case
    runs in integers (_exact_certificates), the float and mixed cases on
    the basis as given.
    """
    basis = derivations(mu, tol=min(tol, 1e-9))
    if not basis:
        return DerivationCertificates(0, True, True, True, 0.0, 0.0)
    if beta.is_exact_mode and mu.is_exact_mode:
        return _exact_certificates(basis, beta)
    b = beta.entries
    traces = [abs(float(_trace_value(d, b))) for d in basis]
    parabolic = all(parabolic_membership(d, beta, tol) for d in basis)
    qmin = float(np.linalg.eigvalsh(np.asarray(_adbeta_gram(basis, b), dtype=float)).min())
    return DerivationCertificates(len(basis), qmin >= -tol, all(t <= tol for t in traces),
                                  parabolic, qmin, max(traces))


def delta_check(mu: BracketTensor, beta: DiagonalWeight, tol: float = DEFAULT_TOL) -> Scalar:
    """<pi(beta + |beta|^2 I) mu, mu> = 2 sum_{i<j,k} (mu_ij^k)^2 (<beta,a> - |beta|^2).

    Requires mu in W_beta, where every term is nonnegative; the total is zero
    exactly when mu lies in Z_beta.
    """
    w = in_W(mu, beta, tol)
    if not w.ok:
        raise ValueError(f"mu is not in W_beta (minimal slack {float(w.residual):g})")
    return _delta_value(mu, _gaps(mu, beta.entries, beta.norm_sq()))


def _delta_value(mu: BracketTensor, gaps: dict[Key, Scalar]) -> Scalar:
    """2 sum (mu_ij^k)^2 gap over the coefficients in their dict order."""
    return 2 * sum(c * c * gaps[key] for key, c in mu.coeffs.items())


@dataclass(frozen=True)
class StratumCertificate:
    """Bundle of the stratum conditions for a candidate label beta.

    checks maps condition names to booleans; residuals carries the matching
    numeric slack.  q_value is 1/|beta|^2, the GIT weight of the stratum.
    """

    beta: DiagonalWeight
    q_value: Scalar
    eigenvalue_type: tuple[int, ...] | None
    type_scale: Fraction | None
    checks: dict[str, bool]
    residuals: dict[str, Scalar]

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "beta": [linalg.format_scalar(x) for x in self.beta.entries],
            "q_value": linalg.format_scalar(self.q_value),
            "eigenvalue_type": list(self.eigenvalue_type) if self.eigenvalue_type else None,
            "type_scale": linalg.format_scalar(self.type_scale) if self.type_scale else None,
            "checks": dict(sorted(self.checks.items())),
            "residuals": {k: linalg.format_scalar(v) for k, v in sorted(self.residuals.items())},
            "all_passed": self.all_passed,
        }


def certify_candidate(
    mu: BracketTensor,
    beta: DiagonalWeight,
    tol: float = DEFAULT_TOL,
) -> StratumCertificate:
    """Evaluate every stratum condition of beta against mu.

    beta must be the sorted chamber representative.  Exact inputs give exact
    verdicts; float inputs are judged against tol.
    """
    nsq = beta.norm_sq()
    if nsq == 0:
        raise ValueError("beta = 0 labels no stratum")
    checks: dict[str, bool] = {}
    residuals: dict[str, Scalar] = {}

    tr = beta.trace()
    tr_res = tr + 1
    checks["trace_minus_one"] = linalg.is_zero(tr_res, tol)
    residuals["trace_minus_one"] = tr_res

    gaps = _gaps(mu, beta.entries, nsq)
    w = _w_membership(gaps, tol)
    z = _z_membership(gaps, tol)
    checks["in_W"], residuals["in_W"] = w.ok, w.residual
    checks["in_Z"], residuals["in_Z"] = z.ok, z.residual

    m_val = m_degree(mu, [x / nsq for x in beta.entries])
    m_res = m_val - 1
    checks["m_equals_one"] = linalg.is_zero(m_res, tol)
    residuals["m_equals_one"] = m_res

    delta = _delta_value(mu, gaps)
    checks["delta_nonneg"] = linalg.nonneg(delta, tol)
    residuals["delta_nonneg"] = delta

    shifted = tuple(x + nsq for x in beta.entries)
    checks["beta_positive_shift"] = min(shifted) > 0
    residuals["beta_positive_shift"] = min(shifted)

    der = derivation_certificates(mu, beta, tol=tol)
    checks["derivations_in_parabolic"] = der.parabolic_all
    checks["adbeta_nonneg"] = der.adbeta_nonneg
    checks["betaort_zero"] = der.betaort_zero
    residuals["adbeta_quadratic_min"] = der.quadratic_min
    residuals["betaort_trace_max"] = der.trace_max_abs

    etype = scale = None
    if checks["beta_positive_shift"] and beta.is_exact_mode:
        etype, scale = _eigenvalue_type(shifted)

    return StratumCertificate(beta, 1 / nsq, etype, scale, checks, residuals)
