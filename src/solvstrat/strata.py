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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .bracket import BracketTensor, Key, _exact_derivations, derivations
from .linalg import Scalar, frac, is_exact
from .minnorm import PointSet, _scaled_integers, _wolfe

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class DiagonalWeight:
    """Diagonal matrix identified with its entry vector."""

    entries: tuple[Scalar, ...]

    @staticmethod
    def make(entries: Sequence) -> "DiagonalWeight":
        """All entries Fraction if each is exact or an int, else all float."""
        exact = all(is_exact(x) or isinstance(x, int) for x in entries)
        return DiagonalWeight(tuple(map(frac if exact else float, entries)))

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

    @functools.cached_property
    def _integer(self) -> tuple[int, tuple[int, ...], int]:
        """(L, B, |B|^2) for an exact label, computed once: L is the lcm of
        the entry denominators and B = L beta, so |beta|^2 = |B|^2 / L^2
        and the shifted entries are beta_i + |beta|^2 = (L B_i + |B|^2) / L^2."""
        den = math.lcm(*(x.denominator for x in self.entries))
        b = tuple(x.numerator * (den // x.denominator) for x in self.entries)
        return den, b, sum(x * x for x in b)


class Membership(NamedTuple):
    ok: bool
    residual: Scalar


def _integer_weight(i: int, j: int, k: int, dim: int) -> tuple[int, ...]:
    v = [0] * dim
    v[i - 1] -= 1
    v[j - 1] -= 1
    v[k - 1] += 1
    return tuple(v)


def _support_weights(mu: BracketTensor) -> list[tuple[int, ...]]:
    """Distinct integer weight vectors of the support, sorted lexicographically."""
    if mu.is_zero():
        raise ValueError("the zero bracket has no weights")
    return sorted({_integer_weight(i, j, k, mu.dim) for (i, j, k) in mu.coeffs})


def weights(mu: BracketTensor) -> PointSet:
    """Distinct weight vectors of the support, sorted lexicographically."""
    return PointSet.make(_support_weights(mu))


def _entries(alpha) -> Sequence[Scalar]:
    return alpha.entries if isinstance(alpha, DiagonalWeight) else alpha


def m_degree(mu: BracketTensor, alpha) -> Scalar:
    """min over supported weights a of <alpha, a>; the degree of mu along alpha."""
    a = _entries(alpha)
    if mu.is_zero():
        raise ValueError("the zero bracket has no degree")
    return min(a[k - 1] - a[i - 1] - a[j - 1] for (i, j, k) in mu.coeffs)


def beta_of(mu: BracketTensor) -> DiagonalWeight:
    """Minimum-norm point of the convex hull of the supported weights.

    The weights are integer vectors, so their scaled view (denominator 1,
    integer Gram matrix) is built from them directly and handed to Wolfe's
    loop; no PointSet of Fractions is formed.
    """
    return DiagonalWeight(_wolfe(_scaled_integers(1, tuple(_support_weights(mu)))).point)


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


def in_W(mu: BracketTensor, beta: DiagonalWeight, tol: float = 0.0) -> Membership:
    """Minimal slack of <beta, a> - |beta|^2 over the support; ok iff >= -tol."""
    g = min(_gaps(mu, beta.entries, beta.norm_sq()).values())
    return Membership(linalg.nonneg(g, tol), g)


def in_Z(mu: BracketTensor, beta: DiagonalWeight, tol: float = 0.0) -> Membership:
    """Largest absolute slack; ok iff every supported weight sits at equality."""
    g = max(abs(x) for x in _gaps(mu, beta.entries, beta.norm_sq()).values())
    return Membership(linalg.is_zero(g, tol), g)


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
    den = math.lcm(*(x.denominator for x in shifted))
    return _integer_type([x.numerator * (den // x.denominator) for x in shifted], den)


def _integer_type(nums: Sequence[int], den: int) -> EigenvalueType:
    """The eigenvalue type of the shifted entries nums / den."""
    nums = sorted(nums)
    if nums[0] <= 0:
        raise ValueError("beta + |beta|^2 I has non-positive entries; no eigenvalue type")
    g = math.gcd(*nums)
    return EigenvalueType(tuple(v // g for v in nums), Fraction(g, den))


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


def _adbeta_gram(basis, b: Sequence[Scalar]) -> list[list[float]]:
    """Float Gram matrix of <[beta, D], D> = sum_ij (b_i - b_j) D_ij^2 on span(basis).

    Entry (c, a), c >= a, adds (diff_ij D^c_ij) D^a_ij over the n^2
    entries in row-major order, one at a time from +0.0 (np.add.accumulate
    is sequential, like Python's sum), with diff_ij = b_i - b_j tabulated
    once as floats (a Fraction times a float is computed as float(Fraction)
    times that float, so the sums are those of an exact label too).  A term
    with a zero factor is a signed zero, which leaves a sum started at +0.0
    unchanged, so the lower triangle (all that eigvalsh reads) is bitwise
    that of a sum over the shared nonzero entries alone; the upper triangle
    mirrors it.
    """
    n = len(b)
    diff = np.array([float(b[i] - b[j]) for i in range(n) for j in range(n)])
    d = np.asarray(basis, dtype=float).reshape(len(basis), n * n)
    gram = []
    for c, row in enumerate(diff * d):
        terms = np.concatenate((np.zeros((c + 1, 1)), row * d[:c + 1]), axis=1)
        gram.append(np.add.accumulate(terms, axis=1)[:, -1].tolist())
    for c, row in enumerate(gram):
        row.extend(gram[a][c] for a in range(c + 1, len(gram)))
    return gram


def _integer_gram(nums, bint: Sequence[int]) -> list[list[int]]:
    """G'_ac = sum_rc (B_r - B_c) N^a_rc N^c_rc for the integer entries N^a
    of den_a D_a, keyed by column r n + c, and an integer label B = L beta;
    the Gram entry <[beta, D_a], D_c> is G'_ac / (L den_a den_c)."""
    n = len(bint)
    diff = [bint[col // n] - bint[col % n] for col in range(n * n)]
    weighted = [{col: diff[col] * x for col, x in e.items() if diff[col]} for e in nums]
    k = len(nums)
    gram = [[0] * k for _ in range(k)]
    for a, wa in enumerate(weighted):
        for c in range(a, k):
            ec = nums[c]
            gram[c][a] = gram[a][c] = sum(x * ec[col] for col, x in wa.items() if col in ec)
    return gram


def _exact_certificates(mu: BracketTensor, beta: DiagonalWeight,
                        tol: float) -> DerivationCertificates:
    """The certificate of a rational mu against a rational sorted beta,
    from one integer pass per basis element.

    The basis is that of _exact_derivations, (den_a, {r n + c: N^a_rc}) for
    the element D_a = N^a / den_a, and beta is B / L by its integer view.  Then
    tr(beta D_a) = sum_r B_r N^a_rr / (L den_a), D_a lies in the parabolic
    subalgebra iff N^a vanishes where B_r < B_c, and the Gram matrix is
    D G' D / L for the integer G' of _integer_gram and D = diag(1 / den_a):
    positive semidefinite iff G' is.  The reported floats are those of the
    rationals: int / int is correctly rounded in Python, as
    float(Fraction(num, den)) is.
    """
    basis = _exact_derivations(mu)
    if not basis:
        return DerivationCertificates(0, True, True, True, 0.0, 0.0)
    if not beta.is_sorted():
        raise ValueError("parabolic membership requires sorted beta")
    big, bint, _ = beta._integer
    n = len(bint)
    upper = {r * n + c for r in range(n) for c in range(n) if bint[r] < bint[c]}
    dens, nums = zip(*basis)
    traces = [sum(bint[r] * e[r * (n + 1)] for r in range(n) if r * (n + 1) in e)
              for e in nums]
    gram = _integer_gram(nums, bint)
    qgram = [[g / (big * da * dc) for g, dc in zip(row, dens)] for row, da in zip(gram, dens)]
    return DerivationCertificates(
        len(basis),
        linalg.is_psd(gram),
        all(t == 0 for t in traces),
        all(upper.isdisjoint(e) for e in nums),
        float(np.linalg.eigvalsh(np.asarray(qgram, dtype=float)).min()),
        max(abs(t) / (big * den) for t, den in zip(traces, dens)))


def _float_certificates(mu: BracketTensor, beta: DiagonalWeight,
                        tol: float) -> DerivationCertificates:
    """The certificate against a sorted beta when mu or beta is float, on
    the basis of derivations as given.

    The parabolic mask b_i < b_j is taken once, and each masked entry is
    judged by linalg.positive in its own mode; the quadratic condition is
    the smallest eigenvalue of _adbeta_gram against tol.
    """
    basis = derivations(mu, tol=min(tol, 1e-9))
    if not basis:
        return DerivationCertificates(0, True, True, True, 0.0, 0.0)
    if not beta.is_sorted():
        raise ValueError("parabolic membership requires sorted beta")
    b = beta.entries
    n = len(b)
    traces = [abs(float(sum(x * d[i][i] for i, x in enumerate(b)))) for d in basis]
    upper = [(i, j) for i in range(n) for j in range(n) if b[i] < b[j]]
    parabolic = not any(linalg.positive(abs(d[i][j]), tol) for d in basis for i, j in upper)
    qmin = float(np.linalg.eigvalsh(np.asarray(_adbeta_gram(basis, b), dtype=float)).min())
    return DerivationCertificates(len(basis), qmin >= -tol, all(t <= tol for t in traces),
                                  parabolic, qmin, max(traces))


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
    runs in integers, on the null space numerators of _exact_derivations
    and the label's integer view (_exact_certificates), the float and mixed
    cases on the basis of derivations as given (_float_certificates).
    """
    return _label_route(mu, beta)[1](mu, beta, tol)


def _label_route(mu: BracketTensor, beta: DiagonalWeight):
    """(label values, derivation certificate) of the route for mu and beta:
    integers when both are rational, their own arithmetic otherwise."""
    if mu.is_exact_mode and beta.is_exact_mode:
        return _integer_label_values, _exact_certificates
    return _label_values, _float_certificates


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
    verdicts; float inputs are judged against tol.  For rational mu and beta
    the label conditions run on integers (_integer_label_values); otherwise
    on the gaps <beta, a> - |beta|^2 in the arithmetic of the inputs.
    """
    label_values, derivation_certificate = _label_route(mu, beta)
    q_value, residuals, etype = label_values(mu, beta)
    checks = {
        "trace_minus_one": linalg.is_zero(residuals["trace_minus_one"], tol),
        "in_W": linalg.nonneg(residuals["in_W"], tol),
        "in_Z": linalg.is_zero(residuals["in_Z"], tol),
        "m_equals_one": linalg.is_zero(residuals["m_equals_one"], tol),
        "delta_nonneg": linalg.nonneg(residuals["delta_nonneg"], tol),
        "beta_positive_shift": residuals["beta_positive_shift"] > 0,
    }

    der = derivation_certificate(mu, beta, tol)
    checks["derivations_in_parabolic"] = der.parabolic_all
    checks["adbeta_nonneg"] = der.adbeta_nonneg
    checks["betaort_zero"] = der.betaort_zero
    residuals["adbeta_quadratic_min"] = der.quadratic_min
    residuals["betaort_trace_max"] = der.trace_max_abs

    values, scale = etype
    return StratumCertificate(beta, q_value, values, scale, checks, residuals)


def _label_values(mu: BracketTensor, beta: DiagonalWeight):
    """(1 / |beta|^2, residuals, (eigenvalue type, scale)) of the label
    conditions, in the arithmetic of mu and beta; the type is (None, None)
    unless beta is exact with positive shifted entries."""
    nsq = beta.norm_sq()
    if nsq == 0:
        raise ValueError("beta = 0 labels no stratum")
    gaps = _gaps(mu, beta.entries, nsq)
    shifted = tuple(x + nsq for x in beta.entries)
    residuals = {
        "trace_minus_one": beta.trace() + 1,
        "in_W": min(gaps.values()),
        "in_Z": max(abs(x) for x in gaps.values()),
        "m_equals_one": m_degree(mu, [x / nsq for x in beta.entries]) - 1,
        "delta_nonneg": _delta_value(mu, gaps),
        "beta_positive_shift": min(shifted),
    }
    etype = None, None
    if min(shifted) > 0 and beta.is_exact_mode:
        etype = _eigenvalue_type(shifted)
    return 1 / nsq, residuals, etype


def _integer_label_values(mu: BracketTensor, beta: DiagonalWeight):
    """_label_values of a rational mu and beta, in integers.

    With (L, B) the label's integer view, S = |B|^2 and N = L_mu mu the
    bracket's, a supported key has the gap <beta, a> - |beta|^2 =
    G / L^2 with G = L (B_k - B_i - B_j) - S.  Then the in_W and in_Z
    residuals are min G / L^2 and max |G| / L^2, m - 1 = min G / S,
    delta = 2 sum N^2 G / (L_mu^2 L^2) and the shifted entries are
    (L B_i + S) / L^2; each residual becomes one Fraction at the end.
    """
    big, b, nsq = beta._integer
    if nsq == 0:
        raise ValueError("beta = 0 labels no stratum")
    den, coeffs = mu._integer
    gaps = [big * (b[k - 1] - b[i - 1] - b[j - 1]) - nsq for (i, j, k) in coeffs]
    square = big * big
    shifted = [big * x + nsq for x in b]
    residuals = {
        "trace_minus_one": Fraction(sum(b) + big, big),
        "in_W": Fraction(min(gaps), square),
        "in_Z": Fraction(max(abs(g) for g in gaps), square),
        "m_equals_one": Fraction(min(gaps), nsq),
        "delta_nonneg": Fraction(2 * sum(c * c * g for c, g in zip(coeffs.values(), gaps)),
                                 den * den * square),
        "beta_positive_shift": Fraction(min(shifted), square),
    }
    etype = _integer_type(shifted, square) if min(shifted) > 0 else (None, None)
    return Fraction(square, nsq), residuals, etype
