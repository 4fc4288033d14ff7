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

stratum_label is the one route from a bracket to a certified label: the
weight hull of an exact input basis, or the rounded limit of the flow.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import linalg
from ._np import np
from .bracket import (BracketTensor, Key, _central_series, _exact_derivations, derivations,
                      jacobi_check, permutation_act)
from .flow import FLOW_MAX_ITER, FlowResult, flow_to_critical
from .linalg import Scalar, frac, is_exact
from .minnorm import PointSet, min_norm_point

DEFAULT_TOL = 1e-8
DENOM_BOUND = 64
RATIONAL_TOL = 1e-6    # largest rounding a rationalized spectrum may carry


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
        den, b = linalg.numerators(self.entries)
        return den, tuple(b), sum(x * x for x in b)


class Membership(NamedTuple):
    ok: bool
    residual: Scalar


def _integer_weight(i: int, j: int, k: int, dim: int) -> tuple[int, ...]:
    v = [0] * dim
    v[i - 1] -= 1
    v[j - 1] -= 1
    v[k - 1] += 1
    return tuple(v)


def weights(mu: BracketTensor) -> PointSet:
    """Distinct weight vectors of the support, sorted lexicographically."""
    if mu.is_zero():
        raise ValueError("the zero bracket has no weights")
    coords = sorted({_integer_weight(i, j, k, mu.dim) for (i, j, k) in mu.coeffs})
    return PointSet(mu.dim, 1, tuple(coords))


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


def in_W(mu: BracketTensor, beta: DiagonalWeight, tol: float = 0.0) -> Membership:
    """Minimal slack of <beta, a> - |beta|^2 over the support; ok iff >= -tol."""
    g = min(_gaps(mu, beta.entries, beta.norm_sq()).values())
    return Membership(linalg.nonneg(g, tol), g)


def project_Z(mu: BracketTensor, beta: DiagonalWeight, tol: float = 0.0) -> BracketTensor:
    """Keep only the coefficients whose weight sits at equality for beta.

    This is the limit of e^{-t(beta + |beta|^2 I)} . mu as t -> oo when mu
    lies in W_beta.
    """
    gaps = _gaps(mu, beta.entries, beta.norm_sq())
    kept = {key: c for key, c in mu.coeffs.items() if linalg.is_zero(gaps[key], tol)}
    return BracketTensor(mu.dim, kept, mu.scalar_mode)


def _integer_type(den: int, nums: Sequence[int]) -> tuple[tuple[int, ...], Fraction]:
    """The eigenvalue type of positive shifted entries nums / den: the
    coprime integers proportional to them, sorted, and their scale."""
    nums = sorted(nums)
    g = math.gcd(*nums)
    return tuple(v // g for v in nums), Fraction(g, den)


@dataclass(frozen=True)
class DerivationCertificates:
    """Checks of <[beta, D], D> >= 0 and tr(beta D) = 0 over Der(mu).

    quadratic_min is the minimum of <[beta, D], D> over unit D in Der(mu),
    and trace_max_abs the largest |tr(beta D)| over the basis; both are
    exact on the exact route.  There adbeta_nonneg and quadratic_min are
    None (not decided) when the basis is not graded by beta.
    """

    dim_der: int
    adbeta_nonneg: bool | None
    betaort_zero: bool
    parabolic_all: bool
    quadratic_min: Scalar | None
    trace_max_abs: Scalar


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


def _exact_certificates(mu: BracketTensor, beta: DiagonalWeight,
                        tol: float) -> DerivationCertificates:
    """The certificate of a rational mu against a rational sorted beta,
    from one integer pass per basis element.

    The basis is that of _exact_derivations, (den_a, {r n + c: N^a_rc}) for
    the element D_a = N^a / den_a, and beta is B / L by its integer view.
    Then tr(beta D_a) = sum_r B_r N^a_rr / (L den_a), and D_a has the
    weights B_r - B_c of its nonzero entries: it lies in the parabolic
    subalgebra iff none is negative.  The form is <[beta, D], D> =
    sum_rc (B_r - B_c) D_rc^2 / L, so an element of one weight w has
    <[beta, D_a], D_a> = w |D_a|^2 / L, and elements of different weights
    share no entry.  When every element has one weight (on Z_beta, where
    alpha = beta + |beta|^2 I is a derivation and grades Der(mu), it does)
    the form is therefore nonnegative iff no weight is negative, that is iff
    the basis is parabolic, and its minimum over unit D is the least weight
    over L.  Otherwise both are left undecided; off Z_beta the certificate
    fails on in_Z anyway.
    """
    basis = _exact_derivations(mu)
    if not basis:
        return DerivationCertificates(0, True, True, True, Fraction(0), Fraction(0))
    if not beta.is_sorted():
        raise ValueError("parabolic membership requires sorted beta")
    big, bint, _ = beta._integer
    n = len(bint)
    traces = [sum(bint[r] * e[r * (n + 1)] for r in range(n) if r * (n + 1) in e)
              for _, e in basis]
    grades = [{bint[col // n] - bint[col % n] for col in e} for _, e in basis]
    least = min(min(g) for g in grades)
    graded = all(len(g) == 1 for g in grades)
    return DerivationCertificates(
        len(basis),
        least >= 0 if graded else None,
        all(t == 0 for t in traces),
        least >= 0,
        Fraction(least, big) if graded else None,
        max(Fraction(abs(t), big * den) for t, (den, _) in zip(traces, basis)))


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


def _check_tol(tol: float) -> None:
    """Refuse a tol below 0, where the float derivation basis is empty and
    every check over it would pass vacuously, or one that is not finite."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and at least 0, got {tol}")


def derivation_certificates(
    mu: BracketTensor,
    beta: DiagonalWeight,
    tol: float = DEFAULT_TOL,
) -> DerivationCertificates:
    """Evaluate the derivation-side stratum conditions for a sorted beta.

    The quadratic residual is the minimum of <[beta, D], D> over unit D in
    Der(mu).  When mu and beta are rational it is exact: the grading of the
    derivation basis by beta decides the quadratic condition, which is then
    the parabolic one, and leaves it undecided (None) on a basis that is not
    graded (_exact_certificates, in integers, on the null space numerators
    of _exact_derivations and the label's integer view).
    Otherwise it is the smallest eigenvalue of the Gram form on the
    orthonormal basis of derivations, judged against tol
    (_float_certificates).  A negative or non-finite tol raises ValueError.
    """
    _check_tol(tol)
    return _label_route(mu, beta)[1](mu, beta, tol)


def _label_route(mu: BracketTensor, beta: DiagonalWeight):
    """(label values, derivation certificate) of the route for mu and beta:
    integers when both are rational, their own arithmetic otherwise."""
    if mu.is_exact_mode and beta.is_exact_mode:
        return _integer_label_values, _exact_certificates
    return _label_values, _float_certificates


def _delta_value(mu: BracketTensor, gaps: dict[Key, Scalar]) -> Scalar:
    """<pi(beta + |beta|^2 I) mu, mu> = 2 sum (mu_ij^k)^2 gap over the
    coefficients in their dict order: on W_beta every term is nonnegative,
    and the total is zero exactly when mu lies in Z_beta."""
    return 2 * sum(c * c * gaps[key] for key, c in mu.coeffs.items())


@dataclass(frozen=True)
class StratumCertificate:
    """Bundle of the stratum conditions for a candidate label beta.

    checks maps condition names to booleans, or None for a condition not
    decided; residuals carries the matching numeric slack, None where it is
    not decided.  q_value is 1/|beta|^2, the GIT weight of the stratum.
    """

    beta: DiagonalWeight
    q_value: Scalar
    eigenvalue_type: tuple[int, ...] | None
    type_scale: Fraction | None
    checks: dict[str, bool | None]
    residuals: dict[str, Scalar | None]

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def certify_candidate(
    mu: BracketTensor,
    beta: DiagonalWeight,
    tol: float = DEFAULT_TOL,
) -> StratumCertificate:
    """Evaluate every stratum condition of beta against mu.

    beta must be the sorted chamber representative.  Exact inputs give exact
    verdicts; float inputs are judged against tol.  For rational mu and beta
    the label conditions run on integers (_integer_label_values); otherwise
    on the gaps <beta, a> - |beta|^2 in the arithmetic of the inputs.  A
    negative or non-finite tol raises ValueError.
    """
    _check_tol(tol)
    q_value, residuals, etype = _label_route(mu, beta)[0](mu, beta)
    checks = {
        "trace_minus_one": linalg.is_zero(residuals["trace_minus_one"], tol),
        "in_W": linalg.nonneg(residuals["in_W"], tol),
        "in_Z": linalg.is_zero(residuals["in_Z"], tol),
        "m_equals_one": linalg.is_zero(residuals["m_equals_one"], tol),
        "delta_nonneg": linalg.nonneg(residuals["delta_nonneg"], tol),
        "beta_positive_shift": linalg.positive(residuals["beta_positive_shift"], tol),
    }

    der = derivation_certificates(mu, beta, tol)
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
        etype = _integer_type(*linalg.numerators(shifted))
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
    etype = _integer_type(square, shifted) if min(shifted) > 0 else (None, None)
    return Fraction(square, nsq), residuals, etype


def _rationalized(spectrum: Sequence[float]) -> tuple[DiagonalWeight, bool]:
    """(label, rounded) of the flow's limit spectrum: the entries rounded to
    fractions with denominator at most DENOM_BOUND when that moves none by
    more than RATIONAL_TOL and they sum to -1, else the floats themselves."""
    cand = [Fraction(x).limit_denominator(DENOM_BOUND) for x in spectrum]
    if (sum(cand) == -1
            and max(abs(float(c) - x) for c, x in zip(cand, spectrum)) <= RATIONAL_TOL):
        return DiagonalWeight(tuple(cand)), True
    return DiagonalWeight(tuple(float(x) for x in spectrum)), False


@dataclass(frozen=True)
class StratumLabel:
    """A certificate and its route: "weight_hull" (no flow ran; flow and
    rationalized are None) or "flow" (rationalized: the spectrum was rounded)."""

    route: str
    certificate: StratumCertificate
    flow: FlowResult | None
    rationalized: bool | None


def stratum_label(
    mu: BracketTensor,
    max_iter: int = FLOW_MAX_ITER,
    record_trace: bool = False,
) -> StratumLabel:
    """Certify the stratum label of mu; warn if mu is not a nilpotent Lie bracket.

    An exact mu is first certified against beta_of(mu), sorted into the Weyl
    chamber, with its basis permuted to match; if that passes, no flow runs.
    Otherwise mu flows to a critical point (max_iter and record_trace go to
    flow_to_critical), and the aligned limit is certified against its
    spectrum, rounded by _rationalized.
    """
    if not jacobi_check(mu)[0]:
        warnings.warn("bracket does not satisfy the Jacobi identity; "
                      "stratum detection is formal only", stacklevel=2)
    elif _central_series(mu)[-1] != 0:
        warnings.warn("bracket is not nilpotent; the positivity check is "
                      "expected to fail", stacklevel=2)
    if mu.is_exact_mode:
        chamber, order = sort_to_weyl_chamber(beta_of(mu))
        # the inverse of order, 1-based: basis vector order[pos] moves to slot pos
        sigma = [pos + 1 for pos in sorted(range(mu.dim), key=order.__getitem__)]
        cert = certify_candidate(permutation_act(sigma, mu), chamber)
        if cert.all_passed:
            return StratumLabel("weight_hull", cert, None, None)
    fr = flow_to_critical(mu, max_iter=max_iter, record_trace=record_trace)
    beta, rationalized = _rationalized(fr.spectrum)
    return StratumLabel("flow", certify_candidate(fr.aligned, beta), fr, rationalized)
