"""Moment map of the bracket action and its normalized gradient flow.

The Ricci form of a bracket mu is the symmetric matrix defined by

    <Ric_mu, a> = (1/4) <pi(a) mu, mu>       for every n x n matrix a,

computed entrywise as

    <Ric x, y> = -1/2 sum_ij <mu(x,e_i),e_j><mu(y,e_i),e_j>
                 + 1/4 sum_ij <mu(e_i,e_j),x><mu(e_i,e_j),y>.

An exact bracket gets it from its cached integer view N = L mu
(bracket._moment_numerator: 4 L^2 Ric_mu in integers, divided once), a
float one from ric_array.

With M_mu = 4 Ric_mu / |mu|^2 (trace exactly -1), the flow descends |M_mu|^2
on the unit sphere.  Critical points are exactly the brackets with
pi(M_mu) mu parallel to mu; the sorted spectrum of M_mu at a limit is the
candidate stratum label beta, to be certified independently.

The stepper moves along the group, mu <- normalize(exp(-h M).mu), which
agrees with the explicit Euler step mu - h pi(M) mu to first order but keeps
every iterate exactly inside the closure of the starting orbit.  That matters
when the starting bracket satisfies the Jacobi identity: Euler steps drift
off the variety of Lie brackets at O(h^2) per step, and near a saddle of
|M|^2 the drift escapes toward strata that the orbit closure never meets.
M is fixed during a step, so one eigendecomposition M = q diag(w) q^T per
iteration gives exp(-h M) and exp(h M) for every halved h.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bracket import (BracketTensor, _central_series, _moment_numerator, _slot_tables,
                      act_array, inner, jacobi_check, rep_array)
from .linalg import Scalar, fraction_rows
from .strata import DiagonalWeight, StratumCertificate, certify_candidate

FLOW_STEP = 0.1
FLOW_TOL = 1e-10
FLOW_MAX_ITER = 200_000
DENOM_BOUND = 64
CHOP = 1e-6            # relative size below which aligned-limit coefficients drop
RATIONAL_TOL = 1e-6    # largest rounding a rationalized spectrum may carry


@dataclass(frozen=True)
class MomentValue:
    """Ricci form, its trace-normalized version, and |mu|^2."""

    ric: object
    m_normalized: object
    norm_mu_sq: Scalar


def ric_array(arr: np.ndarray) -> np.ndarray:
    t1 = np.einsum("aij,bij->ab", arr, arr)
    t2 = np.einsum("ija,ijb->ab", arr, arr)
    return -0.5 * t1 + 0.25 * t2


def ricci_moment(mu: BracketTensor) -> MomentValue:
    """Moment value via the entrywise curvature formula."""
    nsq = inner(mu, mu)
    if nsq == 0:
        raise ValueError("the zero bracket has no normalized moment")
    if mu.is_exact_mode:
        den, coeffs = mu._integer
        r4 = _moment_numerator(mu.dim, *_slot_tables(coeffs))
        # 4 Ric / |mu|^2 = r4 / (L^2 |mu|^2), and L^2 |mu|^2 = 2 sum N^2
        return MomentValue(fraction_rows(r4, 4 * den * den),
                           fraction_rows(r4, 2 * sum(v * v for v in coeffs.values())), nsq)
    arr = mu.to_array()
    ric = ric_array(arr)
    return MomentValue(ric, 4.0 * ric / nsq, nsq)


def expm_sym(w: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    """exp(t s) for the symmetric s with eigendecomposition (w, q) = eigh(s).

    Callers decompose s once and take every exponential of it from that.
    """
    return (q * np.exp(t * w)) @ q.T


@dataclass(frozen=True)
class FlowResult:
    limit: BracketTensor
    aligned: BracketTensor
    spectrum: tuple[float, ...]
    residuals: dict[str, float]
    iterations: int
    converged: bool
    message: str
    trace: list[tuple[int, float, float]] | None


def _norm(arr: np.ndarray) -> float:
    return math.sqrt(float((arr * arr).sum()))


def flow_to_critical(
    mu0: BracketTensor,
    step: float = FLOW_STEP,
    tol: float = FLOW_TOL,
    max_iter: int = FLOW_MAX_ITER,
    record_trace: bool = False,
) -> FlowResult:
    """Descend |M_mu|^2 on the unit sphere until pi(M) mu is tangent to mu.

    Steps that would increase |M|^2 are halved until they do not; the
    tangency residual |pi(M) mu - <pi(M) mu, mu> mu| below tol declares
    convergence.  The returned aligned limit is rotated so that M is diagonal
    with nondecreasing spectrum.

    The iterate with the smallest residual seen so far is kept and returned.
    Critical points are saddles of |M|^2 in the ambient tensor space, stable
    only along the cone the starting orbit closure lives in, so rounding
    noise in the unstable weight directions grows exponentially and can
    eventually eject the trajectory (the ejection products typically fail
    the Jacobi identity and certify as invalid).  When the residual rebounds
    by three orders of magnitude after dipping below 1e-6 the flow therefore
    stops and reports the best iterate; downstream exact certification
    decides whether that point is a genuine critical limit.
    """
    if mu0.is_zero():
        raise ValueError("cannot flow the zero bracket")
    arr = mu0.to_array()
    arr /= _norm(arr)
    trace: list[tuple[int, float, float]] | None = [] if record_trace else None

    def moment_of(a: np.ndarray) -> tuple[np.ndarray, float]:
        m = 4.0 * ric_array(a)  # |a| = 1 so no normalization needed
        return m, float((m * m).sum())

    m, msq = moment_of(arr)
    converged = False
    message = "max_iter reached without tangency"
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    it = 0
    for it in range(max_iter + 1):
        grad = rep_array(m, arr)
        tang = grad - float((grad * arr).sum()) * arr
        res = _norm(tang)
        if trace is not None:
            trace.append((it, msq, res))
        if best is None or res < best[0]:
            best = (res, arr, m)
        if res <= tol:
            converged = True
            message = "tangency residual below tol"
            break
        if best[0] < 1e-6 and res > 1e3 * max(best[0], tol):
            message = ("tangency rebounded after nearing a critical point; "
                       "keeping the best iterate")
            break
        if it == max_iter:
            break
        h = step
        accepted = False
        w, q = np.linalg.eigh(m)
        while h >= 1e-15:
            new = act_array(expm_sym(w, q, -h), expm_sym(w, q, h), arr)
            new /= _norm(new)
            m_new, msq_new = moment_of(new)
            if msq_new <= msq + 1e-14:
                arr, m, msq = new, m_new, msq_new
                accepted = True
                break
            h *= 0.5
        if not accepted:
            message = "step size underflow before tangency"
            break

    if best is None:
        raise RuntimeError("flow recorded no iterate")
    res, arr, m = best
    spec, q = np.linalg.eigh(m)
    aligned_arr = act_array(q.T, q, arr)
    limit = BracketTensor.from_array(arr)
    top = float(np.abs(aligned_arr).max())
    aligned = BracketTensor.from_array(aligned_arr, chop=CHOP * max(top, 1e-300))
    nsq_b = float(np.sum(spec * spec))
    gaps = [float(spec[k - 1] - spec[i - 1] - spec[j - 1]) - nsq_b
            for (i, j, k) in aligned.coeffs]
    residuals = {
        "tangency": res,
        "z_membership": max((abs(g) for g in gaps), default=0.0),
        "m_equals_one": abs(min(gaps, default=0.0)) / nsq_b if nsq_b else float("inf"),
    }
    return FlowResult(limit, aligned, tuple(float(x) for x in spec), residuals, it,
                      converged, message, trace)


@dataclass(frozen=True)
class StratumDetection:
    certificate: StratumCertificate
    flow: FlowResult
    rationalized: bool


def stratum_detect(
    mu: BracketTensor,
    step: float = FLOW_STEP,
    tol: float = FLOW_TOL,
    max_iter: int = FLOW_MAX_ITER,
    denom_bound: int = DENOM_BOUND,
    record_trace: bool = False,
) -> StratumDetection:
    """Flow to a critical point, rationalize the spectrum, certify the label.

    The spectrum of M at the limit is rounded to fractions with denominator
    at most denom_bound; if the rounding stays within RATIONAL_TOL and sums
    to -1 the exact candidate is certified, otherwise the float spectrum is
    used and only tolerance-graded checks are possible.
    """
    if not jacobi_check(mu)[0]:
        warnings.warn("bracket does not satisfy the Jacobi identity; "
                      "stratum detection is formal only", stacklevel=2)
    elif _central_series(mu)[-1] != 0:
        warnings.warn("bracket is not nilpotent; the positivity check is "
                      "expected to fail", stacklevel=2)
    fr = flow_to_critical(mu, step=step, tol=tol, max_iter=max_iter,
                          record_trace=record_trace)
    cand = [Fraction(x).limit_denominator(denom_bound) for x in fr.spectrum]
    exact_ok = (sum(cand) == -1
                and max(abs(float(c) - x) for c, x in zip(cand, fr.spectrum)) <= RATIONAL_TOL)
    if exact_ok:
        beta = DiagonalWeight(tuple(cand))
    else:
        beta = DiagonalWeight(tuple(float(x) for x in fr.spectrum))
    cert = certify_candidate(fr.aligned, beta)
    return StratumDetection(cert, fr, exact_ok)
