"""Moment map of the bracket action and its normalized gradient flow.

The Ricci form of a bracket mu is the symmetric matrix defined by

    <Ric_mu, a> = (1/4) <pi(a) mu, mu>       for every n x n matrix a,

computed entrywise as

    <Ric x, y> = -1/2 sum_ij <mu(x,e_i),e_j><mu(y,e_i),e_j>
                 + 1/4 sum_ij <mu(e_i,e_j),x><mu(e_i,e_j),y>.

An exact bracket gets it from its cached integer view (bracket._ric_exact:
4 L^2 Ric_mu in integers, divided once), a float one from ric_array.

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

from .bracket import (BracketTensor, _central_series, _ric_exact, act_array, inner,
                      jacobi_check, rep_array)
from .linalg import Scalar
from .strata import (DiagonalWeight, StratumCertificate, certify_candidate,
                     in_W, project_Z)

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
        ric = _ric_exact(mu)
        m = [[4 * x / nsq for x in row] for row in ric]
        return MomentValue(ric, m, nsq)
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


@dataclass(frozen=True)
class ProbeRun:
    seed_index: int
    final_norm_sq: float
    iterations: int
    outcome: str  # "decayed" | "stabilized" | "undecided"


@dataclass(frozen=True)
class ProbeResult:
    """Heuristic semistability verdict for the reductive slice action.

    verdict is "unstable" when some descent run drives |g.mu|^2 below floor,
    "semistable" when every run stabilizes above it, else "inconclusive".
    This is numerical evidence, not a proof.
    """

    verdict: str
    inf_norm_estimate: float
    runs: tuple[ProbeRun, ...]
    projection_zero: bool
    z_flow_norm_sq: float | None
    beta_norm_sq: float

    @property
    def consistent(self) -> bool | None:
        if self.verdict == "inconclusive":
            return None
        if self.projection_zero:
            return self.verdict == "unstable"
        if self.z_flow_norm_sq is None:
            return None
        agrees = abs(self.z_flow_norm_sq - self.beta_norm_sq) <= 1e-6 * max(1.0, self.beta_norm_sq)
        return (self.verdict == "semistable") == agrees


def _slice_basis(beta: DiagonalWeight) -> list[np.ndarray]:
    """Orthonormal basis of {symmetric a : [a, beta] = 0, <a, beta> = 0}."""
    n = beta.dim
    groups: dict[object, list[int]] = {}
    for i, b in enumerate(beta.entries):
        groups.setdefault(b, []).append(i)
    basis: list[np.ndarray] = []
    for members in groups.values():
        for a_pos in range(len(members)):
            for b_pos in range(a_pos + 1, len(members)):
                i, j = members[a_pos], members[b_pos]
                s = np.zeros((n, n))
                s[i, j] = s[j, i] = 1.0 / np.sqrt(2.0)
                basis.append(s)
    diag_dirs = np.array([[1.0 if i in members else 0.0 for i in range(n)]
                          for members in groups.values()])
    bvec = np.array([float(x) for x in beta.entries])
    bn = bvec / np.linalg.norm(bvec)
    proj = diag_dirs - np.outer(diag_dirs @ bn, bn)
    u, s, vh = np.linalg.svd(proj, full_matrices=False)
    for i in range(len(s)):
        if s[i] > 1e-12:
            basis.append(np.diag(vh[i]))
    return basis


def semistability_probe(
    mu: BracketTensor,
    beta: DiagonalWeight,
    restarts: int = 8,
    seed: int = 0,
    step: float = 0.1,
    max_iter: int = 4000,
    floor: float = 1e-10,
    grad_tol: float = 1e-9,
    perturb: float = 0.3,
) -> ProbeResult:
    """Seeded norm-minimization runs over the slice group attached to beta.

    Requires mu in W_beta.  Each restart perturbs mu by exp of a random
    slice direction and then descends |g.mu|^2 by gradient steps along the
    slice; the gradient coefficient along a is 4 <Ric, a>.
    """
    member = in_W(mu, beta, tol=1e-8)
    if not member.ok:
        raise ValueError(f"mu is not in W_beta (minimal slack {float(member.residual):g})")
    basis = _slice_basis(beta)
    rng = np.random.default_rng(seed)
    arr0 = mu.to_array()
    arr0 /= _norm(arr0)
    runs: list[ProbeRun] = []
    for r in range(restarts):
        if basis:
            coeffs = rng.standard_normal(len(basis)) * (perturb if r else 0.0)
            w, q = np.linalg.eigh(sum(c * b for c, b in zip(coeffs, basis)))
            nu = act_array(expm_sym(w, q, 1.0), expm_sym(w, q, -1.0), arr0)
        else:
            nu = arr0.copy()
        nsq = float(np.sum(nu * nu))
        outcome = "undecided"
        window_nsq = nsq
        it = 0
        for it in range(max_iter):
            if nsq < floor:
                outcome = "decayed"
                break
            if not basis:
                outcome = "stabilized"
                break
            ric = ric_array(nu)
            g = np.array([4.0 * float(np.sum(ric * b)) for b in basis])
            gn = float(np.linalg.norm(g))
            if gn <= grad_tol * max(nsq, floor):
                outcome = "stabilized"
                break
            # unit-length direction keeps the decay rate multiplicative even
            # as the norm collapses; the stall window below handles the basin
            w, q = np.linalg.eigh(sum(-(gi / gn) * bi for gi, bi in zip(g, basis)))
            h = step
            accepted = False
            while h > 1e-14:
                new = act_array(expm_sym(w, q, h), expm_sym(w, q, -h), nu)
                new_nsq = float(np.sum(new * new))
                if new_nsq <= nsq:
                    nu, nsq = new, new_nsq
                    accepted = True
                    break
                h *= 0.5
            if not accepted:
                outcome = "stabilized"
                break
            # a flat norm over a window means the run settled above the floor
            if it % 50 == 49:
                if window_nsq - nsq <= 1e-13 * max(nsq, floor):
                    outcome = "stabilized"
                    break
                window_nsq = nsq
        runs.append(ProbeRun(r, nsq, it, outcome))

    zproj = project_Z(mu, beta, tol=1e-9)
    projection_zero = zproj.is_zero()
    z_msq: float | None = None
    if not projection_zero:
        zf = flow_to_critical(zproj, max_iter=50_000)
        z_msq = float(np.sum(np.square(zf.spectrum)))

    if any(r.outcome == "decayed" for r in runs):
        verdict = "unstable"
    elif all(r.outcome == "stabilized" for r in runs):
        verdict = "semistable"
    else:
        verdict = "inconclusive"
    inf_est = min(r.final_norm_sq for r in runs)
    return ProbeResult(verdict, inf_est, tuple(runs), projection_zero, z_msq,
                       float(beta.norm_sq()))
