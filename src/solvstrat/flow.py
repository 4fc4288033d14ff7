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
candidate stratum label beta, which strata.stratum_label rounds and certifies.

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
from dataclasses import dataclass

from ._np import np
from .bracket import BracketTensor, _moment_numerator, _slot_tables, act_array, inner, rep_array
from .linalg import Scalar, fraction_rows

FLOW_STEP = 0.1
FLOW_TOL = 1e-10
FLOW_MAX_ITER = 200_000
CHOP = 1e-6            # relative size below which aligned-limit coefficients drop


@dataclass(frozen=True)
class MomentValue:
    """Ricci form, its trace-normalized version, and |mu|^2."""

    ric: object
    m_normalized: object
    norm_mu_sq: Scalar


def ric_array(arr: np.ndarray) -> np.ndarray:
    """Ric of a float64 (n, n, n) array, -1/2 arr_aij arr_bij + 1/4 arr_ija arr_ijb
    summed over i and j: the floats of the two unoptimized einsums (see _np)."""
    c_einsum = np._core.multiarray.c_einsum
    t1 = c_einsum("aij,bij->ab", arr, arr)
    t2 = c_einsum("ija,ijb->ab", arr, arr)
    t1 *= -0.5
    t2 *= 0.25
    t1 += t2
    return t1


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
    aligned: BracketTensor
    spectrum: tuple[float, ...]
    residuals: dict[str, float]
    iterations: int
    converged: bool
    message: str
    trace: list[tuple[int, float, float]] | None


def _norm(arr: np.ndarray) -> float:
    return math.sqrt(float(np.add.reduce(arr * arr, axis=None)))


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(m) for a finite float64 m, bitwise: the LAPACK gufunc
    that eigh runs, without its wrapper (see _np).  LAPACK reports failure
    by NaN output, which raises LinAlgError as eigh does (after numpy's
    invalid-value warning, which eigh's wrapper turns off)."""
    w, q = np.linalg._umath_linalg.eigh_lo(m, signature="d->dd")
    if w[0] != w[0]:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w, q


def flow_to_critical(
    mu0: BracketTensor,
    step: float = FLOW_STEP,
    max_iter: int = FLOW_MAX_ITER,
    record_trace: bool = False,
) -> FlowResult:
    """Descend |M_mu|^2 on the unit sphere until pi(M) mu is tangent to mu.

    Steps that would increase |M|^2 are halved until they do not; the
    tangency residual |pi(M) mu - <pi(M) mu, mu> mu| below FLOW_TOL declares
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

    Raises ValueError for the zero bracket, for a nonzero bracket whose
    float norm underflows to 0 or overflows, and for a negative max_iter.
    """
    if mu0.is_zero():
        raise ValueError("cannot flow the zero bracket")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    arr = mu0.to_array()
    norm = _norm(arr)
    if norm == 0.0:
        raise ValueError("the bracket's norm underflows to 0 in floating point")
    if not math.isfinite(norm):
        raise ValueError("the bracket's norm overflows the float range; "
                         "scale the coefficients down")
    arr /= norm
    trace: list[tuple[int, float, float]] | None = [] if record_trace else None

    def moment_of(a: np.ndarray) -> tuple[np.ndarray, float]:
        m = ric_array(a)
        m *= 4.0  # |a| = 1 so no normalization needed
        return m, float(np.add.reduce(m * m, axis=None))

    m, msq = moment_of(arr)
    converged = False
    message = "max_iter reached without tangency"
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    it = 0
    for it in range(max_iter + 1):
        grad = rep_array(m, arr)
        tang = grad - float(np.add.reduce(grad * arr, axis=None)) * arr
        res = _norm(tang)
        if trace is not None:
            trace.append((it, msq, res))
        if best is None or res < best[0]:
            best = (res, arr, m)
        if res <= FLOW_TOL:
            converged = True
            message = "tangency residual below tol"
            break
        if best[0] < 1e-6 and res > 1e3 * max(best[0], FLOW_TOL):
            message = ("tangency rebounded after nearing a critical point; "
                       "keeping the best iterate")
            break
        if it == max_iter:
            break
        h = step
        accepted = False
        w, q = _eigh(m)
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

    res, arr, m = best
    spec, q = _eigh(m)
    aligned_arr = act_array(q.T, q, arr)
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
    return FlowResult(aligned, tuple(float(x) for x in spec), residuals, it,
                      converged, message, trace)
