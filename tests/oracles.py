"""Independent reference routes that tests compare the package against."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from solvstrat import linalg
from solvstrat.bracket import DEFAULT_TOL, BracketTensor, _reduce_basis, inner, rep
from solvstrat.flow import CHOP, FlowResult, MomentValue
from solvstrat.linalg import ZERO, Scalar, dot
from solvstrat.minnorm import MinNormResult, PointSet, Vec
from solvstrat.solvable import (EINSTEIN_TOL, AuditReport, Curvature, EinsteinCheck,
                                MetricSolvableAlgebra, is_standard)
from solvstrat.strata import (DerivationCertificates, DiagonalWeight, StratumCertificate,
                              beta_of, in_W)

ONE = Fraction(1)


def coeff(mu: BracketTensor, i: int, j: int, k: int) -> Scalar:
    """mu_ij^k for any ordered pair (i, j), read off the stored i < j."""
    if i < j:
        return mu.coeffs.get((i, j, k), 0)
    if i > j:
        return -mu.coeffs.get((j, i, k), 0)
    return 0


def eval_bracket(mu: BracketTensor, x: Sequence[Scalar], y: Sequence[Scalar]) -> list[Scalar]:
    """mu(x, y) for coordinate vectors x, y, summed over the stored coefficients."""
    out = [mu.zero] * mu.dim
    for (i, j, k), c in mu.coeffs.items():
        w = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if w:
            out[k - 1] = out[k - 1] + c * w
    return out


def pair(mu: BracketTensor, i: int, j: int) -> list[Scalar]:
    """mu(e_i, e_j) as a coordinate vector."""
    out = [mu.zero] * mu.dim
    for k in range(1, mu.dim + 1):
        c = coeff(mu, i, j, k)
        if c:
            out[k - 1] = c
    return out


def ricci_moment_via_duality(mu: BracketTensor):
    """Independent route: Ric_ab = (1/4) <pi(E_ab) mu, mu>."""
    n = mu.dim
    if mu.is_exact_mode:
        out = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                e = [[Fraction(int(r == a and c == b)) for c in range(n)] for r in range(n)]
                out[a][b] = Fraction(1, 4) * inner(rep(e, mu), mu)
        return out
    arr = mu.to_array()
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n))
            e[a, b] = 1.0
            out[a, b] = 0.25 * float(np.sum(einsum_rep_array(e, arr) * arr))
    return out


def matmul(a, b) -> list[list]:
    """Dense product of two matrices given as lists of rows."""
    bt = linalg.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_sub(a, b) -> list[list]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a) -> list[list]:
    return [[c * x for x in row] for row in a]


def matvec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by dense Gauss-Jordan in Fractions; returns
    (R, pivot column indices)."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rref_inverse(m) -> list[list[Fraction]] | None:
    """Inverse by the rref of [m | I], or None if m is singular."""
    n = len(m)
    r, pivots = rref([list(row) + unit for row, unit in zip(m, identity(n))])
    return [row[n:] for row in r] if pivots == list(range(n)) else None


def solve(a, b) -> list[Fraction] | None:
    """One exact solution of a x = b (free variables 0), or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def dense_nullspace(m):
    """Canonical basis of the right null space (free variables set to 1)."""
    if not m:
        return []
    cols = len(m[0])
    r, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def numerator_basis(basis, cols: int) -> list[list[Fraction]]:
    """The null space numerators (den, {column: numerator}) of
    linalg._nullspace_numerators written out densely in Fractions."""
    out = []
    for den, nums in basis:
        v = [ZERO] * cols
        for c, x in nums.items():
            v[c] = Fraction(x, den)
        out.append(v)
    return out


def fraction_nullspace(rows, cols: int) -> list[list[Fraction]]:
    """Canonical null space basis by sparse Gauss-Jordan in Fractions.

    Each row is reduced by the pivot rows found so far, normalized to pivot
    1, and cleared out of the earlier pivot rows, so the pivot rows stay in
    reduced echelon form.
    """
    pivot_rows: dict[int, dict[int, Fraction]] = {}
    for sparse in rows:
        row = {c: Fraction(x) for c, x in sparse.items() if x}
        for c in [c for c in row if c in pivot_rows]:
            _sub_scaled(row, row[c], pivot_rows[c])
        if not row:
            continue
        p = min(row)
        inv = ONE / row[p]
        row = {c: x * inv for c, x in row.items()}
        for other in pivot_rows.values():
            if p in other:
                _sub_scaled(other, other[p], row)
        pivot_rows[p] = row
    basis = {f: [ZERO] * cols for f in range(cols) if f not in pivot_rows}
    for p, row in pivot_rows.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    for f, v in basis.items():
        v[f] = ONE
    return list(basis.values())


def _sub_scaled(row, f, other) -> None:
    """row -= f * other for sparse rows, dropping the entries that cancel."""
    for c, y in other.items():
        v = row.get(c, ZERO) - f * y
        if v:
            row[c] = v
        else:
            del row[c]


def slotwise_float_derivations(mu: BracketTensor, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Float derivation basis with the system matrix filled one slot at a time."""
    n = mu.dim
    slots = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             for k in range(1, n + 1)]
    arr = mu.to_array()
    m = np.zeros((len(slots), n * n))
    for r in range(n):
        for c in range(n):
            e = np.zeros((n, n))
            e[r, c] = 1.0
            image = einsum_rep_array(e, arr)
            for row, (i, j, k) in enumerate(slots):
                m[row, r * n + c] = image[i - 1, j - 1, k - 1]
    _, s, vh = np.linalg.svd(m)
    cutoff = tol * max(1.0, s[0] if len(s) else 1.0)
    null_dim = int(np.sum(s <= cutoff)) + (n * n - len(s) if len(s) < n * n else 0)
    basis = vh[len(vh) - null_dim:] if null_dim else vh[:0]
    return [v.reshape(n, n) for v in basis]


def fraction_is_psd(m) -> bool:
    """Positive-semidefiniteness by pivoted Schur complements in Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    idx = list(range(len(a)))
    while idx:
        p = max(idx, key=lambda i: a[i][i])
        if a[p][p] < 0:
            return False
        if a[p][p] == 0:
            return all(a[i][j] == 0 for i in idx for j in idx)
        piv = a[p][p]
        idx.remove(p)
        for i in idx:
            f = a[i][p] / piv
            if f:
                for j in idx:
                    a[i][j] -= f * a[p][j]
    return True


def fraction_derivations(mu: BracketTensor) -> list[list[list[Fraction]]]:
    """Derivation basis of an exact bracket: the Fraction system rep(E_rc, mu)
    = 0 on the unscaled coefficients, solved by fraction_nullspace."""
    n = mu.dim
    slots = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             for k in range(1, n + 1)]
    slot_index = {s: r for r, s in enumerate(slots)}
    rows: list[dict[int, Fraction]] = [{} for _ in slots]
    for r in range(n):
        for c in range(n):
            e = [[ONE if (i, j) == (r, c) else ZERO for j in range(n)] for i in range(n)]
            for key, val in rep(e, mu).coeffs.items():
                rows[slot_index[key]][r * n + c] = val
    return [[vec[r * n: (r + 1) * n] for r in range(n)]
            for vec in fraction_nullspace(rows, n * n)]


def fraction_adbeta_gram(basis, b) -> list[list[Fraction]]:
    """Gram matrix of <[beta, D], D> in Fractions, each pair summed over the
    entries off the b_i = b_j blocks that both elements have nonzero."""
    n = len(b)
    entries = [{(i, j): d[i][j] for i in range(n) for j in range(n) if b[i] != b[j] and d[i][j]}
               for d in basis]
    return [[sum((b[i] - b[j]) * x * ec[i, j] for (i, j), x in ea.items() if (i, j) in ec)
             for ec in entries] for ea in entries]


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


def fraction_derivation_certificates(mu: BracketTensor, beta,
                                     tol: float = DEFAULT_TOL) -> DerivationCertificates:
    """The derivation certificate of an exact mu against a sorted beta, on the
    fraction_derivations basis: traces and parabolic entries by Fraction
    sums.  For an exact beta, when every basis element has one weight
    b_i - b_j over its nonzero entries, fraction_is_psd of
    fraction_adbeta_gram and the least Rayleigh quotient
    <[beta, D], D> / |D|^2 over the basis; neither is decided otherwise.
    For a float beta, the smallest eigenvalue of the dense Gram form against
    tol."""
    basis = fraction_derivations(mu)
    b = beta.entries
    exact = beta.is_exact_mode
    if not basis:
        zero = Fraction(0) if exact else 0.0
        return DerivationCertificates(0, True, True, True, zero, zero)
    n = len(b)
    traces = [sum(x * d[i][i] for i, x in enumerate(b)) for d in basis]
    parabolic = all(parabolic_membership(d, beta, tol) for d in basis)
    if not exact:
        gram = np.asarray(dense_adbeta_gram(basis, b), dtype=float)
        qmin = float(np.linalg.eigvalsh(gram).min())
        return DerivationCertificates(len(basis), qmin >= -tol,
                                      all(abs(float(t)) <= tol for t in traces), parabolic,
                                      qmin, max(abs(float(t)) for t in traces))
    graded = all(len({b[i] - b[j] for i in range(n) for j in range(n) if d[i][j]}) == 1
                 for d in basis)
    adbeta = qmin = None
    if graded:
        gram = fraction_adbeta_gram(basis, b)
        adbeta = fraction_is_psd(gram)
        qmin = min(gram[a][a] / sum(x * x for row in d for x in row)
                   for a, d in enumerate(basis))
    return DerivationCertificates(len(basis), adbeta, all(t == 0 for t in traces), parabolic,
                                  qmin, max(abs(t) for t in traces))


def float_derivation_certificates(mu: BracketTensor, beta,
                                  tol: float = DEFAULT_TOL) -> DerivationCertificates:
    """The derivation certificate of a float mu on slotwise_float_derivations:
    traces and parabolic entries by Python sums and parabolic_membership per
    element, and the smallest eigenvalue of dense_adbeta_gram against tol."""
    basis = slotwise_float_derivations(mu, tol=min(tol, 1e-9))
    if not basis:
        return DerivationCertificates(0, True, True, True, 0.0, 0.0)
    b = beta.entries
    traces = [abs(float(sum(x * d[i][i] for i, x in enumerate(b)))) for d in basis]
    parabolic = all(parabolic_membership(d, beta, tol) for d in basis)
    qmin = float(np.linalg.eigvalsh(np.asarray(dense_adbeta_gram(basis, b), dtype=float)).min())
    return DerivationCertificates(len(basis), qmin >= -tol, all(t <= tol for t in traces),
                                  parabolic, qmin, max(traces))


def fraction_certify_candidate(mu: BracketTensor, beta,
                               tol: float = DEFAULT_TOL) -> StratumCertificate:
    """certify_candidate in the arithmetic of the inputs: the gaps
    <beta, a> - |beta|^2, the degree of beta / |beta|^2 and delta summed
    per key in Fractions (floats when mu or beta is float), the shifted
    entries and eigenvalue type of an exact beta from its Fractions, and
    the derivation certificate of fraction_derivation_certificates (exact
    mu) or float_derivation_certificates (float mu)."""
    b = beta.entries
    nsq = sum(x * x for x in b)
    if nsq == 0:
        raise ValueError("beta = 0 labels no stratum")
    gaps = {(i, j, k): b[k - 1] - b[i - 1] - b[j - 1] - nsq for (i, j, k) in mu.support()}
    a = [x / nsq for x in b]
    shifted = tuple(x + nsq for x in b)
    residuals = {"trace_minus_one": sum(b) + 1,
                 "in_W": min(gaps.values()),
                 "in_Z": max(abs(x) for x in gaps.values()),
                 "m_equals_one": min(a[k - 1] - a[i - 1] - a[j - 1]
                                     for (i, j, k) in mu.coeffs) - 1,
                 "delta_nonneg": 2 * sum(c * c * gaps[key] for key, c in mu.coeffs.items()),
                 "beta_positive_shift": min(shifted)}
    checks = {"trace_minus_one": linalg.is_zero(residuals["trace_minus_one"], tol),
              "in_W": linalg.nonneg(residuals["in_W"], tol),
              "in_Z": linalg.is_zero(residuals["in_Z"], tol),
              "m_equals_one": linalg.is_zero(residuals["m_equals_one"], tol),
              "delta_nonneg": linalg.nonneg(residuals["delta_nonneg"], tol),
              "beta_positive_shift": linalg.positive(min(shifted), tol)}
    certify = (fraction_derivation_certificates if mu.is_exact_mode
               else float_derivation_certificates)
    der = certify(mu, beta, tol)
    checks["derivations_in_parabolic"] = der.parabolic_all
    checks["adbeta_nonneg"] = der.adbeta_nonneg
    checks["betaort_zero"] = der.betaort_zero
    residuals["adbeta_quadratic_min"] = der.quadratic_min
    residuals["betaort_trace_max"] = der.trace_max_abs
    etype = scale = None
    if checks["beta_positive_shift"] and beta.is_exact_mode:
        ordered = sorted(shifted)
        den = math.lcm(*(x.denominator for x in ordered))
        ints = [int(x * den) for x in ordered]
        g = math.gcd(*ints)
        etype, scale = tuple(v // g for v in ints), Fraction(g, den)
    return StratumCertificate(beta, 1 / nsq, etype, scale, checks, residuals)


def dense_adbeta_gram(basis, b):
    """Gram matrix of <[beta, D], D> by a dense n^2 sum per pair of elements."""
    n = len(b)

    def form(d1, d2):
        return sum((b[i] - b[j]) * d1[i][j] * d2[i][j] for i in range(n) for j in range(n))

    k = len(basis)
    return [[form(basis[a], basis[c]) for c in range(k)] for a in range(k)]


def dense_ad(s, idx: int):
    """Matrix of ad b_idx on the full algebra (1-based index)."""
    d = s.dim
    zero = Fraction(0) if s.bracket.is_exact_mode else 0.0
    out = [[zero] * d for _ in range(d)]
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            c = coeff(s.bracket, idx, j, k)
            if c:
                out[k - 1][j - 1] = c
    return out


def dense_ad_on_n(s, r: int):
    """Matrix of ad A_r restricted to n (1 <= r <= dim_a)."""
    m, n = s.dim_a, s.dim_n
    zero = Fraction(0) if s.bracket.is_exact_mode else 0.0
    out = [[zero] * n for _ in range(n)]
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            c = coeff(s.bracket, r, m + j, m + k)
            if c:
                out[k - 1][j - 1] = c
    return out


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _commutator(a, b):
    return mat_sub(matmul(a, b), matmul(b, a))


def dense_s_ad_h(s, h):
    """S(ad H) as the symmetric part of sum_r h_r ad A_r, by dense matrices."""
    d = s.dim
    exact = s.bracket.is_exact_mode
    zero = Fraction(0) if exact else 0.0
    adh = [[zero] * d for _ in range(d)]
    for r, hr in enumerate(h, start=1):
        if hr:
            adh = _mat_add(adh, mat_scale(hr, dense_ad(s, r)))
    half = Fraction(1, 2) if exact else 0.5
    return [[(adh[i][j] + adh[j][i]) * half for j in range(d)] for i in range(d)]


def dense_audit_terms(s, shift):
    """The standardness audit's three terms for E|_n = diag(shift):

        t1 = 1/4 <pi(E|_n) mu, mu>
        t2 = 1/4 sum_rs <E|_n [A_r, A_s], [A_r, A_s]>
        t3 = 1/2 sum_r <[E|_n, ad A_r|_n], ad A_r|_n>

    through rep, the bracket pairs and dense commutators.
    """
    mu = s.mu_n()
    m, n = s.dim_a, s.dim_n
    exact = s.bracket.is_exact_mode
    half = Fraction(1, 2) if exact else 0.5
    quarter = Fraction(1, 4) if exact else 0.25
    shift_mat = [[shift[i] if i == j else (Fraction(0) if exact else 0.0)
                  for j in range(n)] for i in range(n)]
    term1 = quarter * inner(rep(shift_mat, mu), mu)

    term2 = Fraction(0) if exact else 0.0
    for r in range(1, m + 1):
        for t in range(1, m + 1):
            v = pair(s.bracket, r, t)[m:]
            term2 = term2 + quarter * sum(shift[i] * v[i] * v[i] for i in range(n))

    term3 = Fraction(0) if exact else 0.0
    for r in range(1, m + 1):
        ad_r = dense_ad_on_n(s, r)
        comm = _commutator(shift_mat, ad_r)
        term3 = term3 + half * sum(comm[i][j] * ad_r[i][j] for i in range(n) for j in range(n))
    return term1, term2, term3


def dense_killing_form(s):
    """B_ij = tr(ad b_i ad b_j) from the dense ad matrices."""
    ads = [dense_ad(s, i) for i in range(1, s.dim + 1)]
    d = s.dim
    return [[linalg.trace(matmul(ads[i], ads[j])) for j in range(d)] for i in range(d)]


def einsum_act_array(g: np.ndarray, ginv: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """g.arr as one einsum, in the contraction order optimize=True picks."""
    return np.einsum("pi,qj,pqr,kr->ijk", ginv, ginv, arr, g, optimize=True)


def einsum_rep_array(alpha: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """rep(alpha, arr) as three unoptimized einsums."""
    t1 = np.einsum("kr,ijr->ijk", alpha, arr)
    t2 = np.einsum("pi,pjk->ijk", alpha, arr)
    t3 = np.einsum("qj,iqk->ijk", alpha, arr)
    return t1 - t2 - t3


def einsum_ric_array(arr: np.ndarray) -> np.ndarray:
    """The Ricci form of arr as two unoptimized einsums."""
    t1 = np.einsum("aij,bij->ab", arr, arr)
    t2 = np.einsum("ija,ijb->ab", arr, arr)
    return -0.5 * t1 + 0.25 * t2


def loop_from_array(arr: np.ndarray, chop: float = 0.0) -> BracketTensor:
    """BracketTensor.from_array by a loop over the keys (i, j, k), i < j."""
    n = arr.shape[0]
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                c = 0.5 * (arr[i, j, k] - arr[j, i, k])
                if abs(c) > chop:
                    coeffs[(i + 1, j + 1, k + 1)] = float(c)
    return BracketTensor(n, coeffs, "float")


def _eigh_expm_sym(s: np.ndarray, t: float) -> np.ndarray:
    w, q = np.linalg.eigh(s)
    return (q * np.exp(t * w)) @ q.T


def eigh_per_exponential_flow(mu0: BracketTensor, step: float, tol: float, max_iter: int,
                              record_trace: bool) -> FlowResult:
    """The descent flow with einsum kernels, np.linalg.eigh inside each
    exponential and the loop from_array: no float kernel of the package."""
    def norm(a):
        return float(np.sqrt(np.sum(a * a)))

    def moment_of(a):
        m = 4.0 * einsum_ric_array(a)
        return m, float(np.sum(m * m))

    arr = mu0.to_array()
    arr /= norm(arr)
    trace = [] if record_trace else None
    m, msq = moment_of(arr)
    converged = False
    message = "max_iter reached without tangency"
    best = None
    it = 0
    for it in range(max_iter + 1):
        grad = einsum_rep_array(m, arr)
        tang = grad - float(np.sum(grad * arr)) * arr
        res = norm(tang)
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
        while h >= 1e-15:
            new = einsum_act_array(_eigh_expm_sym(m, -h), _eigh_expm_sym(m, h), arr)
            new /= norm(new)
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
    spec, q = np.linalg.eigh(m)
    aligned_arr = einsum_act_array(q.T, q, arr)
    top = float(np.abs(aligned_arr).max())
    aligned = loop_from_array(aligned_arr, chop=CHOP * max(top, 1e-300))
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


def _unit(n: int, exact: bool):
    return identity(n) if exact else [[float(i == j) for j in range(n)] for i in range(n)]


def _span_basis(vectors, exact: bool, tol: float):
    """A basis of the span: the nonzero rows of the rref in Fractions, or
    the package's SVD route for floats."""
    if not exact:
        return _reduce_basis(vectors, tol)
    vectors = [v for v in vectors if any(v)]
    r, pivots = rref(vectors) if vectors else ([], [])
    return r[: len(pivots)]


def eval_jacobi_residual(mu: BracketTensor):
    """Max |Jacobiator| component, evaluating basis vectors through eval_bracket."""
    n = mu.dim
    unit = _unit(n, mu.is_exact_mode)
    worst = Fraction(0) if mu.is_exact_mode else 0.0
    for i, j, k in itertools.combinations(range(n), 3):
        a = eval_bracket(mu, eval_bracket(mu, unit[i], unit[j]), unit[k])
        b = eval_bracket(mu, eval_bracket(mu, unit[j], unit[k]), unit[i])
        c = eval_bracket(mu, eval_bracket(mu, unit[k], unit[i]), unit[j])
        for x, y, z in zip(a, b, c):
            s = x + y + z
            if s < 0:
                s = -s
            if s > worst:
                worst = s
    return worst


def eval_lower_central_series(mu: BracketTensor, tol: float = DEFAULT_TOL) -> list[int]:
    """Lower central series dimensions, spanning [g, b] by eval_bracket on unit vectors."""
    exact = mu.is_exact_mode
    n = mu.dim
    dims = [n]
    basis = _unit(n, exact)
    while True:
        unit = _unit(n, exact)
        gens = [eval_bracket(mu, e, b) for e in unit for b in basis]
        basis = _span_basis(gens, exact, tol)
        d = len(basis)
        dims.append(d)
        if d == 0 or d == dims[-2]:
            return dims


def eval_is_solvable(mu: BracketTensor, tol: float = DEFAULT_TOL) -> bool:
    """Derived series through eval_bracket on every pair of basis vectors."""
    exact = mu.is_exact_mode
    basis = _unit(mu.dim, exact)
    prev = mu.dim
    while True:
        gens = [eval_bracket(mu, x, y) for i, x in enumerate(basis) for y in basis[i + 1:]]
        basis = _span_basis(gens, exact, tol)
        cur = len(basis)
        if cur == 0:
            return True
        if cur == prev:
            return False
        prev = cur


@dataclass(frozen=True)
class _ScaledPoints:
    """Denominator-cleared coordinates and Gram matrix of a point set."""

    den: int
    coords: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]


def _scaled(ps: PointSet) -> _ScaledPoints:
    den = math.lcm(*(x.denominator for p in ps.points for x in p))
    coords = tuple(tuple(int(x * den) for x in p) for p in ps.points)
    gram = tuple(tuple(sum(a * b for a, b in zip(p, q)) for q in coords)
                 for p in coords)
    return _ScaledPoints(den, coords, gram)


def _affine_minimizer(sc: _ScaledPoints, pts: Sequence[Vec],
                      subset: Sequence[int]) -> tuple[list[Fraction], list[Fraction]] | None:
    """Min-norm point of the affine hull of pts[subset], with weights.

    Solves the KKT system [G 1; 1^T 0] [w; t] = [0; 1] with G the Gram
    matrix (scaling G by den^2 only rescales the multiplier t, not w).  The
    bordered matrix is singular exactly when the subset is affinely
    dependent, so None doubles as the independence test.
    """
    k = len(subset)
    a = [[sc.gram[i][j] for j in subset] + [1] for i in subset]
    a.append([1] * k + [0])
    sol = linalg.solve_integer(a, [0] * k + [1])
    if sol is None:
        return None
    d, num = sol
    w = [Fraction(v, d) for v in num[:k]]
    y = [sum(w[t] * pts[i][c] for t, i in enumerate(subset)) for c in range(len(pts[0]))]
    return w, y


def fraction_min_norm_point(ps: PointSet) -> MinNormResult:
    """Wolfe's active-set method with Fraction pricing.

    The reference for the package's integer-priced min_norm_point: the same
    start, entering and drop rules and the same KKT solves, with the point
    and every inner product <x, p_i> kept as Fractions.
    """
    pts = ps.points
    sc = _scaled(ps)
    start = min(range(len(pts)), key=lambda i: (dot(pts[i], pts[i]), pts[i]))
    corral = [start]
    w = {start: Fraction(1)}
    x = list(pts[start])

    while True:
        nsq = dot(x, x)
        best, best_val = None, nsq
        for i, p in enumerate(pts):
            v = dot(x, p)
            if v < best_val:
                best, best_val = i, v
        if best is None:
            break
        corral.append(best)
        w[best] = Fraction(0)
        while True:
            res = _affine_minimizer(sc, pts, corral)
            if res is None:
                raise RuntimeError("Wolfe corral became affinely dependent")
            v, y = res
            if all(vi > 0 for vi in v):
                x = y
                w = dict(zip(corral, v))
                break
            # step from w toward v until the first weight hits zero
            theta = min(
                (Fraction(w[c]) / (w[c] - vi) for c, vi in zip(corral, v) if vi <= 0),
                default=Fraction(1),
            )
            w = {c: (1 - theta) * w[c] + theta * vi for c, vi in zip(corral, v)}
            corral = [c for c in corral if w[c] > 0]
            w = {c: w[c] for c in corral}

    weights = tuple(w.get(i, Fraction(0)) for i in range(len(pts)))
    return MinNormResult(tuple(x), weights, tuple(sorted(w)))


def brute_force_min_norm(ps: PointSet, max_points: int = 12) -> MinNormResult:
    """Independent oracle: enumerate all affinely independent subsets.

    For each subset, the affine minimizer with nonnegative weights is a
    feasible candidate; the optimum is the best of these.  Subsets are
    visited in (cardinality, lex) order and the canonical representative is
    the first candidate attaining the optimal norm with strictly positive
    weights.
    """
    if len(ps) > max_points:
        raise ValueError(f"brute force capped at {max_points} points, got {len(ps)}")
    pts = ps.points
    sc = _scaled(ps)
    best_nsq: Fraction | None = None
    best: tuple[Vec, tuple[int, ...], list[Fraction]] | None = None
    max_size = min(len(pts), ps.dim + 1)
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(range(len(pts)), size):
            res = _affine_minimizer(sc, pts, subset)
            if res is None:  # affinely dependent subset
                continue
            w, y = res
            if any(wi < 0 for wi in w):
                continue
            nsq = dot(y, y)
            if best_nsq is None or nsq < best_nsq:
                best_nsq, best = nsq, None
            if nsq == best_nsq and best is None and all(wi > 0 for wi in w):
                best = (tuple(y), subset, w)
    if best is None:
        raise RuntimeError("no strictly positive optimal representation found")
    point, subset, w = best
    weights = [Fraction(0)] * len(pts)
    for i, wi in zip(subset, w):
        weights[i] = wi
    return MinNormResult(point, tuple(weights), subset)


def affinely_independent(points: Sequence[Sequence]) -> bool:
    """Whether the points are affinely independent: the rows (p, 1) have
    full rank, by an exact dense rref."""
    return len(rref([[Fraction(x) for x in p] + [ONE] for p in points])[1]) == len(points)


def fraction_ric(mu: BracketTensor):
    """Ric_mu of an exact bracket by Fraction sums over pairs of nonzero
    coefficients: -1/2 over equal tails (y, k), 1/4 over equal heads (x, y)."""
    n = mu.dim
    full = {}
    for (i, j, k), c in mu.coeffs.items():
        full[(i, j, k)] = c
        full[(j, i, k)] = -c
    ric = [[Fraction(0)] * n for _ in range(n)]
    by_tail, by_head = {}, {}
    for (x, y, k), c in full.items():
        by_tail.setdefault((y, k), {})[x] = c
        by_head.setdefault((x, y), {})[k] = c
    for group in by_tail.values():
        for p, c1 in group.items():
            for q, c2 in group.items():
                ric[p - 1][q - 1] -= Fraction(1, 2) * c1 * c2
    for group in by_head.values():
        for p, c1 in group.items():
            for q, c2 in group.items():
                ric[p - 1][q - 1] += Fraction(1, 4) * c1 * c2
    return ric


def fraction_ricci_moment(mu: BracketTensor) -> MomentValue:
    """ricci_moment of an exact bracket in Fractions: m = 4 Ric / |mu|^2
    entry by entry, on the Fraction Ricci form."""
    nsq = inner(mu, mu)
    ric = fraction_ric(mu)
    return MomentValue(ric, [[4 * x / nsq for x in row] for row in ric], nsq)


class TraceIdentity(NamedTuple):
    tr_re: Scalar
    pairing: Scalar
    residual: float


def trace_identity_check(s: MetricSolvableAlgebra, e) -> TraceIdentity:
    """tr(R E) versus (1/4) <pi(E) mu, mu>: equal for any tensor, no Jacobi
    needed.  E is an arbitrary square matrix on the full algebra: an ndarray
    is read through tolist(), a sequence of rows as given.  The pairing is
    taken in floats when E has a float entry, on the bracket's to_float."""
    r = s.curvature.r
    d = s.dim
    rows = e.tolist() if isinstance(e, np.ndarray) else [list(row) for row in e]
    tr_re = sum(r[p][q] * rows[q][p] for p in range(d) for q in range(d))
    exact = all(linalg.is_exact(x) for row in rows for x in row)
    mu = s.bracket if exact else s.bracket.to_float()
    pairing = inner(rep(rows, mu), mu) / 4
    return TraceIdentity(tr_re, pairing, abs(float(tr_re - pairing)))


def fraction_curvature(s) -> Curvature:
    """H, B, R, S(ad H) and Ricci = R - B/2 - S(ad H) of an exact algebra by
    Fraction sums over the nonzero coefficients."""
    d, m = s.dim, s.dim_a
    h = [sum((coeff(s.bracket, r, j, j) for j in range(1, d + 1)), Fraction(0))
         for r in range(1, m + 1)]
    by_slot = {}
    for (i, j, k), c in s.bracket.coeffs.items():
        by_slot.setdefault((j, k), []).append((i, c))
        by_slot.setdefault((i, k), []).append((j, -c))
    b = [[Fraction(0)] * d for _ in range(d)]
    for (y, z), left in by_slot.items():
        for p, x in left:
            for q, w in by_slot.get((z, y), ()):
                b[p - 1][q - 1] += x * w
    adh = [[Fraction(0)] * d for _ in range(d)]
    for (i, j, k), c in s.bracket.coeffs.items():
        if i <= m:
            adh[k - 1][j - 1] += h[i - 1] * c
        if j <= m:
            adh[k - 1][i - 1] -= h[j - 1] * c
    half = Fraction(1, 2)
    sh = [[(adh[i][j] + adh[j][i]) * half for j in range(d)] for i in range(d)]
    r = fraction_ric(s.bracket)
    return Curvature(h, b, r, sh, mat_sub(mat_sub(r, mat_scale(half, b)), sh))


def fraction_einstein_check(s, tol: float = EINSTEIN_TOL) -> EinsteinCheck:
    """einstein_check of an exact algebra on the Fraction curvature: Einstein
    exactly when Ricci - c I is 0."""
    cur = fraction_curvature(s)
    ric, sh = cur.ricci, cur.s_ad_h
    d = len(ric)
    c = linalg.trace(ric) / d
    resid = max(abs(ric[i][j] - (c if i == j else 0)) for i in range(d) for j in range(d))
    tr_sh = linalg.trace(sh)
    cf = None
    if tr_sh != 0:
        cf = abs(c + linalg.trace_product(sh, sh) / tr_sh)
    return EinsteinCheck(resid == 0, c, resid, cf, tol)


def fraction_standardness_audit(s, beta=None, tol: float = EINSTEIN_TOL) -> AuditReport:
    """standardness_audit of an exact algebra on the Fraction curvature."""
    mu = s.mu_n()
    m, n = s.dim_a, s.dim_n
    zero_branch = mu.is_zero()
    if zero_branch:
        shift, kappa, w_ok, beta = (Fraction(1),) * n, Fraction(1), True, None
    else:
        beta = beta_of(mu) if beta is None else beta
        shift, kappa = beta.shifted(), beta.norm_sq()
        w_ok = in_W(mu, beta, tol).ok
    cur = fraction_curvature(s)
    b, sh = cur.killing, cur.s_ad_h
    ec = fraction_einstein_check(s, tol)
    half = Fraction(1, 2)
    lhs = sum((ec.c + half * b[m + i][m + i] + sh[m + i][m + i]) * shift[i] for i in range(n))
    e = (Fraction(0),) * m + tuple(shift)
    t1 = t2 = t3 = Fraction(0)
    for (i, j, k), x in s.bracket.coeffs.items():
        if i > m:
            t1 += (e[k - 1] - e[i - 1] - e[j - 1]) * x * x
        elif j <= m:
            t2 += e[k - 1] * x * x
        else:
            t3 += (e[k - 1] - e[j - 1]) * x * x
    t1, t2, t3 = half * t1, half * t2, half * t3
    tr_sh_e = sum(sh[m + i][m + i] * shift[i] for i in range(n))
    std = is_standard(s, tol)
    forces = ec.ok and all(x > 0 for x in shift) and t2 == 0
    return AuditReport(zero_branch, beta, kappa, ec.c, lhs, t1, t2, t3,
                       abs(lhs - (t1 + t2 + t3)),
                       abs(sum(x * x for x in shift) - kappa * sum(shift)),
                       abs(tr_sh_e - kappa * linalg.trace(sh)),
                       w_ok, t1 >= 0 and t2 >= 0 and t3 >= 0, ec, std, forces)
