"""Where the arithmetic mode is decided, and the boundaries of its comparisons.

Every tolerance-graded verdict of the package is checked at its boundary:
tolerances exactly at the compared residual (either sign, except that the
certificate, which refuses a negative tol, sees only the nonnegative ones)
and one ulp to either side of it, exact zero against residuals of size
1/10^30, and numpy.float64 inputs.  The expected verdicts are literals, so flipping a
`<=` into `<` (or `>=` into `>`) in a comparison rule changes one of them.
"""

import argparse
import ast
import dataclasses
import inspect
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

import solvstrat
from generators import ch2, filiform4, heisenberg3, nonstandard_heisenberg
from oracles import parabolic_membership
from solvstrat.bracket import BracketTensor, act, derivations, jacobi_check
from solvstrat.cli import build_parser, main
from solvstrat.linalg import is_exact
from solvstrat.solvable import (MetricSolvableAlgebra, curvature_report, einstein_check,
                                is_standard, standardness_audit)
from solvstrat.strata import DiagonalWeight, certify_candidate, in_W, project_Z

F = Fraction
TINY = F(1, 10**30)
ROOT_TINY = F(1, 10**15)       # its square is TINY
EXACT_TOLS = (0.0, 1e-8, 1.0)

H3 = heisenberg3()
H3F = H3.to_float()
M4 = BracketTensor.make(4, {(1, 2, 4): 1})   # gap -w^2 for beta (-1, -1, w, 1)
NS = nonstandard_heisenberg()


def _around(r) -> tuple[float, ...]:
    r = float(r)
    return (r, float(np.nextafter(r, -np.inf)), float(np.nextafter(r, np.inf)))


def _tols(*residuals) -> list[float]:
    """Tolerances at +-r and one ulp off, for each float residual r."""
    out: list[float] = []
    for r in residuals:
        if not is_exact(r):
            out += _around(r) + _around(-r)
    return out or list(EXACT_TOLS)


def _bits(values) -> str:
    return "".join("1" if v else "0" for v in values)


def _weight(*xs) -> DiagonalWeight:
    return DiagonalWeight(tuple(xs))


def _np(*xs) -> DiagonalWeight:
    return DiagonalWeight(tuple(np.float64(x) for x in xs))


GAP_CASES = {
    "float-negative": (H3F, _weight(-1.0, -1.0, 1.0 + 1e-9)),
    "float-positive": (H3F, _weight(-1.0, -1.0, 1.0 - 1e-9)),
    "float-zero": (H3F, _weight(-1.0, -1.0, 1.0)),
    "float64": (H3F, _np(-1.0, -1.0, 1.0 + 3e-9)),
    "exact-mu-float-beta": (H3, _weight(-1.0, -1.0, 1.0 + 1e-9)),
    "exact-zero": (H3, DiagonalWeight.make([-1, -1, 1])),
    "exact-minus-tiny": (M4, DiagonalWeight.make([-1, -1, ROOT_TINY, 1])),
    "exact-plus-tiny": (H3, DiagonalWeight.make([0, 0, TINY])),
}

POSITIVITY_CASES = {
    "float-two": _weight(-1.0, -1.0, 1.0),
    "float-zero": _weight(-0.5, 0.5),
    "float-small": _weight(-0.5, 0.5 + 1e-9),
    "float64": _np(-0.5, 0.5 + 3e-9),
    "exact-zero": DiagonalWeight.make([F(-1, 2), F(1, 2)]),
    "exact-plus-tiny": DiagonalWeight.make([F(-1, 2), F(1, 2) + TINY]),
    "exact-minus-tiny": DiagonalWeight.make([F(-1, 2), F(1, 2) - TINY]),
}


def _unit_entry(i, j, v, n=3):
    d = [[v * 0] * n for _ in range(n)]
    d[i][j] = v
    return d


# Der(GRADED) is spanned by D = diag(-1, 0, 1), which lies in the parabolic of
# beta = (-1, 0, 1).  Moved by g = I + v E_ij it becomes D + v (d_j - d_i) E_ij,
# so the certificate's parabolic check meets an (i, j) entry of size ~v.
GRADED = BracketTensor.make(3, {(1, 2, 1): 1, (1, 3, 2): 1})


def _moved(i, j, v, beta, float64=False):
    g = [[v * 0 + (r == c) for c in range(3)] for r in range(3)]
    g[i][j] = v
    mu = act(g, GRADED if is_exact(v) else GRADED.to_float())
    if float64:
        mu = BracketTensor(3, {k: np.float64(c) for k, c in mu.coeffs.items()}, "float")
    return mu, beta, (i, j)


MOVED_CASES = {
    "float-upper": _moved(0, 1, 1e-9, _weight(-1.0, 0.0, 1.0)),
    "float-upper-negative": _moved(0, 2, -1e-9, _weight(-1.0, 0.0, 1.0)),
    "float-lower": _moved(1, 0, 1e-9, _weight(-1.0, 0.0, 1.0)),
    "float64": _moved(1, 2, 2e-9, _np(-1.0, 0.0, 1.0), float64=True),
    "float-exact-beta": _moved(0, 1, 1e-9, DiagonalWeight.make([-1, 0, 1])),
    "exact-zero": _moved(0, 1, F(0), DiagonalWeight.make([-1, 0, 1])),
    "exact-plus-tiny": _moved(0, 1, TINY, DiagonalWeight.make([-1, 0, 1])),
    "exact-minus-tiny": _moved(1, 2, -TINY, DiagonalWeight.make([-1, 0, 1])),
}

# a bracket of each dimension to certify the labels of POSITIVITY_CASES against
SHIFT_PARTNERS = {2: BracketTensor.make(2, {(1, 2, 2): 1}), 3: H3}

PARABOLIC_CASES = {
    "float-upper": (_unit_entry(0, 1, 1e-9), _weight(-1.0, 0.0, 1.0)),
    "float-upper-negative": (_unit_entry(0, 2, -1e-9), _weight(-1.0, 0.0, 1.0)),
    "float-lower": (_unit_entry(1, 0, 1e-9), _weight(-1.0, 0.0, 1.0)),
    "float64-array": (np.array(_unit_entry(1, 2, 2e-9)), _np(-1.0, 0.0, 1.0)),
    "float-exact-beta": (_unit_entry(0, 1, 1e-9), DiagonalWeight.make([-1, 0, 1])),
    "exact-zero": (_unit_entry(0, 1, F(0)), DiagonalWeight.make([-1, 0, 1])),
    "exact-plus-tiny": (_unit_entry(0, 1, TINY), DiagonalWeight.make([-1, 0, 1])),
    "exact-minus-tiny": (_unit_entry(1, 2, -TINY), DiagonalWeight.make([-1, 0, 1])),
}

CERTIFY_CASES = {
    "float-off-label": (H3F, _weight(-1.0, -1.0, 1.0 + 1e-9)),
    "float-label": (H3F, _weight(-1.0, -1.0, 1.0)),
    "float-fil4": (filiform4().to_float(), _weight(-1.0, -0.5, 0.0, 0.5 + 1e-9)),
    "float64": (H3F, _np(-1.0, -1.0, 1.0 - 3e-9)),
    "exact-mu-float-beta": (filiform4(), _weight(-1.0, -0.5, 1e-10, 0.5)),
    "float-mu-exact-beta": (filiform4().to_float(),
                            DiagonalWeight.make([-1, F(-1, 2), 0, F(1, 2)])),
    "exact-label": (H3, DiagonalWeight.make([-1, -1, 1])),
    "exact-plus-tiny": (H3, DiagonalWeight.make([-1, -1, 1 + TINY])),
    "exact-minus-tiny": (M4, DiagonalWeight.make([-1, -1, ROOT_TINY, 1 - ROOT_TINY ** 2])),
}

JACOBI_CASES = {
    "float-lie": H3F,
    "float-off": BracketTensor.make(3, {(1, 2, 3): 1.0, (1, 3, 1): 1e-9}),
    "float64": BracketTensor(3, {(1, 2, 3): np.float64(1.0), (1, 3, 1): np.float64(3e-9)},
                             "float"),
    "exact-lie": H3,
    "exact-tiny": BracketTensor.make(3, {(1, 2, 3): 1, (1, 3, 1): TINY}),
}


def _solvable(coeffs, mode=None):
    mu = BracketTensor(3, coeffs, mode) if mode else BracketTensor.make(3, coeffs)
    return MetricSolvableAlgebra(2, 1, mu)


STANDARD_CASES = {
    "float-none": _solvable({(1, 3, 3): 1.0}),
    "float-positive": _solvable({(1, 2, 3): 1e-9}),
    "float-negative": _solvable({(1, 2, 3): -1e-9, (1, 3, 3): 1.0}),
    "float64": _solvable({(1, 2, 3): np.float64(2e-9)}, "float"),
    "exact-none": _solvable({(1, 3, 3): 1}),
    "exact-plus-tiny": _solvable({(1, 2, 3): TINY}),
    "exact-minus-tiny": _solvable({(1, 2, 3): -TINY, (1, 3, 3): 1}),
}

AUDIT_CASES = {
    "float-negative": (MetricSolvableAlgebra(0, 3, H3F), _weight(-1.0, -1.0, 1.0 + 1e-9)),
    "float-positive": (MetricSolvableAlgebra(0, 3, H3F), _weight(-1.0, -1.0, 1.0 - 1e-9)),
    "float64": (MetricSolvableAlgebra(0, 3, H3F), _np(-1.0, -1.0, 1.0 + 3e-9)),
    "float-nonstandard": (MetricSolvableAlgebra(NS.dim_a, NS.dim_n, NS.bracket.to_float()), None),
    "exact-mu-float-beta": (MetricSolvableAlgebra(0, 3, H3), _weight(-1.0, -1.0, 1.0 + 1e-9)),
    "exact-zero": (MetricSolvableAlgebra(0, 4, M4), DiagonalWeight.make([-1, -1, 0, 1])),
    "exact-minus-tiny": (MetricSolvableAlgebra(0, 4, M4),
                         DiagonalWeight.make([-1, -1, ROOT_TINY, 1])),
    "exact-nonstandard": (NS, None),
}


def _rh2_squared(eps) -> MetricSolvableAlgebra:
    # RH^2 x RH^2 on a1, a2, e3, e4 with [a1, a2] = eps e3; Jacobi holds for
    # every eps, and only eps = 0 is Einstein and standard
    one = eps * 0 + 1
    return MetricSolvableAlgebra.create(2, 2, BracketTensor.make(
        4, {(1, 3, 3): one, (2, 4, 4): one, (1, 2, 3): eps}))


EINSTEIN_CASES = {
    "float-zero": _rh2_squared(0.0),
    "float-small": _rh2_squared(1e-9),
    "exact-zero": _rh2_squared(F(0)),
    "exact-tiny": _rh2_squared(TINY),
    "exact-milli": _rh2_squared(F(1, 1000)),
}


def verdicts() -> dict[str, str]:
    """Each case's verdicts, one character per tolerance of _tols."""
    out: dict[str, str] = {}
    for name, (mu, beta) in GAP_CASES.items():
        tols = _tols(in_W(mu, beta).residual)
        out[f"in_W {name}"] = _bits(in_W(mu, beta, t).ok for t in tols)
        out[f"project_Z {name}"] = _bits(not project_Z(mu, beta, t).is_zero() for t in tols)
        checks = [certify_candidate(mu, beta, t).checks for t in tols if t >= 0]
        out[f"certify in_Z gap-{name}"] = _bits(c["in_Z"] for c in checks)
        out[f"certify m_equals_one gap-{name}"] = _bits(c["m_equals_one"] for c in checks)
    for name, beta in POSITIVITY_CASES.items():
        tols = _tols(min(beta.shifted()))
        mu = SHIFT_PARTNERS[beta.dim]
        mu = mu if beta.is_exact_mode else mu.to_float()
        out[f"certify beta_positive_shift shift-{name}"] = _bits(
            certify_candidate(mu, beta, t).checks["beta_positive_shift"]
            for t in tols if t >= 0)
    for name, (mu, beta, (i, j)) in MOVED_CASES.items():
        tols = _tols(derivations(mu)[0][i][j])
        out[f"certify derivations_in_parabolic moved-{name}"] = _bits(
            certify_candidate(mu, beta, t).checks["derivations_in_parabolic"]
            for t in tols if t >= 0)
    for name, (d, beta) in PARABOLIC_CASES.items():
        tols = _tols(*(x for row in d for x in row if x))
        out[f"parabolic_membership {name}"] = _bits(parabolic_membership(d, beta, t)
                                                    for t in tols)
    for name, (mu, beta) in CERTIFY_CASES.items():
        tols = _tols(*certify_candidate(mu, beta).residuals.values())
        for t in [t for t in tols if t >= 0]:
            checks = certify_candidate(mu, beta, t).checks
            for key in sorted(checks):
                out[f"certify {key} {name}"] = out.get(f"certify {key} {name}", "") + (
                    "1" if checks[key] else "0")
    for name, mu in JACOBI_CASES.items():
        tols = _tols(jacobi_check(mu)[1])
        out[f"jacobi_check {name}"] = _bits(jacobi_check(mu, t)[0] for t in tols)
    for name, s in STANDARD_CASES.items():
        tols = _tols(is_standard(s).max_violation) if not s.bracket.is_exact_mode else EXACT_TOLS
        out[f"is_standard {name}"] = _bits(is_standard(s, t).ok for t in tols)
    for name, (s, beta) in AUDIT_CASES.items():
        aud = standardness_audit(s, beta)
        tols = _tols(aud.term1, aud.term2, aud.term3)
        out[f"audit nonneg_ok {name}"] = _bits(standardness_audit(s, beta, t).nonneg_ok
                                               for t in tols)
    for name, s in EINSTEIN_CASES.items():
        tols = _tols(einstein_check(s).residual) if not s.bracket.is_exact_mode else EXACT_TOLS
        out[f"einstein_check {name}"] = _bits(einstein_check(s, t).ok for t in tols)
        out[f"audit forces_standard {name}"] = _bits(standardness_audit(s, None, t)
                                                     .forces_standard for t in tols)
        out[f"is_standard {name}"] = _bits(is_standard(s, t).ok for t in tols)
    return out


EXPECTED: dict[str, str] = {
    'in_W float-negative': '000101',
    'certify in_Z gap-float-negative': '101',
    'certify m_equals_one gap-float-negative': '111',
    'project_Z float-negative': '000101',
    'in_W float-positive': '111101',
    'certify in_Z gap-float-positive': '101',
    'certify m_equals_one gap-float-positive': '111',
    'project_Z float-positive': '101000',
    'in_W float-zero': '101101',
    'certify in_Z gap-float-zero': '1111',
    'certify m_equals_one gap-float-zero': '1111',
    'project_Z float-zero': '101101',
    'in_W float64': '000101',
    'certify in_Z gap-float64': '101',
    'certify m_equals_one gap-float64': '111',
    'project_Z float64': '000101',
    'in_W exact-mu-float-beta': '000101',
    'certify in_Z gap-exact-mu-float-beta': '101',
    'certify m_equals_one gap-exact-mu-float-beta': '111',
    'project_Z exact-mu-float-beta': '000101',
    'in_W exact-zero': '111',
    'certify in_Z gap-exact-zero': '111',
    'certify m_equals_one gap-exact-zero': '111',
    'project_Z exact-zero': '111',
    'in_W exact-minus-tiny': '000',
    'certify in_Z gap-exact-minus-tiny': '000',
    'certify m_equals_one gap-exact-minus-tiny': '000',
    'project_Z exact-minus-tiny': '000',
    'in_W exact-plus-tiny': '111',
    'certify in_Z gap-exact-plus-tiny': '000',
    'certify m_equals_one gap-exact-plus-tiny': '000',
    'project_Z exact-plus-tiny': '000',
    'certify beta_positive_shift shift-float-two': '010',
    'certify beta_positive_shift shift-float-zero': '0000',
    'certify beta_positive_shift shift-float-small': '010',
    'certify beta_positive_shift shift-float64': '010',
    'certify beta_positive_shift shift-exact-zero': '000',
    'certify beta_positive_shift shift-exact-plus-tiny': '111',
    'certify beta_positive_shift shift-exact-minus-tiny': '000',
    'parabolic_membership float-upper': '101000',
    'parabolic_membership float-upper-negative': '000101',
    'parabolic_membership float-lower': '111000',
    'parabolic_membership float64-array': '101000',
    'parabolic_membership float-exact-beta': '101000',
    'parabolic_membership exact-zero': '111',
    'parabolic_membership exact-plus-tiny': '000',
    'parabolic_membership exact-minus-tiny': '000',
    'certify derivations_in_parabolic moved-float-upper': '101',
    'certify derivations_in_parabolic moved-float-upper-negative': '101',
    'certify derivations_in_parabolic moved-float-lower': '111',
    'certify derivations_in_parabolic moved-float64': '101',
    'certify derivations_in_parabolic moved-float-exact-beta': '101',
    'certify derivations_in_parabolic moved-exact-zero': '111',
    'certify derivations_in_parabolic moved-exact-plus-tiny': '000',
    'certify derivations_in_parabolic moved-exact-minus-tiny': '000',
    'certify adbeta_nonneg float-off-label': '1111111111111111111111111',
    'certify beta_positive_shift float-off-label': '1111111111111110101111111',
    'certify betaort_zero float-off-label': '1111111110001111110000101',
    'certify delta_nonneg float-off-label': '0000000000001011110000000',
    'certify derivations_in_parabolic float-off-label': '1111111111111111111111111',
    'certify in_W float-off-label': '1011011010001111110000000',
    'certify in_Z float-off-label': '1011011010001111110000000',
    'certify m_equals_one float-off-label': '1111111111011111110000111',
    'certify trace_minus_one float-off-label': '1011011010001111110000000',
    'certify adbeta_nonneg float-label': '111111111111111111111111111111',
    'certify beta_positive_shift float-label': '111111111111111111110101111111',
    'certify betaort_zero float-label': '000000000000000000001110000101',
    'certify delta_nonneg float-label': '111111111111111111111111111111',
    'certify derivations_in_parabolic float-label': '111111111111111111111111111111',
    'certify in_W float-label': '111111111111111111111111111111',
    'certify in_Z float-label': '111111111111111111111111111111',
    'certify m_equals_one float-label': '111111111111111111111111111111',
    'certify trace_minus_one float-label': '111111111111111111111111111111',
    'certify adbeta_nonneg float-fil4': '111111111111111111101111',
    'certify beta_positive_shift float-fil4': '111111111111111010111111',
    'certify betaort_zero float-fil4': '111111111000111111000101',
    'certify delta_nonneg float-fil4': '000000000000101111000000',
    'certify derivations_in_parabolic float-fil4': '111111111111111111111111',
    'certify in_W float-fil4': '000101101000111111000000',
    'certify in_Z float-fil4': '000101101000111111000000',
    'certify m_equals_one float-fil4': '111111111101111111000111',
    'certify trace_minus_one float-fil4': '101111111000111111000000',
    'certify adbeta_nonneg float64': '1111111111111111111111111',
    'certify beta_positive_shift float64': '1111111111111110101111111',
    'certify betaort_zero float64': '1111111110001111110000101',
    'certify delta_nonneg float64': '1111111111111111111111111',
    'certify derivations_in_parabolic float64': '1111111111111111111111111',
    'certify in_W float64': '1111111111111111111111111',
    'certify in_Z float64': '1111011010001111110000000',
    'certify m_equals_one float64': '1111111111011111110000111',
    'certify trace_minus_one float64': '1010000000001111110000000',
    'certify adbeta_nonneg exact-mu-float-beta': '11111111111111111111111111',
    'certify beta_positive_shift exact-mu-float-beta': '11111111111111110101111111',
    'certify betaort_zero exact-mu-float-beta': '11111111100000001110000101',
    'certify delta_nonneg exact-mu-float-beta': '11111111111111111111111111',
    'certify derivations_in_parabolic exact-mu-float-beta': '11111111111111111111111111',
    'certify in_W exact-mu-float-beta': '10110110100000001110000000',
    'certify in_Z exact-mu-float-beta': '10110110100000001110000000',
    'certify m_equals_one exact-mu-float-beta': '11111111110100001110000111',
    'certify trace_minus_one exact-mu-float-beta': '10110110100000001110000000',
    'certify adbeta_nonneg float-mu-exact-beta': '1111101111',
    'certify beta_positive_shift float-mu-exact-beta': '1111111111',
    'certify betaort_zero float-mu-exact-beta': '1111000101',
    'certify delta_nonneg float-mu-exact-beta': '1111111111',
    'certify derivations_in_parabolic float-mu-exact-beta': '1111000111',
    'certify in_W float-mu-exact-beta': '1111111111',
    'certify in_Z float-mu-exact-beta': '1111111111',
    'certify m_equals_one float-mu-exact-beta': '1111111111',
    'certify trace_minus_one float-mu-exact-beta': '1111111111',
    'certify adbeta_nonneg exact-label': '111',
    'certify beta_positive_shift exact-label': '111',
    'certify betaort_zero exact-label': '111',
    'certify delta_nonneg exact-label': '111',
    'certify derivations_in_parabolic exact-label': '111',
    'certify in_W exact-label': '111',
    'certify in_Z exact-label': '111',
    'certify m_equals_one exact-label': '111',
    'certify trace_minus_one exact-label': '111',
    'certify adbeta_nonneg exact-plus-tiny': '111',
    'certify beta_positive_shift exact-plus-tiny': '111',
    'certify betaort_zero exact-plus-tiny': '000',
    'certify delta_nonneg exact-plus-tiny': '000',
    'certify derivations_in_parabolic exact-plus-tiny': '111',
    'certify in_W exact-plus-tiny': '000',
    'certify in_Z exact-plus-tiny': '000',
    'certify m_equals_one exact-plus-tiny': '000',
    'certify trace_minus_one exact-plus-tiny': '000',
    'certify adbeta_nonneg exact-minus-tiny': '111',
    'certify beta_positive_shift exact-minus-tiny': '111',
    'certify betaort_zero exact-minus-tiny': '000',
    'certify delta_nonneg exact-minus-tiny': '000',
    'certify derivations_in_parabolic exact-minus-tiny': '111',
    'certify in_W exact-minus-tiny': '000',
    'certify in_Z exact-minus-tiny': '000',
    'certify m_equals_one exact-minus-tiny': '000',
    'certify trace_minus_one exact-minus-tiny': '000',
    'jacobi_check float-lie': '101101',
    'jacobi_check float-off': '101000',
    'jacobi_check float64': '101000',
    'jacobi_check exact-lie': '111',
    'jacobi_check exact-tiny': '000',
    'is_standard float-none': '101101',
    'is_standard float-positive': '101000',
    'is_standard float-negative': '101000',
    'is_standard float64': '101000',
    'is_standard exact-none': '111',
    'is_standard exact-plus-tiny': '000',
    'is_standard exact-minus-tiny': '000',
    'audit nonneg_ok float-negative': '000101000000000000',
    'audit nonneg_ok float-positive': '111000101101101101',
    'audit nonneg_ok float64': '000101000000000000',
    'audit nonneg_ok float-nonstandard': '101101111000101101',
    'audit nonneg_ok exact-mu-float-beta': '000101',
    'audit nonneg_ok exact-zero': '111',
    'audit nonneg_ok exact-minus-tiny': '000',
    'audit nonneg_ok exact-nonstandard': '111',
    'einstein_check float-zero': '101101',
    'audit forces_standard float-zero': '101101',
    'is_standard float-zero': '101101',
    'einstein_check float-small': '101000',
    'audit forces_standard float-small': '101000',
    'is_standard float-small': '101000',
    'einstein_check exact-zero': '111',
    'audit forces_standard exact-zero': '111',
    'is_standard exact-zero': '111',
    'einstein_check exact-tiny': '000',
    'audit forces_standard exact-tiny': '000',
    'is_standard exact-tiny': '000',
    'einstein_check exact-milli': '000',
    'audit forces_standard exact-milli': '000',
    'is_standard exact-milli': '000',
}


def test_comparison_rules_keep_their_boundaries():
    assert verdicts() == EXPECTED


def test_exact_near_einstein_audit_fails_through_the_cli(tmp_path, capsys):
    # an exact [a, a] of 1/10^30 is neither Einstein nor forced standard,
    # whatever the tolerance
    for eps, code in (("0", 0), (f"1/{10**30}", 2), ("1/1000", 2)):
        path = tmp_path / "rh2.json"
        path.write_text(json.dumps({"dim_a": 2, "dim_n": 2, "brackets": [
            {"i": 1, "j": 3, "k": 3, "c": "1"}, {"i": 2, "j": 4, "k": 4, "c": "1"},
            {"i": 1, "j": 2, "k": 3, "c": eps}]}))
        assert main(["einstein", str(path), "--audit", "--format", "json"]) == code
        audit = json.loads(capsys.readouterr().out)["audit"]
        ok = code == 0
        assert (audit["einstein_ok"], audit["forces_standard"], audit["standard_ok"]) == (ok,) * 3


PACKAGE = Path(solvstrat.__file__).parent

# Every branch on the arithmetic mode that may stay in these modules: each
# picks a representation (the sparse exact dict with its cached integer view,
# or dense floats) or coerces input into one.  Comparisons go through
# linalg.is_zero / nonneg / positive and constants are mode-neutral (x / 2,
# 1 / nsq, linalg.format_scalar), so neither needs a branch here.
MODE_BRANCHES = {
    "bracket": {
        # the mode of the input coefficients, for make and the file reader
        "BracketTensor._normalized": 1,
        "BracketTensor.zero": 1,        # the zero of the mode
        "act": 1,                       # sparse exact action or act_array
        "rep": 1,                       # sparse exact action or rep_array
        "jacobi_residual": 1,           # integer view or float coefficients
        "_series": 1,                   # integer elimination or SVD
        "derivations": 1,               # integer null space or SVD
    },
    "flow": {
        "ricci_moment": 1,              # integer Ricci numerator or ric_array
    },
    "solvable": {
        # the kernel's numerators in Fractions, or floats with L = 1
        "MetricSolvableAlgebra.curvature": 1,
        # the kernel's input: integer view and Ricci numerator, or the float
        # coefficients and ric_array
        "_curvature_numerators": 1,
        "_einstein_values": 1,          # integer numerators or float curvature
        "standardness_audit": 1,        # integer sums or the curvature matrices
        # the Ricci form's route; the derivation test, exact or on a float
        # 2-norm that has no exact counterpart
        "rank_one_extension": 2,
    },
    "strata": {
        "DiagonalWeight.make": 1,       # entries coerced to Fraction or float
        # integer label values and certificate, or the inputs' arithmetic;
        # derivation_certificates and certify_candidate both take it
        "_label_route": 1,
        "_label_values": 1,             # eigenvalue type of an exact label
        "stratum_label": 1,             # the weight-hull route of an exact bracket
    },
}


def _reads_mode(test) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "is_exact":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "is_exact_mode":
            return True
        if isinstance(node, ast.Name) and node.id == "exact":
            return True
    return False


def _mode_branches(tree) -> dict[str, int]:
    """Per qualified function name, the if statements and conditional
    expressions whose test reads the arithmetic mode."""
    found: dict[str, int] = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.If, ast.IfExp)) and _reads_mode(node.test):
            name = ".".join(scope)
            found[name] = found.get(name, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_mode_branches_are_the_listed_representation_dispatches():
    for module, allowed in MODE_BRANCHES.items():
        path = PACKAGE / f"{module}.py"
        assert _mode_branches(ast.parse(path.read_text())) == allowed, module
    assert sum(sum(a.values()) for a in MODE_BRANCHES.values()) <= 20


def test_the_mode_is_read_off_scalars_in_three_places():
    # is_exact looks at a scalar in linalg's comparison rules and where a
    # bracket or a label takes its mode from its entries; everything else
    # reads the mode of its bracket or label.  No module tells arrays apart:
    # act and rep take the mode of mu, whatever container g comes in
    callers = set()
    arrays = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "is_exact":
                callers.add("linalg" if module == "linalg.py" else ".".join(scope[:2]))
            if name == "isinstance" and any(isinstance(sub, ast.Attribute)
                                            and sub.attr == "ndarray"
                                            for arg in node.args[1:] for sub in ast.walk(arg)):
                arrays.append(f"{module}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module, tree in _trees():
        visit(tree, module, ())
    assert callers == {"linalg", "BracketTensor._normalized", "DiagonalWeight.make",
                       "DiagonalWeight.is_exact_mode"}
    assert arrays == []


# The options of each command.  An option needs two callers or workloads that
# need different values; a setting with one value in use is a constant of the
# package (bracket.DEFAULT_TOL, flow.FLOW_STEP and FLOW_TOL, strata.DENOM_BOUND,
# solvable.EINSTEIN_TOL), which the stratum and curvature reports echo.
OPTIONS = {
    "validate": {"--format"},
    "stratum": {"--format", "--max-iter", "--trace"},
    "einstein": {"--format", "--audit"},
    "extend": {"--format", "--flow-first", "--constant", "--out"},
    "minnorm": {"--format"},
}


def test_each_command_takes_the_options_of_the_ledger():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: {o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")}
             for name, sub in commands.choices.items()}
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 11


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_the_package_draws_no_random_numbers_and_asserts_nothing():
    # results are deterministic functions of the input, and runtime checks
    # raise, since python -O strips assert statements
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(name, a.name) for a in node.names if "random" in a.name]
            elif isinstance(node, ast.ImportFrom):
                found += [(name, a.name) for a in node.names
                          if "random" in f"{node.module}.{a.name}" or a.name == "default_rng"]
            elif isinstance(node, ast.Attribute) and node.attr in ("random", "default_rng"):
                found.append((name, node.attr))
            elif isinstance(node, ast.Name) and node.id == "default_rng":
                found.append((name, node.id))
            elif isinstance(node, ast.Assert):
                found.append((name, f"assert at line {node.lineno}"))
    assert found == []


def test_diagonal_weight_make_gives_one_mode_per_label():
    # an int next to a float makes a float label, whose certificate is that
    # of the all-float label
    mixed, floats = DiagonalWeight.make([-1, 0.5]), DiagonalWeight.make([-1.0, 0.5])
    assert [type(x) for x in mixed.entries] == [float, float]
    assert [type(x) for x in DiagonalWeight.make([-1, F(1, 2)]).entries] == [F, F]
    mu = BracketTensor.make(2, {(1, 2, 2): 1})
    assert repr(certify_candidate(mu, mixed)) == repr(certify_candidate(mu, floats))


def _private_imports(module):
    return [(name, alias.name) for name, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_from_flow():
    assert _private_imports("flow") == []


def test_no_module_imports_a_private_name_from_minnorm():
    # strata reaches the min-norm layer through PointSet and min_norm_point
    assert _private_imports("minnorm") == []


def _modules_calling(name, reading):
    """The modules with a call to name (a function or method) one of whose
    arguments reads the attribute reading."""
    return [module for module, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and any(isinstance(sub, ast.Attribute) and sub.attr == reading
                    for arg in node.args for sub in ast.walk(arg))]


def test_only_the_bracket_layer_scales_coefficients_to_integers():
    # the integer view N = L mu is built in one place, BracketTensor._integer:
    # only bracket.py passes .coeffs to linalg.numerators
    assert _modules_calling("numerators", "coeffs") == ["bracket.py"]


def test_denominators_are_cleared_only_by_linalg_numerators():
    # one helper writes out the common-denominator idiom: no other module
    # takes the lcm of denominators itself
    assert _modules_calling("lcm", "denominator") == ["linalg.py"]


def test_one_sparse_eliminator_serves_every_exact_span():
    # linalg.echelon is the only sparse elimination loop: its row operations
    # stay private to linalg, and the retired copies are not defined again
    steps = {"_clear", "_primitive"}
    readers = sorted({module for module, tree in _trees() if module != "linalg.py"
                      for node in ast.walk(tree)
                      if (isinstance(node, ast.Attribute) and node.attr in steps)
                      or (isinstance(node, ast.ImportFrom)
                          and any(alias.name in steps for alias in node.names))})
    assert readers == []
    retired = {"_integer_basis", "nullspace", "bareiss_triangularize"}
    defined = [(module, node.name) for module, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in retired]
    assert defined == []


def test_one_svd_rank_rule_serves_every_float_span():
    # bracket._svd_rank holds the package's one SVD and its cutoff: the
    # float series and the float derivations all reduce through it, and the
    # list-based float bracket of the series is not defined again
    calls = [module for module, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "svd"
             and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
    assert calls == ["bracket.py"]
    defined = [(module, node.name) for module, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == "_bracket_unit"]
    assert defined == []


def test_one_curvature_kernel_serves_both_modes():
    # _curvature_numerators computes the curvature of exact and float
    # algebras alike: solvable keeps no private float route beside it
    tree = ast.parse((PACKAGE / "solvable.py").read_text())
    floats = [node.name for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name.startswith("_float_")]
    assert floats == []


def test_each_curvature_matrix_has_one_route():
    # MetricSolvableAlgebra.curvature holds H, B, R, S(ad H) and Ricci: no
    # function hands one of them out again, and the report keeps the
    # algebra's Curvature rather than copies of its matrices
    accessors = {"mean_curvature", "killing_form", "r_operator", "s_ad_h", "ricci_operator"}
    defined = [(module, node.name) for module, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in accessors]
    assert defined == [] and accessors.isdisjoint(dir(solvstrat))
    s = ch2()
    rep = curvature_report(s)
    assert rep.curvature is s.curvature
    copies = [f.name for f in dataclasses.fields(rep)
              if f.name != "curvature" and isinstance(getattr(rep, f.name), list)]
    assert copies == []


def _library_api() -> set[str]:
    """The names the README lists under Library API, methods as C.m."""
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `([\w.]+)\(", section, re.M))


def _unused_methods(classes) -> set[str]:
    """C.m for each public method (a def or a staticmethod, not a property)
    of the classes that nothing in the package reads.  C.m is read as an
    attribute of the name C, or as an attribute m of any other value in a
    module that defines or imports C; reads inside C.m itself do not count."""
    trees = list(_trees())      # one parse, so the node ids in inside stay distinct
    methods, inside = set(), {}
    for _, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in classes:
                for f in node.body:
                    if (isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                            and all(isinstance(d, ast.Name) and d.id == "staticmethod"
                                    for d in f.decorator_list)):
                        methods.add(f"{node.name}.{f.name}")
                        inside |= {id(sub): f"{node.name}.{f.name}" for sub in ast.walk(f)}
    used = set()
    for module, tree in trees:
        if module == "__init__.py":
            continue
        named = classes & ({node.name for node in tree.body if isinstance(node, ast.ClassDef)}
                           | {a.asname or a.name for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom) for a in node.names})
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in classes:
                    reads = {f"{node.value.id}.{node.attr}"}
                else:
                    reads = {f"{c}.{node.attr}" for c in named}
                used |= reads - {inside.get(id(node))}
    return methods - used


def test_every_export_has_a_caller_in_the_package_or_is_library_api():
    # an export is used when another top-level definition of the package
    # reads it: as a name in Load context, or as an attribute of a package
    # module (strata.x).  A field annotation (a Store), an attribute of some
    # other object (cert.eigenvalue_type) or a string such as the check name
    # "in_Z" of certify_candidate is no use.  What nothing uses is listed in
    # the README as library API, or it leaves the package.  So is each public
    # method of an exported class (_unused_methods)
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    used: set[str] = set()
    for module, tree in _trees():
        if module == "__init__.py":
            continue
        for top in tree.body:
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
                     or (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                         and node.value.id in modules)} - {getattr(top, "name", None)}
    exports = {name for name in solvstrat.__all__
               if not inspect.ismodule(getattr(solvstrat, name))}
    classes = {name for name in exports if inspect.isclass(getattr(solvstrat, name))}
    assert sorted((exports - used) | _unused_methods(classes)) == sorted(_library_api())


def _imported_names(module):
    """(source module, name) of each from-import in module."""
    return {(node.module, alias.name)
            for node in ast.walk(ast.parse((PACKAGE / module).read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_strata_alone_turns_a_bracket_into_a_certified_label():
    # strata.stratum_label decides the route, rounds the flow's limit and
    # certifies: the flow module only flows, and the command line takes no label
    # of its own
    assert not any("strata" in pair for pair in _imported_names("flow.py"))
    callers = sorted({module for module, tree in _trees() for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and "certify_candidate" in (getattr(node.func, "id", None),
                                                  getattr(node.func, "attr", None))})
    assert callers == ["strata.py"]
    assert {name for _, name in _imported_names("cli.py")}.isdisjoint(
        {"beta_of", "sort_to_weyl_chamber"})


def test_only_main_times_checks_and_prints_a_report():
    # each cmd_* returns (exit code, report, text lines, files): cli.main
    # alone reads the clock, serializes the report through jsonio.dumps,
    # writes the files and prints, so no command keeps a printer of its own
    # and no file is written for a report that fails to serialize
    callers: dict[str, set[str]] = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("print", "perf_counter", "open"):
                callers.setdefault(name, set()).add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    tree = ast.parse((PACKAGE / "cli.py").read_text())
    visit(tree, "<module>")
    assert callers == {"print": {"main"}, "perf_counter": {"main"}, "open": {"main"}}
    defined = [node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert "_emit" not in defined
    assert {name for name in defined if name.startswith("cmd_")} == {
        "cmd_validate", "cmd_stratum", "cmd_einstein", "cmd_extend", "cmd_minnorm"}


def test_cli_alone_renders_reports():
    # the report format lives in cli: no record of the package renders
    # itself, and format_scalar is called only by cli's writers and text
    # lines and by the bracket file format that extend --out writes
    renders = [f"{module}:{node.name}" for module, tree in _trees()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(isinstance(f, ast.FunctionDef) and f.name == "to_json_dict"
                       for f in node.body)]
    assert renders == []
    callers = set()
    for module, tree in _trees():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "format_scalar" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add(module if module == "cli.py"
                                else f"{module}:{getattr(top, 'name', '<module>')}")
    assert callers == {"cli.py", "jsonio.py:bracket_to_dict"}


def test_every_json_text_is_written_by_jsonio_dumps():
    # jsonio.dumps alone owns the bytes of a report and of an extend --out
    # file: no module of the package calls json.dumps or json.dump, whose
    # output dumps reproduces
    calls = sorted(f"{module}:{node.lineno}" for module, tree in _trees()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("dumps", "dump")
                   and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")
    assert calls == []
    imported = sorted(module for module, tree in _trees() for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module == "json"
                      and any(a.name in ("dumps", "dump") for a in node.names))
    assert imported == []


def test_numpy_is_loaded_in_one_module():
    # _np decides when numpy loads: lazily, on first float use, so exact
    # commands never pay for it.  An import anywhere else would load it
    # for exact work too; every other module takes its np from _np
    importers = sorted({module for module, tree in _trees() for node in ast.walk(tree)
                        if (isinstance(node, ast.Import)
                            and any(a.name.partition(".")[0] == "numpy" for a in node.names))
                        or (isinstance(node, ast.ImportFrom)
                            and (node.module or "").partition(".")[0] == "numpy")
                        or (isinstance(node, ast.Constant) and node.value == "numpy")})
    assert importers == ["_np.py"]
    users = sorted(module for module, tree in _trees()
                   if any(isinstance(node, ast.Name) and node.id == "np"
                          for node in ast.walk(tree)))
    takers = sorted(module for module, tree in _trees() for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "_np"
                    and node.level == 1 and any(a.name == "np" for a in node.names))
    assert users == ["_np.py"] + takers
    assert takers == ["bracket.py", "flow.py", "solvable.py", "strata.py"]
