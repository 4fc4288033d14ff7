"""Where the arithmetic mode is decided, and the boundaries of its comparisons.

Every tolerance-graded verdict of the package is checked at its boundary:
tolerances exactly at the compared residual (either sign) and one ulp to
either side of it, exact zero against residuals of size 1/10^30, and
numpy.float64 inputs.  The expected verdicts are literals, so flipping a
`<=` into `<` (or `>=` into `>`) in a comparison rule changes one of them.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import solvstrat
from solvstrat.bracket import BracketTensor, jacobi_check
from solvstrat.cli import main
from solvstrat.catalog import filiform4, heisenberg3, nonstandard_heisenberg
from solvstrat.linalg import is_exact
from solvstrat.solvable import (MetricSolvableAlgebra, einstein_check, is_standard,
                                standardness_audit)
from solvstrat.strata import (DiagonalWeight, certify_candidate, in_W, in_Y,
                              in_Z, parabolic_membership, positivity_check,
                              project_Z)

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
        out[f"in_Z {name}"] = _bits(in_Z(mu, beta, t).ok for t in tols)
        out[f"in_Y {name}"] = _bits(in_Y(mu, beta, t).ok for t in tols)
        out[f"project_Z {name}"] = _bits(not project_Z(mu, beta, t).is_zero() for t in tols)
    for name, beta in POSITIVITY_CASES.items():
        tols = _tols(min(beta.shifted()))
        out[f"positivity_check {name}"] = _bits(positivity_check(beta, t) for t in tols)
    for name, (d, beta) in PARABOLIC_CASES.items():
        tols = _tols(*(x for row in d for x in row if x))
        out[f"parabolic_membership {name}"] = _bits(parabolic_membership(d, beta, t)
                                                    for t in tols)
    for name, (mu, beta) in CERTIFY_CASES.items():
        tols = _tols(*certify_candidate(mu, beta).residuals.values())
        for t in tols:
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
    'in_Z float-negative': '000101',
    'in_Y float-negative': '000101',
    'project_Z float-negative': '000101',
    'in_W float-positive': '111101',
    'in_Z float-positive': '101000',
    'in_Y float-positive': '101000',
    'project_Z float-positive': '101000',
    'in_W float-zero': '101101',
    'in_Z float-zero': '101101',
    'in_Y float-zero': '101101',
    'project_Z float-zero': '101101',
    'in_W float64': '000101',
    'in_Z float64': '000101',
    'in_Y float64': '000101',
    'project_Z float64': '000101',
    'in_W exact-mu-float-beta': '000101',
    'in_Z exact-mu-float-beta': '000101',
    'in_Y exact-mu-float-beta': '000101',
    'project_Z exact-mu-float-beta': '000101',
    'in_W exact-zero': '111',
    'in_Z exact-zero': '111',
    'in_Y exact-zero': '111',
    'project_Z exact-zero': '111',
    'in_W exact-minus-tiny': '000',
    'in_Z exact-minus-tiny': '000',
    'in_Y exact-minus-tiny': '000',
    'project_Z exact-minus-tiny': '000',
    'in_W exact-plus-tiny': '111',
    'in_Z exact-plus-tiny': '000',
    'in_Y exact-plus-tiny': '000',
    'project_Z exact-plus-tiny': '000',
    'positivity_check float-two': '010111',
    'positivity_check float-zero': '010010',
    'positivity_check float-small': '010111',
    'positivity_check float64': '010111',
    'positivity_check exact-zero': '000',
    'positivity_check exact-plus-tiny': '111',
    'positivity_check exact-minus-tiny': '000',
    'parabolic_membership float-upper': '101000',
    'parabolic_membership float-upper-negative': '000101',
    'parabolic_membership float-lower': '111000',
    'parabolic_membership float64-array': '101000',
    'parabolic_membership float-exact-beta': '101000',
    'parabolic_membership exact-zero': '111',
    'parabolic_membership exact-plus-tiny': '000',
    'parabolic_membership exact-minus-tiny': '000',
    'certify adbeta_nonneg float-off-label': '111111111111111111111111111111111111111111111111',
    'certify beta_positive_shift float-off-label':
        '111111111111111111111111111111111111111111111111',
    'certify betaort_zero float-off-label': '111111111111111111111000111111111111010010101111',
    'certify delta_nonneg float-off-label': '000000000000000000000000000101111000000000000000',
    'certify derivations_in_parabolic float-off-label':
        '111111111111111111111111111111111111111111111111',
    'certify in_W float-off-label': '101000000101101000000000000111111000000000000000',
    'certify in_Z float-off-label': '101000000101101000000000000111111000000000000000',
    'certify m_equals_one float-off-label': '111000000111111000000101000111111000000000111000',
    'certify trace_minus_one float-off-label': '101000000101101000000000000111111000000000000000',
    'certify adbeta_nonneg float-label': '111111111111111111111111111111111111111111111111',
    'certify beta_positive_shift float-label': '111111111111111111111111111111111111111111111111',
    'certify betaort_zero float-label': '010010010010010010010010010010111111010010101111',
    'certify delta_nonneg float-label': '101101101101101101101101101101111000101101111000',
    'certify derivations_in_parabolic float-label':
        '111111111111111111111111111111111111111111111111',
    'certify in_W float-label': '101101101101101101101101101101111000101101111000',
    'certify in_Z float-label': '101101101101101101101101101101111000101101111000',
    'certify m_equals_one float-label': '101101101101101101101101101101111000101101111000',
    'certify trace_minus_one float-label': '101101101101101101101101101101111000101101111000',
    'certify adbeta_nonneg float-fil4': '111111111111111111111111111111111111111101111111',
    'certify beta_positive_shift float-fil4': '111111111111111111111111111111111111111111111111',
    'certify betaort_zero float-fil4': '111111111111111111111000111111111111111000101111',
    'certify delta_nonneg float-fil4': '000000000000000000000000000101111000000000000000',
    'certify derivations_in_parabolic float-fil4':
        '111111111111111111111111111111111111111111111111',
    'certify in_W float-fil4': '000000000101101000000000000111111000000000000000',
    'certify in_Z float-fil4': '000000000101101000000000000111111000000000000000',
    'certify m_equals_one float-fil4': '111000000111111000000101000111111000000000111000',
    'certify trace_minus_one float-fil4': '101000000111111000000000000111111000000000000000',
    'certify adbeta_nonneg float64': '111111111111111111111111111111111111111111111111',
    'certify beta_positive_shift float64': '111111111111111111111111111111111111111111111111',
    'certify betaort_zero float64': '111111111111111111000111111111111111010010101111',
    'certify delta_nonneg float64': '111111111111111111111111111101111000111111111111',
    'certify derivations_in_parabolic float64': '111111111111111111111111111111111111111111111111',
    'certify in_W float64': '000111111101111101111111111000111000111111111111',
    'certify in_Z float64': '000111101000101000000000111000111000000000000000',
    'certify m_equals_one float64': '000111111000111000101000111000111000000000111000',
    'certify trace_minus_one float64': '000101000000000000000000111000111000000000000000',
    'certify adbeta_nonneg exact-mu-float-beta':
        '111000000111111000000111101101111000101101111000',
    'certify beta_positive_shift exact-mu-float-beta':
        '111111111111111111111111111111111111111111111111',
    'certify betaort_zero exact-mu-float-beta': '111000000111111000000000000000111000000000101000',
    'certify delta_nonneg exact-mu-float-beta': '111000000111111000000111101101111000101101111000',
    'certify derivations_in_parabolic exact-mu-float-beta':
        '111111111111111111111111111111111111111111111111',
    'certify in_W exact-mu-float-beta': '101000000101101000000000000000111000000000000000',
    'certify in_Z exact-mu-float-beta': '101000000101101000000000000000111000000000000000',
    'certify m_equals_one exact-mu-float-beta': '111000000111111000000101000000111000000000111000',
    'certify trace_minus_one exact-mu-float-beta':
        '101000000101101000000000000000111000000000000000',
    'certify adbeta_nonneg float-mu-exact-beta': '111111111101111111',
    'certify beta_positive_shift float-mu-exact-beta': '111111111111111111',
    'certify betaort_zero float-mu-exact-beta': '111111111000101111',
    'certify delta_nonneg float-mu-exact-beta': '101101000111111000',
    'certify derivations_in_parabolic float-mu-exact-beta': '111111111000111111',
    'certify in_W float-mu-exact-beta': '111111111111111111',
    'certify in_Z float-mu-exact-beta': '111111111111111111',
    'certify m_equals_one float-mu-exact-beta': '111111111111111111',
    'certify trace_minus_one float-mu-exact-beta': '111111111111111111',
    'certify adbeta_nonneg exact-label': '111111111111',
    'certify beta_positive_shift exact-label': '111111111111',
    'certify betaort_zero exact-label': '111111111111',
    'certify delta_nonneg exact-label': '111111111111',
    'certify derivations_in_parabolic exact-label': '111111111111',
    'certify in_W exact-label': '111111111111',
    'certify in_Z exact-label': '111111111111',
    'certify m_equals_one exact-label': '111111111111',
    'certify trace_minus_one exact-label': '111111111111',
    'certify adbeta_nonneg exact-plus-tiny': '111111111111',
    'certify beta_positive_shift exact-plus-tiny': '111111111111',
    'certify betaort_zero exact-plus-tiny': '000000000000',
    'certify delta_nonneg exact-plus-tiny': '000000000000',
    'certify derivations_in_parabolic exact-plus-tiny': '111111111111',
    'certify in_W exact-plus-tiny': '000000000000',
    'certify in_Z exact-plus-tiny': '000000000000',
    'certify m_equals_one exact-plus-tiny': '000000000000',
    'certify trace_minus_one exact-plus-tiny': '000000000000',
    'certify adbeta_nonneg exact-minus-tiny': '111111111111',
    'certify beta_positive_shift exact-minus-tiny': '111111111111',
    'certify betaort_zero exact-minus-tiny': '000000000000',
    'certify delta_nonneg exact-minus-tiny': '000000000000',
    'certify derivations_in_parabolic exact-minus-tiny': '111111111111',
    'certify in_W exact-minus-tiny': '000000000000',
    'certify in_Z exact-minus-tiny': '000000000000',
    'certify m_equals_one exact-minus-tiny': '000000000000',
    'certify trace_minus_one exact-minus-tiny': '000000000000',
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
        "BracketTensor.make": 1,        # the mode of the input coefficients
        "BracketTensor.zero": 1,        # the zero of the mode
        "act": 1,                       # sparse exact action or act_array
        "rep": 1,                       # sparse exact action or rep_array
        "jacobi_residual": 1,           # integer view or float coefficients
        "_central_series": 1,           # integer elimination or SVD
        "is_solvable": 1,               # integer elimination or SVD
        "derivations": 1,               # integer null space or SVD
    },
    "flow": {
        "ricci_moment": 1,              # integer Ricci numerator or ric_array
    },
    "solvable": {
        "MetricSolvableAlgebra.curvature": 1,   # integer kernel or float routes
        "_einstein_values": 1,          # integer numerators or float curvature
        "standardness_audit": 1,        # integer sums or the curvature matrices
        # the constant c coerced to the mode; the Ricci form's route; the
        # derivation test, exact or on a float 2-norm that has no exact
        # counterpart; the exact square root of tr D
        "rank_one_extension": 4,
    },
    "strata": {
        "DiagonalWeight.make": 1,       # entries coerced to Fraction or float
        "eigenvalue_type": 1,           # defined for exact labels only
        # integer label values and certificate, or the inputs' arithmetic;
        # derivation_certificates and certify_candidate both take it
        "_label_route": 1,
        "_label_values": 1,             # eigenvalue type of an exact label
    },
}


def _reads_mode(test) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("is_exact", "_is_exact_matrix"):
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


def test_no_module_imports_a_private_name_from_flow():
    private = [(name, alias.name) for name, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "flow"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_only_the_bracket_layer_scales_coefficients_to_integers():
    # the integer view N = L mu is built in one place, BracketTensor._integer
    scaling = [name for name, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "lcm"
               and any(isinstance(sub, ast.Attribute) and sub.attr == "coeffs"
                       for arg in node.args for sub in ast.walk(arg))]
    assert scaling == ["bracket.py"]
