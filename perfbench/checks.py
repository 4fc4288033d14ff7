"""Per-operation correctness checkers, independent of the package under test.

Each checker returns a verdict:

    OK      the expected, correct result
    FAILED  the program reported that it could not deliver (an exception, a
            nonzero exit code, a failed certificate or convergence flag)
    WRONG   the program reported success with a wrong answer

Both FAILED and WRONG count as failed operations; only WRONG makes a run
incorrect.  The checks share no code with ``solvstrat`` and are exact
(``fractions``), except where the program itself answers in floats.
"""

from __future__ import annotations

import json
from fractions import Fraction

OK, FAILED, WRONG = "ok", "failed", "wrong"


# --- independent Ricci oracle (expectations for random solvable algebras) --

def ricci_verdict(dim_a: int, d: int, coeffs: dict) -> tuple[Fraction, bool]:
    """(Einstein constant tr(Ric)/d, whether Ric = c I) of the metric Lie
    algebra with orthonormal basis e_1..e_d, a = span(e_1..e_dim_a).

        Ric = R - B/2 - S(ad H),  H = sum_r tr(ad e_r) e_r over the a-block
        R_pq = -1/2 sum_ij C_pi^j C_qi^j + 1/4 sum_ij C_ij^p C_ij^q
    """
    c = {}   # full antisymmetric constants, 0-based: c[(i, j, k)] = C_ij^k
    for (i, j, k), v in coeffs.items():
        c[(i - 1, j - 1, k - 1)] = Fraction(v)
        c[(j - 1, i - 1, k - 1)] = -Fraction(v)
    col, head = {}, {}   # col[(i, j)][p] = C_pi^j, head[(i, j)][k] = C_ij^k
    for (x, y, k), v in c.items():
        col.setdefault((y, k), {})[x] = v
        head.setdefault((x, y), {})[k] = v
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    ric = [[Fraction(0)] * d for _ in range(d)]
    for group, f in [(g, -half) for g in col.values()] + [(g, quarter) for g in head.values()]:
        for p, vp in group.items():
            for q, vq in group.items():
                ric[p][q] += f * vp * vq
    # Killing form B_pq = tr(ad e_p ad e_q) = sum_jk C_pk^j C_qj^k
    for (p, k, j), v in c.items():
        for q, w in col.get((j, k), {}).items():
            ric[p][q] -= half * v * w
    h = [sum(c.get((r, t, t), 0) for t in range(d)) for r in range(dim_a)]
    for r in range(dim_a):
        for (x, y, k), v in c.items():
            if x == r:   # (ad e_r)_{k y} = C_ry^k, symmetrized
                ric[k][y] -= half * h[r] * v
                ric[y][k] -= half * h[r] * v
    const = sum(ric[i][i] for i in range(d)) / d
    einstein = all(ric[p][q] == (const if p == q else 0) for p in range(d) for q in range(d))
    return const, einstein


# --- exact-label ---------------------------------------------------------

def check_label(coeffs: list, beta, chamber, sigma, moved_beta, cert_checks: dict,
                structured: bool, label: list | None) -> tuple[str, str]:
    """Label laws of beta = min-norm point of the weights of mu, exactly:
    trace -1, m(mu, beta/|beta|^2) = 1, in W_beta, permutation equivariance;
    structured algebras must also pass the full certificate."""
    b = [Fraction(x) for x in beta]
    if sum(b) != -1:
        return WRONG, f"trace {sum(b)} != -1"
    nsq = sum(x * x for x in b)
    gaps = [b[k - 1] - b[i - 1] - b[j - 1] for i, j, k, _ in coeffs]
    if min(gaps) / nsq != 1:
        return WRONG, f"m(mu, beta/|beta|^2) = {min(gaps) / nsq} != 1"
    if any(g < nsq for g in gaps):
        return WRONG, "beta is not in W_beta"
    if [Fraction(x) for x in chamber] != sorted(b):
        return WRONG, "chamber representative is not sorted beta"
    if any(Fraction(moved_beta[sigma[i] - 1]) != b[i] for i in range(len(b))):
        return WRONG, "beta is not permutation equivariant"
    if label is not None and [Fraction(x) for x in chamber] != [Fraction(x) for x in label]:
        return WRONG, f"label {chamber} != pinned {label}"
    for name in ("trace_minus_one", "in_W", "m_equals_one"):
        if not cert_checks.get(name):
            return WRONG, f"certificate contradicts the label law {name}"
    if structured and not all(cert_checks.values()):
        failing = sorted(k for k, v in cert_checks.items() if not v)
        return FAILED, f"certificate failed: {failing}"
    return OK, ""


# --- CLI workloads -------------------------------------------------------

def check_cli(argv: list, file_obj: dict, expect: dict, code: int, out: str) -> tuple[str, str]:
    """Compare a ``--format json`` CLI result with its pinned expectation."""
    if code != expect["exit"]:
        if code == 0:
            return WRONG, f"exit 0, expected {expect['exit']}"
        return FAILED, f"exit {code}, expected {expect['exit']}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return WRONG, f"output is not JSON: {exc}"
    cmd = argv[0]
    if cmd == "stratum":
        beta = report["certificate"]["beta"]
        if beta != expect["beta"]:
            return WRONG, f"label {beta} != pinned {expect['beta']}"
        return OK, ""
    if cmd == "validate":
        if not report["jacobi"]["ok"] or report["jacobi"]["residual"] != 0:
            return WRONG, "Jacobi identity reported violated"
        if report.get("nilpotent") != expect["nilpotent"]:
            return WRONG, f"nilpotent {report.get('nilpotent')} != {expect['nilpotent']}"
        return OK, ""
    if cmd in ("einstein", "extend"):
        curv = report["curvature"]
        c = curv["einstein"]["c"]
        # exact input stays exact, except where an extension needs sqrt(tr D)
        # of a non-square and the program switches to floats
        want = Fraction(expect["c"])
        if (abs(c - float(want)) > 1e-9 * max(1.0, abs(float(want))) if isinstance(c, float)
                else Fraction(c) != want):
            return WRONG, f"Einstein constant {c} != pinned {expect['c']}"
        if cmd == "extend" and not curv["einstein"]["ok"]:
            return WRONG, "extension reported not Einstein with exit 0"
        if "standard" in expect and curv["standard"]["ok"] != expect["standard"]:
            return WRONG, f"standard {curv['standard']['ok']} != {expect['standard']}"
        return OK, ""
    if cmd == "minnorm":
        return check_min_norm(file_obj["points"], report["result"])
    raise ValueError(f"no checker for {cmd!r}")


def check_min_norm(points: list, result: dict) -> tuple[str, str]:
    """Re-verify a min-norm result exactly: convex weights reproducing the
    point, and the variational inequality <x, p> >= |x|^2 for every p."""
    pts = [[Fraction(x) for x in p] for p in points]
    x = [Fraction(v) for v in result["point"]]
    w = [Fraction(v) for v in result["weights"]]
    if len(w) != len(pts):
        return WRONG, "one weight per point expected"
    if sum(w) != 1 or any(wi < 0 for wi in w):
        return WRONG, "weights are not convex"
    if [sum(wi * p[c] for wi, p in zip(w, pts)) for c in range(len(x))] != x:
        return WRONG, "weights do not reproduce the point"
    nsq = sum(v * v for v in x)
    if Fraction(result["norm_sq"]) != nsq:
        return WRONG, "norm_sq is not |x|^2"
    if any(sum(a * b for a, b in zip(x, p)) < nsq for p in pts):
        return WRONG, "a point violates <x, p> >= |x|^2"
    if list(result["support"]) != [i for i, wi in enumerate(w) if wi != 0]:
        return WRONG, "support does not match the nonzero weights"
    return OK, ""
