"""Command line front end.

    solvstrat validate  FILE        structural / Jacobi / nilpotency report
    solvstrat stratum   FILE        flow to a critical point and certify beta
    solvstrat einstein  FILE        curvature, Einstein check, optional audit
    solvstrat extend    FILE        rank-one Einstein extension of a nilsoliton
    solvstrat minnorm   FILE        minimum-norm point of a rational point set

Exit codes: 0 all checks passed, 2 ran but some check failed, 3 bad input.
JSON output (--format json) is deterministic byte for byte for a given
input and flags; wall-clock timings therefore appear only in text output.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import warnings

from . import jsonio
from .bracket import _central_series, jacobi_check, norm_sq
from .flow import (DENOM_BOUND, FLOW_MAX_ITER, FLOW_STEP, FLOW_TOL,
                   flow_to_critical, stratum_detect)
from .jsonio import FormatError
from .linalg import format_scalar, parse_scalar
from .minnorm import canonical_form, min_norm_point
from .solvable import (EINSTEIN_TOL, MetricSolvableAlgebra, curvature_report,
                       rank_one_extension, standardness_audit)
from .strata import DiagonalWeight, beta_of, sort_to_weyl_chamber

PASS, CHECKS_FAILED, INPUT_ERROR = 0, 2, 3


def _emit(report: dict, lines: list[str], fmt: str, started: float) -> None:
    if fmt == "json":
        print(jsonio.dumps(report))
    else:
        for line in lines:
            print(line)
        print(f"elapsed: {time.perf_counter() - started:.3f}s")


def _flag(ok: bool) -> str:
    return "ok" if ok else "FAILED"


def _label_text(beta: DiagonalWeight) -> str:
    return "(" + ", ".join(format_scalar(x) if not isinstance(x, float) else f"{x:.12g}"
                           for x in beta.entries) + ")"


def cmd_validate(args) -> int:
    started = time.perf_counter()
    bf = jsonio.read_bracket_file(args.file)
    mu = bf.bracket
    jac_ok, res = jacobi_check(mu, args.tol)
    report = {
        "input": {"dim_a": bf.dim_a, "dim_n": bf.dim_n, "nnz": mu.nnz,
                  "scalar_mode": mu.scalar_mode},
        "jacobi": {"ok": jac_ok, "residual": float(res)},
        "norm_sq": format_scalar(norm_sq(mu)),
    }
    lines = [f"dim_a={bf.dim_a} dim_n={bf.dim_n} nnz={mu.nnz} mode={mu.scalar_mode}",
             f"jacobi: {_flag(jac_ok)} (residual {float(res):g})"]
    if jac_ok:
        series = _central_series(mu, tol=args.tol)
        nilpotent = series[-1] == 0
        report["lower_central_series"] = series
        report["nilpotent"] = nilpotent
        lines.append(f"lower central series: {series} "
                     f"({'nilpotent' if nilpotent else 'not nilpotent'})")
    _emit(report, lines, args.format, started)
    return PASS if jac_ok else CHECKS_FAILED


def cmd_stratum(args) -> int:
    started = time.perf_counter()
    bf = jsonio.read_bracket_file(args.file)
    if bf.dim_a != 0:
        raise FormatError(f"{args.file}: stratum analysis expects dim_a = 0, "
                          f"found dim_a = {bf.dim_a}")
    if bf.bracket.is_zero():
        raise FormatError(f"{args.file}: the zero bracket has no stratum")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        det = stratum_detect(
            bf.bracket, step=args.step, tol=args.tol, max_iter=args.max_iter,
            denom_bound=args.denom_bound, record_trace=args.trace is not None)
    cert, fr = det.certificate, det.flow
    if args.trace is not None and fr.trace is not None:
        with open(args.trace, "w") as fh:
            fh.write("iter,m_norm_sq,tangency\n")
            for it, msq, res in fr.trace:
                fh.write(f"{it},{msq:.17g},{res:.17g}\n")
    report = {
        "params": {"step": args.step, "tol": args.tol, "max_iter": args.max_iter,
                   "denom_bound": args.denom_bound},
        "warnings": [str(w.message) for w in caught],
        "flow": {"iterations": fr.iterations, "converged": fr.converged,
                 "message": fr.message,
                 "residuals": {k: float(v) for k, v in sorted(fr.residuals.items())},
                 "spectrum": [float(x) for x in fr.spectrum]},
        "rationalized": det.rationalized,
        "certificate": cert.to_json_dict(),
    }
    lines = [f"flow: {fr.iterations} iterations, "
             f"{'converged' if fr.converged else 'NOT converged'} ({fr.message})"]
    lines += [f"warning: {w.message}" for w in caught]
    lines.append(f"beta: {_label_text(cert.beta)}")
    if cert.eigenvalue_type:
        lines.append(f"eigenvalue type: {cert.eigenvalue_type} "
                     f"(scale {format_scalar(cert.type_scale)})")
    lines.append(f"q_value 1/|beta|^2: {format_scalar(cert.q_value)}")
    for name, ok in sorted(cert.checks.items()):
        resid = cert.residuals.get(name)
        extra = f" (residual {float(resid):g})" if resid is not None else ""
        lines.append(f"  {name}: {_flag(ok)}{extra}")
    ok = fr.converged and cert.all_passed
    lines.append(f"certificate: {_flag(cert.all_passed)}")
    _emit(report, lines, args.format, started)
    return PASS if ok else CHECKS_FAILED


def _algebra_from_file(path) -> MetricSolvableAlgebra:
    bf = jsonio.read_bracket_file(path)
    try:
        return MetricSolvableAlgebra.create(bf.dim_a, bf.dim_n, bf.bracket, gram=bf.gram)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def cmd_einstein(args) -> int:
    started = time.perf_counter()
    alg = _algebra_from_file(args.file)
    rep = curvature_report(alg, args.tol)
    report = {"input": {"dim_a": alg.dim_a, "dim_n": alg.dim_n},
              "params": {"tol": args.tol, "audit": args.audit,
                         "beta_from_flow": args.beta_from_flow},
              "curvature": rep.to_json_dict()}
    e = rep.einstein
    lines = [f"dim_a={alg.dim_a} dim_n={alg.dim_n}",
             f"einstein: {_flag(e.ok)} (c = {format_scalar(e.c)}, "
             f"residual {e.residual:g})"]
    if e.c_formula_residual is not None:
        lines.append(f"c via mean curvature: residual {e.c_formula_residual:g}")
    lines.append(f"standard: {_flag(rep.standard.ok)} "
                 f"(max [a,a] coefficient {rep.standard.max_violation:g})")
    ok = e.ok
    if args.audit:
        beta = None
        mu = alg.mu_n()
        if args.beta_from_flow and not mu.is_zero():
            # the flow certifies a chamber-sorted label of a moved bracket; it
            # serves only as a check of the label of the input basis
            flow_beta = stratum_detect(mu).certificate.beta
            beta = beta_of(mu)
            chamber = sort_to_weyl_chamber(beta)[0]
            if flow_beta.entries != chamber.entries:
                error = (f"the flow's label {_label_text(flow_beta)} is not the sorted "
                         f"label {_label_text(chamber)} of the input")
                report["audit"] = {"error": error}
                lines.append(f"audit: {error}")
                _emit(report, lines, args.format, started)
                return CHECKS_FAILED
        audit = standardness_audit(alg, beta, args.tol)
        report["audit"] = audit.to_json_dict()
        lines.append(f"audit lhs: {float(audit.lhs):.6g}  terms: "
                     f"{float(audit.term1):.6g} {float(audit.term2):.6g} "
                     f"{float(audit.term3):.6g}")
        lines.append(f"audit identity residual: {audit.identity_residual:g}")
        lines.append(f"audit trace identities: {audit.tr_e_sq_residual:g} "
                     f"{audit.tr_adh_residual:g}")
        lines.append(f"forces standard: {audit.forces_standard}  "
                     f"standard: {audit.standard.ok}")
        ok = ok and audit.nonneg_ok and audit.identity_residual <= 1e-6
    _emit(report, lines, args.format, started)
    return PASS if ok else CHECKS_FAILED


def cmd_extend(args) -> int:
    started = time.perf_counter()
    bf = jsonio.read_bracket_file(args.file)
    if bf.dim_a != 0:
        raise FormatError(f"{args.file}: extension expects a nilpotent bracket "
                          f"with dim_a = 0, found dim_a = {bf.dim_a}")
    lam = bf.bracket
    if args.flow_first and not lam.is_zero():
        lam = flow_to_critical(lam).aligned
    c = parse_scalar(args.constant) if args.constant is not None else None
    try:
        ext = rank_one_extension(lam, c=c, tol=args.tol)
    except ValueError as exc:
        if args.format == "json":
            print(jsonio.dumps({"ok": False, "error": str(exc)}))
        else:
            print(f"extension failed: {exc}")
        return CHECKS_FAILED
    rep = curvature_report(ext, tol=args.tol)
    out_dict = jsonio.bracket_to_dict(1, lam.dim, ext.bracket)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(jsonio.dumps(out_dict) + "\n")
    report = {"extension": out_dict, "curvature": rep.to_json_dict()}
    e = rep.einstein
    lines = [f"extended to dim_a=1 dim_n={lam.dim}",
             f"einstein: {_flag(e.ok)} (c = {format_scalar(e.c)}, "
             f"residual {e.residual:g})",
             f"standard: {_flag(rep.standard.ok)}"]
    if args.out:
        lines.append(f"wrote {args.out}")
    _emit(report, lines, args.format, started)
    return PASS if e.ok else CHECKS_FAILED


def cmd_minnorm(args) -> int:
    started = time.perf_counter()
    ps = jsonio.read_point_set(args.file)
    res = canonical_form(ps, min_norm_point(ps))
    res.verify(ps)
    report = {"input": {"dim": ps.dim, "count": len(ps)},
              "result": jsonio.min_norm_to_dict(res)}
    lines = [f"{len(ps)} points in dimension {ps.dim}",
             "point: (" + ", ".join(format_scalar(x) for x in res.point) + ")",
             f"norm_sq: {format_scalar(res.norm_sq())}",
             f"support: {list(res.support)}",
             "weights: [" + ", ".join(format_scalar(res.weights[i])
                                      for i in res.support) + "]"]
    _emit(report, lines, args.format, started)
    return PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="solvstrat", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="input JSON file")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("validate", help="structural and Jacobi checks")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("stratum", help="flow to a critical point and certify")
    common(sp)
    sp.add_argument("--step", type=float, default=FLOW_STEP)
    sp.add_argument("--tol", type=float, default=FLOW_TOL)
    sp.add_argument("--max-iter", type=int, default=FLOW_MAX_ITER)
    sp.add_argument("--denom-bound", type=int, default=DENOM_BOUND)
    sp.add_argument("--trace", default=None, help="write per-iteration CSV here")
    sp.set_defaults(func=cmd_stratum)

    sp = sub.add_parser("einstein", help="curvature and Einstein verdict")
    common(sp)
    sp.add_argument("--tol", type=float, default=EINSTEIN_TOL)
    sp.add_argument("--audit", action="store_true",
                    help="run the standardness audit decomposition")
    sp.add_argument("--beta-from-flow", action="store_true",
                    help="check the label of the weight hull against flow detection")
    sp.set_defaults(func=cmd_einstein)

    sp = sub.add_parser("extend", help="rank-one Einstein extension")
    common(sp)
    sp.add_argument("--tol", type=float, default=EINSTEIN_TOL)
    sp.add_argument("--flow-first", action="store_true",
                    help="flow to a critical point before extending")
    sp.add_argument("--constant", default=None,
                    help="Einstein constant for the abelian case (e.g. -3 or -3/2)")
    sp.add_argument("--out", default=None, help="write the extension here")
    sp.set_defaults(func=cmd_extend)

    sp = sub.add_parser("minnorm", help="minimum-norm point of a point set")
    common(sp)
    sp.set_defaults(func=cmd_minnorm)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
