"""Command line front end.

    solvstrat validate  FILE        structural / Jacobi / nilpotency report
    solvstrat stratum   FILE        certify beta: exact weight hull, else the flow
    solvstrat einstein  FILE        curvature, Einstein check, optional audit
    solvstrat extend    FILE        rank-one Einstein extension of a nilsoliton
    solvstrat minnorm   FILE        minimum-norm point of a rational point set

Exit codes: 0 all checks passed, 2 ran but some check failed, 3 bad input,
a usage error (an unknown command or option, a missing file or a flag value
argparse refuses, or a negative --max-iter), a report that would hold NaN or
infinity, or a float image of an exact value that overflows.
JSON output (--format json) is deterministic byte for byte for a given
input and flags; wall-clock timings therefore appear only in text output.
Every command hands its report and the files it asks for to main, which
alone times the run, checks the report for NaN and infinity, writes the
files and prints it: a report that fails the check leaves no file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
import warnings
from fractions import Fraction

from . import jsonio
from .bracket import _central_series, jacobi_check, norm_sq
from .flow import FLOW_MAX_ITER, FLOW_STEP, FLOW_TOL, flow_to_critical
from .jsonio import FormatError
from .linalg import format_scalar, g_text, is_zero, numerators, parse_scalar
from .minnorm import MinNormResult, min_norm_point
from .solvable import (EINSTEIN_TOL, AuditReport, CurvatureReport, EinsteinCheck,
                       MetricSolvableAlgebra, curvature_report, rank_one_extension,
                       standardness_audit)
from .strata import DENOM_BOUND, DiagonalWeight, StratumCertificate, stratum_label

PASS, CHECKS_FAILED, INPUT_ERROR = 0, 2, 3

# what a command hands to main: exit code, report, text lines, and the files
# to write as {path: text}
Outcome = tuple[int, dict, list[str], dict[str, str]]


def _flag(ok: bool) -> str:
    return "ok" if ok else "FAILED"


def _label_text(beta: DiagonalWeight) -> str:
    return "(" + ", ".join(format_scalar(x) if not isinstance(x, float) else f"{x:.12g}"
                           for x in beta.entries) + ")"


def _einstein_text(e: EinsteinCheck) -> str:
    return f"einstein: {_flag(e.ok)} (c = {format_scalar(e.c)}, residual {float(e.residual):g})"


# The report writers: exact values by format_scalar, and each residual as
# float(x), the one float image of a value the library keeps in its arithmetic.

def _certificate_json(cert: StratumCertificate) -> dict:
    fs = format_scalar
    return {"beta": [fs(x) for x in cert.beta.entries], "q_value": fs(cert.q_value),
            "eigenvalue_type": list(cert.eigenvalue_type) if cert.eigenvalue_type else None,
            "type_scale": fs(cert.type_scale) if cert.type_scale else None,
            "checks": cert.checks, "all_passed": cert.all_passed,
            "residuals": {k: None if v is None else fs(v) for k, v in cert.residuals.items()}}


def _curvature_json(rep: CurvatureReport) -> dict:
    cur, e, cf = rep.curvature, rep.einstein, rep.einstein.c_formula_residual

    def mat(m):
        return [[format_scalar(x) for x in row] for row in m]

    return {"mean_curvature": [format_scalar(x) for x in cur.mean], "killing": mat(cur.killing),
            "r_operator": mat(cur.r), "ricci": mat(cur.ricci),
            "einstein": {"ok": e.ok, "c": format_scalar(e.c), "residual": float(e.residual),
                         "c_formula_residual": None if cf is None else float(cf), "tol": e.tol},
            "standard": {"ok": rep.standard.ok,
                         "max_violation": float(rep.standard.max_violation)},
            "killing_n_max": float(rep.killing_n_max)}


def _audit_json(a: AuditReport) -> dict:
    fs = format_scalar
    return {"mu_zero_branch": a.mu_zero_branch,
            "beta": [fs(x) for x in a.beta.entries] if a.beta else None,
            "shift_factor": fs(a.shift_factor), "c": fs(a.c), "lhs": fs(a.lhs),
            "terms": [fs(a.term1), fs(a.term2), fs(a.term3)],
            "identity_residual": float(a.identity_residual),
            "tr_e_sq_residual": float(a.tr_e_sq_residual),
            "tr_adh_residual": float(a.tr_adh_residual),
            "in_w_ok": a.in_w_ok, "nonneg_ok": a.nonneg_ok, "einstein_ok": a.einstein.ok,
            "standard_ok": a.standard.ok, "forces_standard": a.forces_standard}


def _min_norm_json(res: MinNormResult) -> dict:
    q, xs = numerators(res.point)  # |x|^2 = |X|^2 / q^2 for the integer X = q x
    return {"point": [format_scalar(x) for x in res.point],
            "weights": [format_scalar(w) for w in res.weights], "support": list(res.support),
            "norm_sq": format_scalar(Fraction(sum(x * x for x in xs), q * q))}


def cmd_validate(args) -> Outcome:
    bf = jsonio.read_bracket_file(args.file)
    mu = bf.bracket
    jac_ok, res = jacobi_check(mu)
    report = {
        "input": {"dim_a": bf.dim_a, "dim_n": bf.dim_n, "nnz": mu.nnz,
                  "scalar_mode": mu.scalar_mode},
        "jacobi": {"ok": jac_ok, "residual": float(res)},
        "norm_sq": format_scalar(norm_sq(mu)),
    }
    lines = [f"dim_a={bf.dim_a} dim_n={bf.dim_n} nnz={mu.nnz} mode={mu.scalar_mode}",
             f"jacobi: {_flag(jac_ok)} (residual {g_text(res)})"]
    if jac_ok:
        series = _central_series(mu)
        nilpotent = series[-1] == 0
        report["lower_central_series"] = series
        report["nilpotent"] = nilpotent
        lines.append(f"lower central series: {series} "
                     f"({'nilpotent' if nilpotent else 'not nilpotent'})")
    return (PASS if jac_ok else CHECKS_FAILED), report, lines, {}


def cmd_stratum(args) -> Outcome:
    bf = jsonio.read_bracket_file(args.file)
    if bf.dim_a != 0:
        raise FormatError(f"{args.file}: stratum analysis expects dim_a = 0, "
                          f"found dim_a = {bf.dim_a}")
    if bf.bracket.is_zero():
        raise FormatError(f"{args.file}: the zero bracket has no stratum")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        label = stratum_label(bf.bracket, args.max_iter, args.trace is not None)
    cert, fr = label.certificate, label.flow
    files = {}
    if args.trace is not None:
        files[args.trace] = "iter,m_norm_sq,tangency\n" + "".join(
            f"{it},{msq:.17g},{res:.17g}\n" for it, msq, res in (fr.trace if fr else ()))
    report = {
        "params": {"step": FLOW_STEP, "tol": FLOW_TOL, "max_iter": args.max_iter,
                   "denom_bound": DENOM_BOUND},
        "warnings": [str(w.message) for w in caught],
        "route": label.route,
        "flow": None if fr is None else {
            "iterations": fr.iterations, "converged": fr.converged, "message": fr.message,
            "residuals": fr.residuals, "spectrum": fr.spectrum},
        "rationalized": label.rationalized,
        "certificate": _certificate_json(cert),
    }
    if fr is None:
        lines = ["route: weight hull of the input basis (no flow ran)"]
    else:
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
    lines.append(f"certificate: {_flag(cert.all_passed)}")
    converged = fr is None or fr.converged
    return (PASS if converged and cert.all_passed else CHECKS_FAILED), report, lines, files


def _algebra_from_file(path) -> MetricSolvableAlgebra:
    bf = jsonio.read_bracket_file(path)
    try:
        return MetricSolvableAlgebra.create(bf.dim_a, bf.dim_n, bf.bracket, gram=bf.gram)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def cmd_einstein(args) -> Outcome:
    alg = _algebra_from_file(args.file)
    rep = curvature_report(alg)
    report = {"input": {"dim_a": alg.dim_a, "dim_n": alg.dim_n},
              "params": {"tol": EINSTEIN_TOL, "audit": args.audit},
              "curvature": _curvature_json(rep)}
    e = rep.einstein
    lines = [f"dim_a={alg.dim_a} dim_n={alg.dim_n}", _einstein_text(e)]
    if e.c_formula_residual is not None:
        lines.append(f"c via mean curvature: residual {float(e.c_formula_residual):g}")
    lines.append(f"standard: {_flag(rep.standard.ok)} "
                 f"(max [a,a] coefficient {float(rep.standard.max_violation):g})")
    ok = e.ok
    if args.audit:
        audit = standardness_audit(alg)
        report["audit"] = _audit_json(audit)
        lines.append(f"audit lhs: {float(audit.lhs):.6g}  terms: "
                     f"{float(audit.term1):.6g} {float(audit.term2):.6g} "
                     f"{float(audit.term3):.6g}")
        lines.append(f"audit identity residual: {float(audit.identity_residual):g}")
        lines.append(f"audit trace identities: {float(audit.tr_e_sq_residual):g} "
                     f"{float(audit.tr_adh_residual):g}")
        lines.append(f"forces standard: {audit.forces_standard}  "
                     f"standard: {audit.standard.ok}")
        ok = ok and audit.nonneg_ok and is_zero(audit.identity_residual, 1e-6)
    return (PASS if ok else CHECKS_FAILED), report, lines, {}


def cmd_extend(args) -> Outcome:
    bf = jsonio.read_bracket_file(args.file)
    if bf.dim_a != 0:
        raise FormatError(f"{args.file}: extension expects a nilpotent bracket "
                          f"with dim_a = 0, found dim_a = {bf.dim_a}")
    lam = bf.bracket
    if args.constant is not None and not lam.is_zero():
        raise ValueError("--constant applies only to the zero bracket: a nonzero "
                         "bracket fixes its Einstein constant as tr(Ric^2) / tr(Ric)")
    if args.flow_first and not lam.is_zero():
        lam = flow_to_critical(lam).aligned
    c = parse_scalar(args.constant) if args.constant is not None else None
    try:
        ext = rank_one_extension(lam, c=c)
    except ValueError as exc:
        return (CHECKS_FAILED, {"ok": False, "error": str(exc)},
                [f"extension failed: {exc}"], {})
    rep = curvature_report(ext)
    out_dict = jsonio.bracket_to_dict(1, lam.dim, ext.bracket)
    files = {args.out: jsonio.dumps(out_dict) + "\n"} if args.out else {}
    report = {"extension": out_dict, "curvature": _curvature_json(rep)}
    lines = [f"extended to dim_a=1 dim_n={lam.dim}", _einstein_text(rep.einstein),
             f"standard: {_flag(rep.standard.ok)}"]
    if args.out:
        lines.append(f"wrote {args.out}")
    return (PASS if rep.einstein.ok else CHECKS_FAILED), report, lines, files


def cmd_minnorm(args) -> Outcome:
    ps = jsonio.read_point_set(args.file)
    res = min_norm_point(ps)
    res.verify(ps)
    result = _min_norm_json(res)
    report = {"input": {"dim": ps.dim, "count": len(ps)}, "result": result}
    lines = [f"{len(ps)} points in dimension {ps.dim}",
             "point: (" + ", ".join(result["point"]) + ")",
             f"norm_sq: {result['norm_sq']}",
             f"support: {list(res.support)}",
             "weights: [" + ", ".join(result["weights"][i] for i in res.support) + "]"]
    return PASS, report, lines, {}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with a usage error read as bad input: exit 3, since
    2 says that a check failed.  Its subparsers inherit the class, and
    build_parser sets `commands` on the top-level parser: each command's
    name and subparser."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(INPUT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="solvstrat", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="input JSON file")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("validate", help="structural and Jacobi checks")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("stratum", help="certify the stratum label")
    common(sp)
    sp.add_argument("--max-iter", type=int, default=FLOW_MAX_ITER)
    sp.add_argument("--trace", default=None, help="write per-iteration CSV here")
    sp.set_defaults(func=cmd_stratum)

    sp = sub.add_parser("einstein", help="curvature and Einstein verdict")
    common(sp)
    sp.add_argument("--audit", action="store_true",
                    help="run the standardness audit decomposition")
    sp.set_defaults(func=cmd_einstein)

    sp = sub.add_parser("extend", help="rank-one Einstein extension")
    common(sp)
    sp.add_argument("--flow-first", action="store_true",
                    help="flow to a critical point before extending")
    sp.add_argument("--constant", default=None,
                    help="Einstein constant for the zero bracket only (e.g. -3 or -3/2)")
    sp.add_argument("--out", default=None, help="write the extension here")
    sp.set_defaults(func=cmd_extend)

    sp = sub.add_parser("minnorm", help="minimum-norm point of a point set")
    common(sp)
    sp.set_defaults(func=cmd_minnorm)

    p.commands = sub.choices
    return p


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), with the same output and exit code
    on every usage error and on --help.  An argv led by a command is parsed
    by that command's subparser alone, as the top-level parser would hand it
    on; what the subparser leaves over goes to the top-level parser's error,
    which names it as parse_args does.  Anything else is the top-level
    parser's."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _check_flags(args) -> None:
    """Refuse a --max-iter that has no meaning, naming the flag."""
    if getattr(args, "max_iter", 0) < 0:
        raise ValueError(f"--max-iter must be at least 0, got {args.max_iter}")


def main(argv=None) -> int:
    """Time the run, check the flags and run the command; then serialize its
    report once through jsonio.dumps, which refuses NaN and infinity (exit 3
    before any file is written or anything prints), write the command's
    files, and print the JSON or the text lines and the elapsed time.  A
    report whose top level holds "error" (a failed extension) prints no
    elapsed line.  A stdout closed by its reader is no input error: the
    run returns its own code and prints nothing more."""
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    started = time.perf_counter()
    try:
        _check_flags(args)
        code, report, lines, files = args.func(args)
        text = jsonio.dumps(report)
        for path, content in files.items():
            with open(path, "w") as fh:
                fh.write(content)
        if args.format == "text":
            if "error" not in report:
                lines.append(f"elapsed: {time.perf_counter() - started:.3f}s")
            text = "\n".join(lines)
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout: the run's outcome stands, and stdout
            # goes to devnull so that the interpreter's exit flush stays quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except OverflowError as exc:
        # the float image of an exact value, such as a residual or a
        # coefficient handed to the float flow, leaves the float range
        print(f"error: a value overflows the float range ({exc}); "
              "scale the coefficients down", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
