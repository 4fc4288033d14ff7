"""End-to-end checks of the command line driver (in-process)."""

import ast
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import solvstrat
from generators import ch2, random_point_set
from oracles import affinely_independent, brute_force_min_norm
from solvstrat import cli, jsonio
from solvstrat.cli import main
from solvstrat.linalg import format_scalar

H3 = {"dim_a": 0, "dim_n": 3,
      "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}
N4 = {"dim_a": 0, "dim_n": 4,
      "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                   {"i": 1, "j": 3, "k": 4, "c": "1"}]}
N4_FLOAT = {**N4, "brackets": [{**b, "c": 1.0} for b in N4["brackets"]]}
CH2 = {"dim_a": 1, "dim_n": 3,
       "brackets": [{"i": 2, "j": 3, "k": 4, "c": "1"},
                    {"i": 1, "j": 2, "k": 2, "c": "1/2"},
                    {"i": 1, "j": 3, "k": 3, "c": "1/2"},
                    {"i": 1, "j": 4, "k": 4, "c": "1"}]}


def put(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_nilpotent(tmp_path, capsys):
    f = put(tmp_path, "h3.json", H3)
    code, out, _ = run(capsys, "validate", f)
    assert code == 0
    assert "jacobi: ok" in out
    assert "lower central series: [3, 1, 0] (nilpotent)" in out


def test_validate_evaluates_jacobi_once(tmp_path, capsys, monkeypatch):
    from solvstrat import bracket

    calls = []
    real = bracket.jacobi_residual

    def spy(mu):
        calls.append(1)
        return real(mu)

    monkeypatch.setattr(bracket, "jacobi_residual", spy)
    code, out, _ = run(capsys, "validate", put(tmp_path, "n4.json", N4), "--format", "json")
    assert code == 0 and json.loads(out)["lower_central_series"] == [4, 2, 1, 0]
    assert len(calls) == 1


def test_cached_parser_carries_no_values_between_calls(tmp_path, capsys):
    from solvstrat import cli
    from solvstrat.flow import FLOW_MAX_ITER

    h3 = put(tmp_path, "h3.json", H3)
    ps = put(tmp_path, "ps.json", {"dim": 2, "points": [["2", "0"], ["0", "2"]]})
    calls = [("stratum", h3, "--max-iter", "5", "--format", "json"),
             ("minnorm", ps, "--format", "json"),
             ("stratum", h3, "--format", "json")]
    cli.build_parser.cache_clear()
    cached = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cached == fresh
    assert json.loads(cached[0][1])["params"]["max_iter"] == 5
    assert json.loads(cached[2][1])["params"]["max_iter"] == FLOW_MAX_ITER


def test_validate_json_format(tmp_path, capsys):
    f = put(tmp_path, "h3.json", H3)
    code, out, _ = run(capsys, "validate", f, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["jacobi"]["ok"] is True
    assert rep["lower_central_series"] == [3, 1, 0]
    assert rep["nilpotent"] is True
    assert rep["norm_sq"] == "2"


def test_validate_is_linear_in_dim_n_on_a_sparse_exact_bracket(tmp_path, capsys):
    # h3 + R^4997: the exact series starts from the one generator mu(e_1, e_2)
    # of [g, g] and brackets only with e_1 and e_2, so it never forms the
    # n^2 brackets [e_i, e_c] of unit vectors
    f = put(tmp_path, "wide.json", {**H3, "dim_n": 5000})
    started = time.perf_counter()
    code, out, err = run(capsys, "validate", f, "--format", "json")
    assert time.perf_counter() - started < 1.0
    assert (code, json.loads(out)["lower_central_series"], err) == (0, [5000, 1, 0], "")
    tracemalloc.start()
    try:
        assert run(capsys, "validate", f, "--format", "json")[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_validate_flags_jacobi_failure(tmp_path, capsys):
    bad = {"dim_a": 0, "dim_n": 3,
           "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                        {"i": 1, "j": 3, "k": 1, "c": "1"}]}
    code, out, _ = run(capsys, "validate", put(tmp_path, "bad.json", bad))
    assert code == 2
    assert "jacobi: FAILED" in out


@pytest.mark.parametrize("obj,needle", [
    ({"dim_n": 3, "brackets": []}, "missing required key 'dim_a'"),
    ({"dim_a": 0, "dim_n": 3,
      "brackets": [{"i": 1, "j": 9, "k": 3, "c": "1"}]}, "outside 1..3"),
    ({"dim_a": 0, "dim_n": 3,
      "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                   {"i": 2, "j": 1, "k": 3, "c": "1"}]}, "duplicate"),
    ({"dim_a": 0, "dim_n": 3,
      "brackets": [{"i": 2, "j": 2, "k": 3, "c": "1"}]}, "antisymmetry"),
    ({"dim_a": 0, "dim_n": 0, "brackets": []}, "must be positive"),
])
def test_validate_input_errors(tmp_path, capsys, obj, needle):
    code, _, err = run(capsys, "validate", put(tmp_path, "x.json", obj))
    assert code == 3
    assert needle in err


def test_validate_rejects_unparsable_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 3
    assert "not valid JSON" in err
    p.write_bytes(b"\xff")   # not UTF-8 text: named as such, not as a long number
    code, _, err = run(capsys, "validate", str(p))
    assert code == 3
    assert err.startswith(f"error: {p}: not valid JSON")


def test_stratum_certifies_filiform(tmp_path, capsys):
    f = put(tmp_path, "n4.json", N4)
    code, out, _ = run(capsys, "stratum", f, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert (rep["route"], rep["flow"], rep["rationalized"]) == ("weight_hull", None, None)
    assert rep["certificate"]["beta"] == ["-1", "-1/2", "0", "1/2"]
    assert rep["certificate"]["eigenvalue_type"] == [1, 2, 3, 4]
    assert rep["certificate"]["q_value"] == "2/3"
    assert rep["warnings"] == []
    # the flow route on the same bracket in floats certifies the same label
    code, out, _ = run(capsys, "stratum", put(tmp_path, "n4f.json", N4_FLOAT), "--format", "json")
    assert code == 0
    rep_float = json.loads(out)
    assert (rep_float["route"], rep_float["rationalized"]) == ("flow", True)
    assert rep_float["flow"]["converged"] is True
    assert rep_float["certificate"]["beta"] == rep["certificate"]["beta"]


def test_stratum_json_is_deterministic(tmp_path, capsys):
    f = put(tmp_path, "n4.json", N4)
    _, out1, _ = run(capsys, "stratum", f, "--format", "json")
    _, out2, _ = run(capsys, "stratum", f, "--format", "json")
    assert out1 == out2


# every removed flag is an unrecognized argument on its command: a usage
# error, which exits 3 like any bad input
REMOVED_OPTIONS = [
    pytest.param("stratum", "--seed", "1", id="--seed"),
    pytest.param("stratum", "--stepper", "1", id="--stepper"),
    pytest.param("validate", "--tol", "nan", id="validate-tol"),
    pytest.param("stratum", "--step", "0", id="stratum-step-zero"),
    pytest.param("stratum", "--step", "nan", id="stratum-step-nan"),
    pytest.param("stratum", "--step", "inf", id="stratum-step-inf"),
    pytest.param("stratum", "--tol", "1e-9", id="stratum-tol"),
    pytest.param("stratum", "--denom-bound", "0", id="stratum-denom-bound"),
    pytest.param("einstein", "--tol", "inf", id="einstein-tol"),
    pytest.param("extend", "--tol", "nan", id="extend-tol"),
]


@pytest.mark.parametrize("command,flag,value", REMOVED_OPTIONS)
def test_stratum_rejects_removed_options(tmp_path, capsys, command, flag, value):
    f = put(tmp_path, "h3.json", H3)
    with pytest.raises(SystemExit) as exc:
        main([command, f, flag, value])
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


# argparse's usage errors exit 3 with its usage and message on stderr;
# --help still exits 0
USAGE_ERRORS = [
    pytest.param(("stratum", "{file}", "--max-iter", "abc"),
                 "argument --max-iter: invalid int value: 'abc'", id="bad-int"),
    pytest.param(("stratum", "{file}", "--format", "xml"),
                 "argument --format: invalid choice: 'xml'", id="bad-choice"),
    pytest.param(("solve", "{file}"), "argument command: invalid choice: 'solve'",
                 id="unknown-command"),
    pytest.param(("stratum",), "the following arguments are required: file",
                 id="missing-file"),
    pytest.param((), "the following arguments are required: command", id="missing-command"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_usage_errors_are_input_errors(tmp_path, capsys, argv, message):
    f = put(tmp_path, "h3.json", H3)
    with pytest.raises(SystemExit) as exc:
        main([a.format(file=f) for a in argv])
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: solvstrat") and f"error: {message}" in err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["stratum", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: solvstrat") and err == ""


# main hands an argv led by a command to that command's subparser alone; on
# every usage error and on --help it prints and exits as the full parser does
PARITY_ARGV = [pytest.param(p.values[0], id=f"usage-{p.id}") for p in USAGE_ERRORS] + [
    pytest.param((command, "{file}", flag, value), id=f"removed-{p.id}")
    for p in REMOVED_OPTIONS for command, flag, value in [p.values]] + [
    pytest.param(("stratum", "--help"), id="stratum-help"),
    pytest.param(("--help",), id="help"),
    pytest.param(("stratum", "--seed", "1", "{file}"), id="unknown-flag-before-the-file"),
    pytest.param(("einstein", "{file}", "--audit", "--audit=1"), id="flag-given-a-value"),
    pytest.param(("extend", "{file}", "{file}", "--out"), id="extra-file-and-missing-value"),
]


@pytest.mark.parametrize("argv", PARITY_ARGV)
def test_main_parses_as_the_full_parser(tmp_path, capsys, argv):
    f = put(tmp_path, "h3.json", H3)
    argv = [a.format(file=f) for a in argv]
    seen = []
    for parse in (main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        seen.append((exc.value.code, *capsys.readouterr()))
    assert seen[0] == seen[1]
    assert seen[0][0] in (0, 3)


def test_stratum_warns_on_non_nilpotent(tmp_path, capsys):
    so3 = {"dim_a": 0, "dim_n": 3,
           "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                        {"i": 2, "j": 3, "k": 1, "c": "1"},
                        {"i": 1, "j": 3, "k": 2, "c": "-1"}]}
    code, out, _ = run(capsys, "stratum", put(tmp_path, "so3.json", so3))
    assert code == 2
    assert "warning:" in out and "not nilpotent" in out
    assert "beta: (-1/3, -1/3, -1/3)" in out


def test_stratum_rejects_nonzero_dim_a(tmp_path, capsys):
    code, _, err = run(capsys, "stratum", put(tmp_path, "ch2.json", CH2))
    assert code == 3
    assert "dim_a = 0" in err


def test_stratum_rejects_zero_bracket(tmp_path, capsys):
    zero = {"dim_a": 0, "dim_n": 3, "brackets": []}
    code, _, err = run(capsys, "stratum", put(tmp_path, "zero.json", zero))
    assert code == 3
    assert "no stratum" in err


def test_stratum_rejects_a_negative_max_iter(tmp_path, capsys):
    # no iteration count is negative: an input error naming the flag, also
    # on an exact input whose label needs no flow
    f = put(tmp_path, "n4.json", N4)
    code, out, err = run(capsys, "stratum", f, "--max-iter", "-1")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "--max-iter" in err
    # max_iter 0 still examines the starting point of the flow
    code, out, _ = run(capsys, "stratum", put(tmp_path, "n4f.json", N4_FLOAT),
                       "--max-iter", "0", "--format", "json")
    assert code == 0 and json.loads(out)["flow"]["iterations"] == 0


def test_stratum_trace_csv(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "stratum", put(tmp_path, "n4f.json", N4_FLOAT),
                       "--trace", str(trace), "--format", "json")
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,m_norm_sq,tangency"
    rep = json.loads(out)
    assert len(lines) == rep["flow"]["iterations"] + 2  # header + iterates
    # no flow runs on the weight-hull route: the file holds the header only
    code, out, _ = run(capsys, "stratum", put(tmp_path, "n4.json", N4),
                       "--trace", str(trace), "--format", "json")
    assert code == 0 and json.loads(out)["route"] == "weight_hull"
    assert trace.read_text() == "iter,m_norm_sq,tangency\n"


def test_a_trace_is_written_only_for_a_report_that_serializes(tmp_path, capsys, monkeypatch):
    def refuse(report):
        raise ValueError("the report holds NaN")

    monkeypatch.setattr(jsonio, "dumps", refuse)
    trace = tmp_path / "trace.csv"
    code, out, err = run(capsys, "stratum", put(tmp_path, "n4.json", N4),
                         "--trace", str(trace))
    assert (code, out, err) == (3, "", "error: the report holds NaN\n")
    assert not trace.exists()


def test_einstein_on_complex_hyperbolic(tmp_path, capsys):
    f = put(tmp_path, "ch2.json", CH2)
    code, out, _ = run(capsys, "einstein", f, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["curvature"]["einstein"]["ok"] is True
    assert rep["curvature"]["einstein"]["c"] == "-3/2"
    assert rep["curvature"]["standard"]["ok"] is True


def test_einstein_audit_block(tmp_path, capsys):
    f = put(tmp_path, "ch2.json", CH2)
    code, out, _ = run(capsys, "einstein", f, "--audit", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    aud = rep["audit"]
    assert aud["beta"] == ["-1", "-1", "1"]
    assert aud["terms"] == ["0", "0", "0"]
    assert aud["forces_standard"] is True


def test_einstein_audit_keeps_the_input_basis(tmp_path, capsys):
    # h3 as [e2, e3] = e1: its label (1, -1, -1) is not chamber-sorted; the
    # audit uses the label of the input basis, on which the extension is
    # Einstein and standard
    f = put(tmp_path, "h3.json", {"dim_a": 0, "dim_n": 3,
                                  "brackets": [{"i": 2, "j": 3, "k": 1, "c": 1}]})
    ext = str(tmp_path / "ext.json")
    assert run(capsys, "extend", f, "--out", ext)[0] == 0
    code, out, _ = run(capsys, "einstein", ext, "--audit", "--format", "json")
    assert code == 0
    plain = json.loads(out)["audit"]
    assert plain["beta"] == ["1", "-1", "-1"] and plain["lhs"] == "0"
    # the flag that compared it with the flow's label is gone
    with pytest.raises(SystemExit) as exc:
        main(["einstein", ext, "--audit", "--beta-from-flow"])
    assert exc.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err


def test_einstein_audit_on_a_flat_algebra_with_no_nilpotent_part(tmp_path, capsys):
    # dim_n = 0: the flat R^2, with an empty shift
    f = put(tmp_path, "flat.json", {"dim_a": 2, "dim_n": 0, "brackets": []})
    code, out, _ = run(capsys, "einstein", f, "--audit", "--format", "json")
    assert code == 0
    aud = json.loads(out)["audit"]
    assert aud["standard_ok"] is True
    assert aud["forces_standard"] is True


def test_einstein_audit_computes_the_curvature_once(tmp_path, capsys, monkeypatch):
    from solvstrat import solvable

    calls = []
    real = solvable._curvature_numerators

    def spy(s):
        calls.append(1)
        return real(s)

    monkeypatch.setattr(solvable, "_curvature_numerators", spy)
    code, out, _ = run(capsys, "einstein", put(tmp_path, "ch2.json", CH2), "--audit",
                       "--format", "json")
    assert code == 0 and json.loads(out)["audit"]["forces_standard"] is True
    assert len(calls) == 1


def test_einstein_fails_on_nonstandard_complement(tmp_path, capsys):
    ns = {"dim_a": 2, "dim_n": 1,
          "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}
    code, out, _ = run(capsys, "einstein", put(tmp_path, "ns.json", ns))
    assert code == 2
    assert "einstein: FAILED" in out
    assert "standard: FAILED" in out


def test_einstein_accepts_gram_matrix(tmp_path, capsys):
    rh = {"dim_a": 1, "dim_n": 2,
          "brackets": [{"i": 1, "j": 2, "k": 2, "c": "1"},
                       {"i": 1, "j": 3, "k": 3, "c": "1"}],
          "gram": [["4", "0", "0"], ["0", "4", "0"], ["0", "0", "4"]]}
    code, out, _ = run(capsys, "einstein", put(tmp_path, "rh.json", rh),
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["curvature"]["einstein"]["ok"] is True
    assert abs(float(rep["curvature"]["einstein"]["c"]) + 0.5) < 1e-9


def test_einstein_rejects_invalid_algebra(tmp_path, capsys):
    ns = {"dim_a": 0, "dim_n": 3,
          "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                       {"i": 1, "j": 3, "k": 1, "c": "1"}]}
    code, _, err = run(capsys, "einstein", put(tmp_path, "bad.json", ns))
    assert code == 3
    assert "Jacobi" in err


def test_extend_heisenberg_roundtrip(tmp_path, capsys):
    f = put(tmp_path, "h3.json", H3)
    out_file = tmp_path / "ext.json"
    code, out, _ = run(capsys, "extend", f, "--out", str(out_file),
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["extension"]["dim_a"] == 1
    assert rep["extension"]["brackets"] == [
        {"i": 1, "j": 2, "k": 2, "c": "1/2"},
        {"i": 1, "j": 3, "k": 3, "c": "1/2"},
        {"i": 1, "j": 4, "k": 4, "c": "1"},
        {"i": 2, "j": 3, "k": 4, "c": "1"}]
    assert rep["curvature"]["einstein"]["c"] == "-3/2"
    assert out_file.read_text() == jsonio.dumps(rep["extension"]) + "\n"
    code2, out2, _ = run(capsys, "einstein", str(out_file), "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["curvature"]["einstein"]["ok"] is True


def test_extend_abelian_with_constant(tmp_path, capsys):
    ab = {"dim_a": 0, "dim_n": 3, "brackets": []}
    code, out, _ = run(capsys, "extend", put(tmp_path, "ab.json", ab),
                       "--constant", "-3", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["extension"]["brackets"] == [
        {"i": 1, "j": 2, "k": 2, "c": "1"},
        {"i": 1, "j": 3, "k": 3, "c": "1"},
        {"i": 1, "j": 4, "k": 4, "c": "1"}]
    assert rep["curvature"]["einstein"]["c"] == "-3"


def test_extend_fails_off_the_soliton_orbit(tmp_path, capsys):
    stretched = {"dim_a": 0, "dim_n": 4,
                 "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                              {"i": 1, "j": 3, "k": 4, "c": "2"}]}
    code, out, _ = run(capsys, "extend", put(tmp_path, "s.json", stretched),
                       "--format", "json")
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False and "nilsoliton" in rep["error"]


def test_extend_flow_first_repairs_scaling(tmp_path, capsys):
    stretched = {"dim_a": 0, "dim_n": 4,
                 "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                              {"i": 1, "j": 3, "k": 4, "c": "2"}]}
    code, out, _ = run(capsys, "extend", put(tmp_path, "s.json", stretched),
                       "--flow-first", "--format", "json")
    assert code == 0
    assert json.loads(out)["curvature"]["einstein"]["ok"] is True


def test_extend_flow_first_builds_no_certificate(tmp_path, capsys, monkeypatch):
    # --flow-first uses only the aligned flow limit, so no label is certified
    from solvstrat import strata

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = strata.certify_candidate
    monkeypatch.setattr(strata, "certify_candidate", spy)
    code, out, _ = run(capsys, "extend", put(tmp_path, "n4.json", N4),
                       "--flow-first", "--format", "json")
    assert code == 0
    assert json.loads(out)["curvature"]["einstein"]["ok"] is True
    assert calls == []


def test_extend_rejects_nonzero_dim_a(tmp_path, capsys):
    code, _, err = run(capsys, "extend", put(tmp_path, "ch2.json", CH2))
    assert code == 3
    assert "dim_a = 0" in err


def test_minnorm_golden(tmp_path, capsys):
    ps = {"dim": 2, "points": [["2", "0"], ["0", "2"]]}
    code, out, _ = run(capsys, "minnorm", put(tmp_path, "ps.json", ps),
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["point"] == ["1", "1"]
    assert rep["result"]["norm_sq"] == "2"


def test_minnorm_above_twelve_points(tmp_path, capsys):
    ps = {"dim": 2, "points": [[str(i), "1"] for i in range(1, 14)]}
    code, out, _ = run(capsys, "minnorm", put(tmp_path, "ps.json", ps),
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["point"] == ["1", "1"]


def test_minnorm_json_matches_the_enumeration_oracle(tmp_path, capsys):
    # the command runs no oracle itself; its point and norm must equal the
    # face-enumeration oracle's on small random point sets, on an affinely
    # independent support
    rng = np.random.default_rng(11)
    for n in range(40):
        ps = random_point_set(rng, int(rng.integers(1, 6)), int(rng.integers(1, 13)))
        obj = {"dim": ps.dim, "points": [[str(x) for x in p] for p in ps.points]}
        code, out, _ = run(capsys, "minnorm", put(tmp_path, f"ps{n}.json", obj),
                           "--format", "json")
        assert code == 0
        expected = cli._min_norm_json(brute_force_min_norm(ps))
        result = json.loads(out)["result"]
        assert (result["point"], result["norm_sq"]) == (expected["point"], expected["norm_sq"])
        assert affinely_independent([ps.points[i] for i in result["support"]])


def test_package_has_no_assert_statements():
    # python -O strips assert, so runtime checks must raise instead
    found = []
    for path in sorted(Path(solvstrat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_imports_no_private_name_from_solvable():
    # the CLI goes through the public curvature functions, which the
    # per-layer tracer times
    path = Path(solvstrat.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "solvable"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_minnorm_rejects_bad_file(tmp_path, capsys):
    code, _, err = run(capsys, "minnorm",
                       put(tmp_path, "ps.json", {"dim": 2, "points": []}))
    assert code == 3
    assert "nonempty" in err


def test_minnorm_rejects_a_float_coordinate(tmp_path, capsys):
    # a float is not an exact rational: one error line, no traceback
    code, out, err = run(capsys, "minnorm",
                         put(tmp_path, "ps.json", {"dim": 2, "points": [[0.5, 1], [1, 0]]}))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "points[0]" in err
    assert "entries must be integers or 'p/q' strings" in err


@pytest.mark.parametrize("labels", ["ab", ["a", 2], {"a": 1}])
def test_minnorm_rejects_labels_that_are_not_a_list_of_strings(tmp_path, capsys, labels):
    obj = {"dim": 1, "points": [[1], [2]], "labels": labels}
    code, _, err = run(capsys, "minnorm", put(tmp_path, "ps.json", obj))
    assert code == 3
    assert "labels: expected a list of strings" in err


def test_minnorm_rejects_labels_of_the_wrong_length(tmp_path, capsys):
    # labels are a file-format concern: checked on reading, then dropped
    obj = {"dim": 2, "points": [[1, 0]], "labels": ["a", "b"]}
    code, out, err = run(capsys, "minnorm", put(tmp_path, "ps.json", obj))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "labels: expected 1 labels, one per point, got 2" in err
    plain = run(capsys, "minnorm", put(tmp_path, "plain.json", {"dim": 2, "points": [[1, 0]]}),
                "--format", "json")
    obj["labels"] = ["a"]
    assert run(capsys, "minnorm", put(tmp_path, "ps.json", obj), "--format", "json") == plain
    assert plain[0] == 0


# literals Python's json reads as non-finite floats
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e309"]
BRACKET_COMMANDS = {"validate": ("validate",), "stratum": ("stratum",),
                    "einstein": ("einstein",), "audit": ("einstein", "--audit"),
                    "extend": ("extend",)}


def _raw_bracket(tmp_path, c, gram="null"):
    p = tmp_path / "raw.json"
    p.write_text('{"dim_a": 0, "dim_n": 3, "brackets": '
                 f'[{{"i": 1, "j": 2, "k": 3, "c": {c}}}], "gram": {gram}}}')
    return str(p)


@pytest.mark.parametrize("literal", NON_FINITE)
@pytest.mark.parametrize("command", BRACKET_COMMANDS.values(), ids=BRACKET_COMMANDS)
def test_non_finite_coefficients_are_input_errors(tmp_path, capsys, command, literal):
    code, out, err = run(capsys, command[0], _raw_bracket(tmp_path, literal), *command[1:])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "brackets[0].c: expected a finite number" in err


@pytest.mark.parametrize("literal", NON_FINITE)
def test_non_finite_gram_entries_name_the_field(tmp_path, capsys, literal):
    gram = f'[[1, 0, 0], [0, {literal}, 0], [0, 0, 1]]'
    code, out, err = run(capsys, "einstein", _raw_bracket(tmp_path, 1, gram))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "gram[1]: expected a finite number" in err


@pytest.mark.parametrize("literal", ["1e160", "1e200"])
@pytest.mark.parametrize("command", BRACKET_COMMANDS.values(), ids=BRACKET_COMMANDS)
def test_an_overflowing_float_norm_is_an_input_error(tmp_path, capsys, command, literal):
    # c is finite but |mu|^2 = 2 c^2 is not: every quantity scaled by it
    # would print as NaN or Infinity, so the file is refused as it is read
    f = _raw_bracket(tmp_path, literal)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, command[0], f, *command[1:], "--format", fmt)
        assert (code, out) == (3, "")
        assert err == (f"error: {f}.brackets: |mu|^2 = 2 sum c^2 overflows the float "
                       "range; scale the coefficients down\n")
        assert "NaN" not in out + err and "Infinity" not in out + err


def test_an_underflowing_float_norm_is_reported(tmp_path, capsys):
    # |mu|^2 = 2e-600 underflows to 0.0, so neither the flow's normalisation
    # nor c = tr(Ric^2) / tr(Ric) can be formed: an error line, no traceback
    f = put(tmp_path, "tiny.json", {"dim_a": 0, "dim_n": 3,
                                    "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1e-300}]})
    code, out, err = run(capsys, "extend", f)
    assert (code, err) == (2, "")
    assert out == "extension failed: tr Ric underflows to 0 in floating point\n"
    for argv in (("stratum", f), ("extend", f, "--flow-first")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: the bracket's norm underflows to 0 in floating point\n"


@pytest.mark.parametrize("flow_first", [(), ("--flow-first",)], ids=["plain", "flow-first"])
def test_extend_takes_a_constant_for_the_zero_bracket_only(tmp_path, capsys, flow_first):
    # a nonzero bracket fixes c = tr(Ric^2) / tr(Ric), so --constant would
    # have no effect there: it is refused, naming the flag
    code, out, err = run(capsys, "extend", put(tmp_path, "h3.json", H3), "--constant=-7",
                         *flow_first)
    assert (code, out) == (3, "")
    assert err == ("error: --constant applies only to the zero bracket: a nonzero bracket "
                   "fixes its Einstein constant as tr(Ric^2) / tr(Ric)\n")
    ab = put(tmp_path, "ab.json", {"dim_a": 0, "dim_n": 3, "brackets": []})
    code, out, err = run(capsys, "extend", ab, "--constant=-1/3", *flow_first,
                         "--format", "json")
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["extension"]["brackets"] == [{"i": 1, "j": k, "k": k, "c": "1/3"}
                                            for k in (2, 3, 4)]
    assert rep["curvature"]["einstein"]["c"] == "-1/3"


# [e1,e3] = e7, [e1,e4] = e6, [e2,e3] = e5, [e4,e6] = -e7 satisfies Jacobi,
# but Ric - cI is no derivation.  The verdict is exact, and the residual's
# text forms no float that overflows, so the copy scaled by 1e200 fails the
# same way
@pytest.mark.parametrize("scale,residual", [("1", "1.22474"), ("1e200", "1.22474e+600")])
def test_an_exact_non_nilsoliton_fails_to_extend_at_any_scale(tmp_path, capsys, scale,
                                                              residual):
    f = put(tmp_path, "lam.json", {"dim_a": 0, "dim_n": 7, "brackets": [
        {"i": i, "j": j, "k": k, "c": sign + scale}
        for i, j, k, sign in ((1, 3, 7, ""), (1, 4, 6, ""), (2, 3, 5, ""), (4, 6, 7, "-"))]})
    message = f"not a nilsoliton: Ric - cI fails to be a derivation (residual {residual})"
    code, out, err = run(capsys, "extend", f)
    assert (code, out, err) == (2, f"extension failed: {message}\n", "")
    code, out, err = run(capsys, "extend", f, "--format", "json")
    assert (code, json.loads(out), err) == (2, {"ok": False, "error": message}, "")


# [e1,e2] = e2, [e1,e3] = e3, [e2,e3] = e1 fails the Jacobi identity: the
# extension names that defect first, in the words of einstein on the same file
@pytest.mark.parametrize("c", ["1", 1.0], ids=["exact", "float"])
def test_extend_names_a_failed_jacobi_identity(tmp_path, capsys, c):
    f = put(tmp_path, "lam.json", {"dim_a": 0, "dim_n": 3, "brackets": [
        {"i": 1, "j": 2, "k": 2, "c": c}, {"i": 1, "j": 3, "k": 3, "c": c},
        {"i": 2, "j": 3, "k": 1, "c": c}]})
    message = "Jacobi identity fails (residual 2)"
    code, out, err = run(capsys, "extend", f)
    assert (code, out, err) == (2, f"extension failed: {message}\n", "")
    code, out, err = run(capsys, "extend", f, "--format", "json")
    assert (code, json.loads(out), err) == (2, {"ok": False, "error": message}, "")
    code, out, err = run(capsys, "einstein", f)
    assert (code, out, err) == (3, "", f"error: {f}: {message}\n")


def test_an_overflowing_extension_constant_is_reported(tmp_path, capsys):
    # |mu|^2 = 2e300 is finite, but tr(Ric^2) is not: c = tr(Ric^2) / tr(Ric)
    # is refused before any float kernel meets an infinity (warnings would
    # raise here)
    f = _raw_bracket(tmp_path, "1e150")
    message = ("c = tr(Ric^2) / tr(Ric) = -inf overflows the float range; "
               "scale the coefficients down")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "extend", f)
        assert (code, out, err) == (2, f"extension failed: {message}\n", "")
        code, out, err = run(capsys, "extend", f, "--format", "json")
        assert (code, json.loads(out), err) == (2, {"ok": False, "error": message}, "")
        code, out, err = run(capsys, "extend", _raw_bracket(tmp_path, "1"), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["extension"] == jsonio.bracket_to_dict(1, 3, ch2().bracket)


def test_json_output_refuses_values_outside_the_float_range(tmp_path, capsys):
    # ch2 scaled by 1e150 parses, but tr S(ad H)^2 overflows: the JSON
    # report would hold Infinity, so the run is an input error
    big = dict(CH2, brackets=[dict(b, c=float(Fraction(b["c"])) * 1e150)
                              for b in CH2["brackets"]])
    code, out, err = run(capsys, "einstein", put(tmp_path, "big.json", big), "--audit",
                         "--format", "json")
    assert (code, out) == (3, "")
    assert err == ("error: a reported value left the float range (NaN or infinity); "
                   "scale the input down\n")
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="left the float range"):
            jsonio.dumps({"value": [x]})
    assert jsonio.dumps({"value": 1e308}) == '{\n  "value": 1e+308\n}'


def test_text_output_refuses_values_outside_the_float_range(tmp_path, capsys):
    # the text twin of the JSON case: the report would hold inf, so text
    # output is refused with the same message rather than printing "inf"
    big = dict(CH2, brackets=[dict(b, c=float(Fraction(b["c"])) * 1e150)
                              for b in CH2["brackets"]])
    code, out, err = run(capsys, "einstein", put(tmp_path, "big.json", big), "--audit")
    assert (code, out) == (3, "")
    assert err == ("error: a reported value left the float range (NaN or infinity); "
                   "scale the input down\n")
    code, out, err = run(capsys, "einstein", put(tmp_path, "ch2.json", CH2), "--audit")
    assert (code, err) == (0, "") and "c via mean curvature: residual 0" in out


def test_an_exact_extension_below_the_float_range_stays_exact(tmp_path, capsys):
    # h3 times 1/10^200 has tr D = 4/10^400, whose float is 0 but whose
    # root 2/10^200 is exact: the extension is ch2 times 1/10^200
    t = Fraction(1, 10 ** 200)
    f = put(tmp_path, "h3.json", {"dim_a": 0, "dim_n": 3, "brackets": [
        {"i": 1, "j": 2, "k": 3, "c": f"1/{10 ** 200}"}]})
    code, out, err = run(capsys, "extend", f, "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    want = jsonio.bracket_to_dict(1, 3, ch2().bracket)
    want["brackets"] = [dict(b, c=format_scalar(Fraction(b["c"]) * t))
                        for b in want["brackets"]]
    assert report["extension"] == want
    assert report["curvature"]["einstein"]["ok"]


@pytest.mark.parametrize("brackets,constant", [
    # fil4 times 1/10^200: tr D = 5/10^400 is not a square, its float is 0
    ([{"i": 1, "j": 2, "k": 3, "c": f"1/{10 ** 200}"},
      {"i": 1, "j": 3, "k": 4, "c": f"1/{10 ** 200}"}], None),
    # abelian with c = -1/10^310: tr D = 3/10^310 is not a square, its float
    # is subnormal
    ([], f"-1/{10 ** 310}"),
], ids=["fil4-zero", "abelian-subnormal"])
def test_an_irrational_root_below_the_float_range_is_reported(tmp_path, capsys, brackets,
                                                               constant):
    n = 4 if brackets else 3
    f = put(tmp_path, "tiny.json", {"dim_a": 0, "dim_n": n, "brackets": brackets})
    extra = (f"--constant={constant}",) if constant else ()
    message = ("tr D has no rational square root and underflows the normal float range; "
               "scale the coefficients up")
    code, out, err = run(capsys, "extend", f, *extra)
    assert (code, out, err) == (2, f"extension failed: {message}\n", "")
    code, out, err = run(capsys, "extend", f, *extra, "--format", "json")
    assert (code, json.loads(out), err) == (2, {"ok": False, "error": message}, "")


# exact h3 with c = 10^e: the exit code of each command, and for exit 3 the
# float image that overflows.  The Einstein residual of h3 grows as c^2.
# The stratum certificate of the weight-hull route and an extension stay
# exact.
LARGE_EXACT = {
    "1e150": {"validate": 0, "stratum": 0, "einstein": 2, "extend": 0},
    "1e200": {"validate": 0, "stratum": 0,
              "einstein": "a value overflows the float range", "extend": 0},
    "1e400": {"validate": 0, "stratum": 0,
              "einstein": "a value overflows the float range", "extend": 0},
}


@pytest.mark.parametrize("literal", LARGE_EXACT)
def test_large_exact_coefficients_never_end_in_a_traceback(tmp_path, capsys, literal):
    f = put(tmp_path, "h3.json", {**H3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": literal}]})
    for command, want in LARGE_EXACT[literal].items():
        for fmt in ("text", "json"):
            code, out, err = run(capsys, command, f, "--format", fmt)
            if isinstance(want, int):
                assert (code, err) == (want, ""), (command, err)
            else:
                assert (code, out) == (3, "")
                assert err.startswith(f"error: {want}") and err.count("\n") == 1
                assert err.endswith("; scale the coefficients down\n")
    # the extension is ch2 times c, exactly
    code, out, _ = run(capsys, "extend", f, "--format", "json")
    report = json.loads(out)
    want = jsonio.bracket_to_dict(1, 3, ch2().bracket)
    want["brackets"] = [dict(b, c=format_scalar(Fraction(b["c"]) * Fraction(literal)))
                        for b in want["brackets"]]
    assert report["extension"] == want and report["curvature"]["einstein"]["ok"]


# [e1,e2] = c e2, [e1,e3] = c e3, [e2,e3] = c e1 fails Jacobi with the exact
# residual 2 c^2, which every text names with no float image.  validate's
# JSON field is still float(res), so at c = 1e200 validate exits 3 on it
@pytest.mark.parametrize("c,residual", [("1", "2"), ("1e-200", "2e-400"), ("1e200", "2e+400")])
def test_an_exact_jacobi_residual_is_named_at_any_scale(tmp_path, capsys, c, residual):
    f = put(tmp_path, "nonlie.json", {"dim_a": 0, "dim_n": 3, "brackets": [
        {"i": 1, "j": 2, "k": 2, "c": c}, {"i": 1, "j": 3, "k": 3, "c": c},
        {"i": 2, "j": 3, "k": 1, "c": c}]})
    code, out, err = run(capsys, "einstein", f)
    assert (code, out, err) == (3, "", f"error: {f}: Jacobi identity fails (residual {residual})\n")
    code, out, err = run(capsys, "validate", f)
    if c == "1e200":
        assert (code, out) == (3, "") and "a value overflows the float range" in err
    else:
        assert (code, err) == (2, "")
        assert out.splitlines()[1] == f"jacobi: FAILED (residual {residual})"


def test_an_extension_beyond_the_digit_limit_writes_no_out_file(tmp_path, capsys):
    # the extension of h3 scaled by 10^2200 is exact, but its curvature has
    # more than 4300 digits: the report fails to serialize, and --out is
    # written only after it has
    f = put(tmp_path, "h3.json", {**H3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1e2200"}]})
    ext = tmp_path / "ext.json"
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "extend", f, "--out", str(ext), "--format", fmt)
        assert (code, out) == (3, "") and "more than 4300 digits" in err
        assert not ext.exists()


@pytest.mark.parametrize("command,obj", [
    ("validate", {**H3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1e2200"}]}),
    ("minnorm", {"dim": 1, "points": [["1e2200"]]}),
], ids=["validate-norm", "minnorm-point"])
def test_an_exact_result_beyond_the_digit_limit_is_named(tmp_path, capsys, command, obj):
    # the input has 2201 digits, but |mu|^2 = 2 10^4400 and the optimum
    # norm 10^4400 have more than Python prints
    for fmt in ("text", "json"):
        code, out, err = run(capsys, command, put(tmp_path, "x.json", obj), "--format", fmt)
        assert (code, out) == (3, "")
        assert err == "error: an exact result has more than 4300 digits, too many to print\n"
    with pytest.raises(ValueError, match="more than 4300 digits"):
        format_scalar(Fraction(1, 10 ** 4300))
    assert format_scalar(Fraction(1, 10 ** 4299)) == "1/1" + "0" * 4299


FLAG_CASES = {
    "stratum-max-iter-negative": (("stratum", "--max-iter", "-1"),
                                  "--max-iter must be at least 0"),
}


@pytest.mark.parametrize("argv,message", FLAG_CASES.values(), ids=FLAG_CASES)
def test_meaningless_numeric_flags_are_input_errors(tmp_path, capsys, argv, message):
    f = put(tmp_path, "n4.json", N4)
    code, out, err = run(capsys, argv[0], f, *argv[1:])
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {message}, got ") and err.count("\n") == 1


def test_numeric_flags_at_their_bounds_are_accepted(tmp_path, capsys):
    f = put(tmp_path, "n4.json", N4)
    code, _, err = run(capsys, "stratum", f, "--max-iter", "0")
    assert code in (0, 2) and err == ""


_ACCEPTED = [3, -2, 0, "7/3", "-5/10", "-0", "06/4", " 1/2", "1.5", "1e3", "٣", 2**80]
_REFUSED = [(0.5, "entries must be integers or 'p/q' strings, got 0.5"),
            (True, "expected a number, got True"),
            ("1/0", "malformed rational literal '1/0'"),
            ("3/-4", "malformed rational literal '3/-4'"),
            ("²", "malformed rational literal '²'"),
            ("7" * 5000, f"malformed rational literal '{'7' * 5000}'"),
            (None, "expected a number or 'p/q' string, got None")]


def test_read_point_set_equals_point_set_make_of_parsed_values(tmp_path, monkeypatch):
    # the point file goes straight to integer coordinates, and gives the
    # PointSet that PointSet.make builds from the parse_scalar values
    from solvstrat import linalg, minnorm

    for t, value in enumerate(_ACCEPTED):
        other = _ACCEPTED[(t + 5) % len(_ACCEPTED)]
        points = [[value, "1/6"], [other, 1], ["-1/4", value]]
        got = jsonio.read_point_set(put(tmp_path, "ps.json", {"dim": 2, "points": points}))
        want = minnorm.PointSet.make([[linalg.parse_scalar(x) for x in p] for p in points])
        assert got == want, points
    # ints and "p/q" strings build no Fraction on the way
    def refuse(*args):
        raise AssertionError("a Fraction was built")

    for module in (linalg, minnorm, jsonio):
        monkeypatch.setattr(module, "Fraction", refuse, raising=False)
    points = [[3, "-7/12"], ["06/4", "-0"], [2**80, "5/1"]]
    got = jsonio.read_point_set(put(tmp_path, "ps.json", {"dim": 2, "points": points}))
    assert (got.den, got.coords) == (12, ((36, -7), (18, 0), (12 * 2**80, 60)))


@pytest.mark.parametrize("value,message", _REFUSED)
def test_read_point_set_refuses_entries_with_the_same_message(tmp_path, value, message):
    path = put(tmp_path, "ps.json", {"dim": 2, "points": [[1, 0], ["1/2", value]]})
    with pytest.raises(jsonio.FormatError) as info:
        jsonio.read_point_set(path)
    assert str(info.value) == f"{path}.points[1]: {message}"


def test_read_point_set_refuses_points_that_are_equal_as_rationals(tmp_path):
    path = put(tmp_path, "ps.json", {"dim": 2, "points": [["1/2", 3], ["2/4", "6/2"]]})
    with pytest.raises(jsonio.FormatError) as info:
        jsonio.read_point_set(path)
    assert str(info.value) == f"{path}: points must be distinct"


def _exponent_files(literal):
    # the literal as a bracket coefficient, a gram entry and a point coordinate
    gram = [["1", "0", "0"], ["0", literal, "0"], ["0", "0", "1"]]
    return [("validate", "brackets[0].c",
             {**H3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": literal}]}),
            ("validate", "gram[1]", {**H3, "gram": gram}),
            ("minnorm", "points[1]", {"dim": 2, "points": [["1", "0"], [literal, "1"]]})]


@pytest.mark.parametrize("literal", ["1e10000000", "0e99999999", "1E-3000000", "7.5e+4301"])
def test_an_exponent_beyond_the_digit_limit_is_refused_at_once(tmp_path, capsys, literal):
    # Fraction would build 10^|exponent| before anything could refuse it
    # (29 s for 1e10000000); the bound is Python's 4300 digits of an int
    for command, field, obj in _exponent_files(literal):
        path = put(tmp_path, "x.json", obj)
        started = time.perf_counter()
        code, out, err = run(capsys, command, path)
        assert time.perf_counter() - started < 1
        assert (code, out) == (3, "")
        assert err == (f"error: {path}.{field}: malformed rational literal {literal!r}: "
                       "its exponent exceeds 4300 in magnitude\n")


@pytest.mark.parametrize("command,text,read", [
    ("validate", '{"dim_a": 0, "dim_n": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": %s}]}',
     jsonio.read_bracket_file),
    ("minnorm", '{"dim": 2, "points": [[1, 0], [0, %s]]}', jsonio.read_point_set),
], ids=["bracket-file", "point-file"])
def test_a_json_number_beyond_the_digit_limit_names_the_file(tmp_path, capsys, command, text,
                                                             read):
    # json hands an integer literal to int, which refuses more than 4300
    # digits; the refusal names the file, not only Python's limit
    path = tmp_path / "long.json"
    path.write_text(text % ("7" * 4301))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (3, "")
    assert err == f"error: {path}: a number literal has more than 4300 digits\n"
    path.write_text(text % ("7" * 4300))
    read(str(path))


@pytest.mark.parametrize("literal,value", [("1e3", 1000), ("1e-3", Fraction(1, 1000)),
                                           ("25E-2", Fraction(1, 4))])
def test_an_exponent_within_the_digit_limit_is_read_exactly(tmp_path, capsys, literal, value):
    bracket = {**H3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": literal}]}
    code, out, _ = run(capsys, "validate", put(tmp_path, "b.json", bracket), "--format", "json")
    assert code == 0 and json.loads(out)["norm_sq"] == format_scalar(2 * value ** 2)
    gram = {**H3, "gram": [["1", "0", "0"], ["0", literal, "0"], ["0", "0", "1"]]}
    assert run(capsys, "validate", put(tmp_path, "g.json", gram))[0] == 0
    points = {"dim": 1, "points": [[literal]]}
    code, out, _ = run(capsys, "minnorm", put(tmp_path, "p.json", points), "--format", "json")
    assert code == 0 and json.loads(out)["result"]["point"] == [format_scalar(value)]


def test_minnorm_computes_the_gram_matrix_once(tmp_path, capsys, monkeypatch):
    # min_norm_point reads the cached Gram columns of the point set, and only
    # those of points that enter Wolfe's corral (the start among them;
    # verify reads the coordinates only)
    from solvstrat import minnorm

    computed, entered = [], set()
    column, affine = minnorm._gram_column, minnorm._affine_minimizer

    def spy_column(coords, i):
        computed.append(i)
        return column(coords, i)

    def spy_affine(ps, subset):
        entered.update(subset)
        return affine(ps, subset)

    monkeypatch.setattr(minnorm, "_gram_column", spy_column)
    monkeypatch.setattr(minnorm, "_affine_minimizer", spy_affine)
    # the optimum is the origin, on the segment of the first two points, and
    # every point is active there; (3, 3) never enters the corral
    ps = {"dim": 2, "points": [["1", "0"], ["-1", "0"], ["0", "1/2"], ["3", "3"]]}
    code, out, _ = run(capsys, "minnorm", put(tmp_path, "ps.json", ps), "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["point"] == ["0", "0"]
    assert len(computed) == len(set(computed))
    assert set(computed) == entered and 3 not in entered


@pytest.mark.parametrize("argv,code", [(["validate", "h3.json"], 0),
                                       (["einstein", "nonstandard_h3.json", "--audit"], 2),
                                       (["minnorm", "points13.json", "--format", "json"], 0)])
def test_a_closed_stdout_keeps_the_exit_code_and_prints_no_error(argv, code):
    # the reader is gone before the child writes: the run is no input error,
    # and nothing reaches stderr, not even from the interpreter's exit flush
    inputs = Path(__file__).parent / "goldens" / "inputs"
    args = [str(inputs / a) if a.endswith(".json") else a for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "solvstrat.cli", *args], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, b"")


def test_console_entry_point_smoke(tmp_path):
    f = tmp_path / "h3.json"
    f.write_text(json.dumps(H3))
    # the subprocess does not see pytest's pythonpath setting: put src on its path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "solvstrat.cli", "validate",
                           str(f)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "jacobi: ok" in proc.stdout
