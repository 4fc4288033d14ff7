"""End-to-end checks of the command line driver (in-process)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import solvstrat
from generators import random_point_set
from oracles import brute_force_min_norm
from solvstrat import jsonio
from solvstrat.cli import main

H3 = {"dim_a": 0, "dim_n": 3,
      "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}
N4 = {"dim_a": 0, "dim_n": 4,
      "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                   {"i": 1, "j": 3, "k": 4, "c": "1"}]}
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


def test_stratum_certifies_filiform(tmp_path, capsys):
    f = put(tmp_path, "n4.json", N4)
    code, out, _ = run(capsys, "stratum", f, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["rationalized"] is True
    assert rep["certificate"]["beta"] == ["-1", "-1/2", "0", "1/2"]
    assert rep["certificate"]["eigenvalue_type"] == [1, 2, 3, 4]
    assert rep["certificate"]["q_value"] == "2/3"
    assert rep["flow"]["converged"] is True
    assert rep["warnings"] == []


def test_stratum_json_is_deterministic(tmp_path, capsys):
    f = put(tmp_path, "n4.json", N4)
    _, out1, _ = run(capsys, "stratum", f, "--format", "json")
    _, out2, _ = run(capsys, "stratum", f, "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("flag", ["--seed", "--stepper"])
def test_stratum_rejects_removed_options(tmp_path, capsys, flag):
    f = put(tmp_path, "h3.json", H3)
    with pytest.raises(SystemExit):
        main(["stratum", f, flag, "1"])
    assert "unrecognized arguments" in capsys.readouterr().err


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


def test_stratum_trace_csv(tmp_path, capsys):
    f = put(tmp_path, "n4.json", N4)
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "stratum", f, "--trace", str(trace),
                       "--format", "json")
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,m_norm_sq,tangency"
    rep = json.loads(out)
    assert len(lines) == rep["flow"]["iterations"] + 2  # header + iterates


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
    code2, out2, _ = run(capsys, "einstein", f, "--audit", "--beta-from-flow",
                         "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["audit"]["beta"] == ["-1", "-1", "1"]


def test_einstein_audit_beta_from_flow_keeps_the_input_basis(tmp_path, capsys, monkeypatch):
    # h3 as [e2, e3] = e1: its label (1, -1, -1) is not chamber-sorted, and
    # the flow reports the sorted (-1, -1, 1); the audit must use the label
    # of the input basis, on which the extension is Einstein and standard
    f = put(tmp_path, "h3.json", {"dim_a": 0, "dim_n": 3,
                                  "brackets": [{"i": 2, "j": 3, "k": 1, "c": 1}]})
    ext = str(tmp_path / "ext.json")
    assert run(capsys, "extend", f, "--out", ext)[0] == 0
    code, out, _ = run(capsys, "einstein", ext, "--audit", "--format", "json")
    assert code == 0
    plain = json.loads(out)["audit"]
    assert plain["beta"] == ["1", "-1", "-1"] and plain["lhs"] == "0"
    code, out, _ = run(capsys, "einstein", ext, "--audit", "--beta-from-flow",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["audit"] == plain
    # a flow label that is not the sorted label of the input is refused
    from solvstrat import cli
    from solvstrat.strata import DiagonalWeight

    wrong = DiagonalWeight.make([-1, 0, 0])
    monkeypatch.setattr(cli, "stratum_detect", lambda mu: type(
        "Detection", (), {"certificate": type("Cert", (), {"beta": wrong})})())
    code, out, _ = run(capsys, "einstein", ext, "--audit", "--beta-from-flow")
    assert code == 2
    assert "(-1, 0, 0)" in out and "(-1, -1, 1)" in out


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
    from solvstrat import flow, strata

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = strata.certify_candidate
    monkeypatch.setattr(flow, "certify_candidate", spy)
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
    # the command runs no oracle itself; its canonical result must equal
    # the face-enumeration oracle's on small random point sets
    rng = np.random.default_rng(11)
    for n in range(40):
        ps = random_point_set(rng, int(rng.integers(1, 6)), int(rng.integers(1, 13)))
        obj = {"dim": ps.dim, "points": [[str(x) for x in p] for p in ps.points]}
        code, out, _ = run(capsys, "minnorm", put(tmp_path, f"ps{n}.json", obj),
                           "--format", "json")
        assert code == 0
        expected = jsonio.min_norm_to_dict(brute_force_min_norm(ps))
        assert json.loads(out)["result"] == expected


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


def test_minnorm_scales_its_point_set_once(tmp_path, capsys, monkeypatch):
    # min_norm_point, canonical_form and verify all read the one cached
    # scaling of the point set
    from solvstrat import minnorm

    calls = []
    real = minnorm._scaled

    def spy(ps):
        calls.append(1)
        return real(ps)

    monkeypatch.setattr(minnorm, "_scaled", spy)
    ps = {"dim": 2, "points": [["1", "0"], ["-1", "0"], ["0", "1/2"], ["3", "3"]]}
    code, _, _ = run(capsys, "minnorm", put(tmp_path, "ps.json", ps), "--format", "json")
    assert code == 0
    assert calls == [1]


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
