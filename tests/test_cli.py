"""End-to-end checks of the command line driver (in-process)."""

import ast
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import solvstrat
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
    assert rep["oracle_checked"] is True


def test_minnorm_skips_oracle_above_cutoff(tmp_path, capsys):
    ps = {"dim": 2, "points": [[str(i), "1"] for i in range(1, 14)]}
    code, out, _ = run(capsys, "minnorm", put(tmp_path, "ps.json", ps),
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["oracle_checked"] is False
    assert rep["result"]["point"] == ["1", "1"]


def test_minnorm_raises_when_the_oracle_disagrees(tmp_path, capsys, monkeypatch):
    import solvstrat.cli

    real = solvstrat.cli.brute_force_min_norm

    def wrong(ps):
        res = real(ps)
        return dataclasses.replace(res, point=tuple(x + 1 for x in res.point))

    monkeypatch.setattr(solvstrat.cli, "brute_force_min_norm", wrong)
    ps = {"dim": 2, "points": [["2", "0"], ["0", "2"]]}
    with pytest.raises(RuntimeError, match="oracle"):
        main(["minnorm", put(tmp_path, "ps.json", ps), "--format", "json"])
    assert capsys.readouterr().out == ""


def test_package_has_no_assert_statements():
    # python -O strips assert, so runtime checks must raise instead
    found = []
    for path in sorted(Path(solvstrat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_minnorm_rejects_bad_file(tmp_path, capsys):
    code, _, err = run(capsys, "minnorm",
                       put(tmp_path, "ps.json", {"dim": 2, "points": []}))
    assert code == 3
    assert "nonempty" in err


def test_console_entry_point_smoke(tmp_path):
    f = tmp_path / "h3.json"
    f.write_text(json.dumps(H3))
    proc = subprocess.run([sys.executable, "-m", "solvstrat.cli", "validate",
                           str(f)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "jacobi: ok" in proc.stdout
